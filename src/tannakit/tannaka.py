"""Diagram representations, their End algebras and the pairs context.

A diagram is a finite directed graph; a representation assigns a f.g. module
to each vertex and a module map to each edge.  For a finite subdiagram F with
free vertices, end_algebra computes the algebra of edge-compatible
endomorphism families inside the product of the vertex endomorphism rings.
Its basis is canonical (Hermite over Z, reduced echelon over Q), from one
kernel call on the sparse columns of the edge constraints, kept as sparse
columns {row: entry}, and every coordinate in it (the unit, coordinates(),
the products of basis families, transition maps) is read by the End
algebra's one maps._Solver at the basis pivots.  PairsContext is a pairs
diagram with its product registrations (checked against staircase products
from the builder it is handed, a corpus's own cache) and its End algebra
and tau caches.

EndAlgebra.structure_constants, .coalgebra and .comodule build and keep
what tannakit.coalgebra computes from an End algebra.  A name served here
is kept in this module's namespace once read, so a loop that calls
tannaka.coaction, or builds End algebras, reads a dictionary from its
second call on, not an import: on a tannaka-sweep pass an import per
build was 2-3% of the job time.
"""

from itertools import accumulate

from . import _lazy
from .errors import (
    AxiomViolation, InputError, MissingProducts, NonFreeVertex, NotNested,
)
from .linalg import QQ, ZZ, FgModule, _transpose
from .maps import (
    ModuleMap, _integer_columns, _Solver, elementary_divisors, induced_map_on_homology, kernel,
    triple_boundary,
)
from .matrix import _coerce, jmatrix, jvector
from .simplicial import product_complex, product_pair, relative_homology

# the names of later layers that bench/ and _later read through this module
_from_layer = _lazy(__name__, {
    "coalgebra": "coaction check_coaction_axioms dual_coalgebra structure_constants "
                 "canonical_comodule",
    "transition": "factorization_check transition_map",
})


def __getattr__(name):
    value = globals()[name] = _from_layer(name)
    return value


def _later(name):
    """The name of a later layer that this module serves: its import on the
    first call, a dictionary read after."""
    return globals().get(name) or __getattr__(name)


MAP_EDGE = "map"
TRIPLE_EDGE = "triple"


class Diagram:
    """Directed graph with named vertices and edges.

    Vertex payloads are the caller's business: the pairs diagram stores
    (SimplicialPair, degree), synthetic diagrams store nothing.
    """

    __slots__ = ("vertices", "payloads", "edges")

    def __init__(self, vertices, edges, payloads=None):
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise InputError("duplicate vertex names")
        self.payloads = dict(payloads or {})
        seen = set()
        es = []
        for (name, src, dst, kind) in edges:
            if name in seen:
                raise InputError("duplicate edge name %r" % name)
            seen.add(name)
            if src not in self.vertices or dst not in self.vertices:
                raise InputError("edge %r references unknown vertices" % name)
            es.append((name, src, dst, kind))
        self.edges = tuple(es)

    def edges_within(self, vertex_set):
        vs = set(vertex_set)
        return tuple(e for e in self.edges if e[1] in vs and e[2] in vs)


class DiagramRep:
    """Modules on vertices, maps on edges."""

    __slots__ = ("diagram", "ring", "modules", "maps", "nonfree")

    def __init__(self, diagram, ring, modules, maps):
        self.diagram = diagram
        self.ring = ring
        self.modules = dict(modules)
        self.maps = dict(maps)
        for v in diagram.vertices:
            if v not in self.modules:
                raise InputError("vertex %r carries no module" % v)
        for (name, src, dst, _kind) in diagram.edges:
            mm = self.maps.get(name)
            if mm is None:
                raise InputError("edge %r carries no map" % name)
            if mm.source != self.modules[src] or mm.target != self.modules[dst]:
                raise InputError("edge %r map does not match its endpoints" % name)
        self.nonfree = tuple(sorted(v for v, m in self.modules.items()
                                    if not m.is_free()))

    def module(self, v) -> FgModule:
        return self.modules[v]

    def rank(self, v):
        return self.modules[v].free_rank

    def edge_map(self, name) -> ModuleMap:
        return self.maps[name]


class Subdiagram:
    """A vertex subset of a diagram; edges default to the full ones."""

    __slots__ = ("diagram", "vertices", "edges", "name")

    def __init__(self, diagram, vertices, edges=None, name=""):
        vs = tuple(sorted(set(vertices)))
        for v in vs:
            if v not in diagram.vertices:
                raise InputError("unknown vertex %r" % (v,))
        self.diagram = diagram
        self.vertices = vs
        if edges is None:
            self.edges = diagram.edges_within(vs)
        else:
            all_edges = {e[0]: e for e in diagram.edges_within(vs)}
            self.edges = tuple(all_edges[n] for n in edges)
        self.name = name

    def is_subset_of(self, other):
        return (self.diagram is other.diagram
                and set(self.vertices) <= set(other.vertices)
                and set(e[0] for e in self.edges) <= set(e[0] for e in other.edges))

    def __repr__(self):
        return "Subdiagram(%s)" % (",".join(map(str, self.vertices)),)


def vertex_payload(payloads, v):
    """The (pair, degree) of vertex v; an unknown name is an InputError."""
    if v not in payloads:
        raise InputError("unknown vertex %r" % (v,))
    return payloads[v]


def build_pairs_diagram(ring, vertex_pairs, map_edges=(), triple_edges=()):
    """Assemble the pairs diagram and its homology representation.

    vertex_pairs: {name: (SimplicialPair, degree)}.
    map_edges: (name, src, dst, SimplicialMap); the map must send the source
    vertex pair into the target vertex pair, degrees must agree.
    triple_edges: (name, src, dst); vertices (X,Z,n) -> (Z,W,n-1).
    Vertices with non-free homology are admitted but flagged.
    """
    names = sorted(vertex_pairs)
    payloads = dict(vertex_pairs)
    edges, maps = [], {}
    modules = {v: relative_homology(*vertex_pairs[v], ring) for v in names}
    for (name, src, dst, f) in map_edges:
        ps, ns = vertex_payload(vertex_pairs, src)
        pt, nt = vertex_payload(vertex_pairs, dst)
        if ns != nt:
            raise InputError("map edge %r changes the degree" % name)
        edges.append((name, src, dst, MAP_EDGE))
        maps[name] = induced_map_on_homology(f, ps, pt, ns, ring)
    for (name, src, dst) in triple_edges:
        ps, ns = vertex_payload(vertex_pairs, src)
        pt, nt = vertex_payload(vertex_pairs, dst)
        if nt != ns - 1:
            raise InputError("triple edge %r must drop the degree by one" % name)
        if pt.X != ps.Z:
            raise NotNested("triple edge %r needs source Z = target X" % name)
        if not pt.Z.is_subcomplex_of(ps.Z):
            raise NotNested("triple edge %r fails W <= Z" % name)
        edges.append((name, src, dst, TRIPLE_EDGE))
        maps[name] = triple_boundary(ps.X, ps.Z, pt.Z, ns, ring)
    dia = Diagram(names, edges, payloads)
    return dia, DiagramRep(dia, ring, modules, maps)


class EndAlgebra:
    """Families of edge-compatible endomorphisms over a finite subdiagram.

    The basis spans the solution module of T(e) phi_v = phi_w T(e) inside
    the direct sum of End(T(v)), from one kernel call: over Z it is the
    saturated Hermite basis of the kernel, over Q the reduced column
    echelon basis, read off the kernel of the constraint columns taken
    backwards.  In both forms each basis column has a pivot, its first
    nonzero row, where every later column is zero (and over Q every other
    column).  The basis is kept as its sparse columns, basis_columns, and
    one _Solver on them reads every coordinate:
    the unit, coordinates(), the structure constants of sparse products,
    the restricted families of transition_map and the two solves of
    bialgebra.product_on_truncations.  Structure constants, the dual
    coalgebra and the canonical comodule at each vertex are computed on
    first use and kept.
    """

    __slots__ = ("rep", "sub", "ring", "order", "offsets", "total", "basis_columns",
                 "unit", "_solver", "_structure", "_coalgebra", "_comodules")

    def __init__(self, rep, sub):
        for v in sub.vertices:
            if not rep.module(v).is_free():
                raise NonFreeVertex("vertex %r carries %r" % (v, rep.module(v)))
        self.rep, self.sub, self.ring, self.order = rep, sub, rep.ring, tuple(sub.vertices)
        sizes = [rep.rank(v) ** 2 for v in self.order]
        self.offsets = offsets = dict(zip(self.order, accumulate([0] + sizes)))
        self.total = sum(sizes)
        # the constraints as sparse integer columns, one per flat index.  Z:
        # the Hermite basis of their kernel; Q: the free-column kernel basis
        # of the constraints with their columns read backwards, read
        # backwards, is the reduced column echelon basis (the order of the
        # rows does not change a reduced echelon form).  The constraints of
        # an edge are homogeneous in its map m, so over Q m is taken times
        # the lcm of its denominators: the kernel is the same
        back, total = self.ring == QQ, self.total
        cols, r = [{} for _ in range(total)], 0
        for (name, src, dst, _kind) in sub.edges:
            m = _integer_columns(rep.edge_map(name).columns, self.ring)[0]
            rs, rd, s0, d0 = rep.rank(src), rep.rank(dst), offsets[src], offsets[dst]
            mrows = _transpose(m, rd)
            for i in range(rd):
                for j in range(rs):
                    # (m phi_src - phi_dst m) at (i, j), over the nonzeros of m
                    row = {s0 + k * rs + j: x for k, x in mrows[i].items()}
                    for k, x in m[j].items():
                        row[d0 + i * rd + k] = row.get(d0 + i * rd + k, 0) - x
                    for c, x in row.items():
                        if x:
                            cols[total - 1 - c if back else c][r] = x
                    r += 1
        if r:
            basis = kernel(self.ring, cols, r)
            if back:
                basis = [{total - 1 - i: x for i, x in c.items()} for c in basis[::-1]]
        else:
            basis = [{i: _coerce(self.ring, 1)} for i in range(total)]
        self.basis_columns = basis
        self._solver = _Solver(self.ring, basis, self.total)
        diagonal = {offsets[v] + i * (rep.rank(v) + 1)
                    for v in self.order for i in range(rep.rank(v))}
        coords = self._solver.solve(tuple(int(k in diagonal) for k in range(self.total)))
        if coords is None:
            raise AxiomViolation("identity family does not satisfy the constraints")
        self.unit = tuple(coords)
        self._structure = self._coalgebra = None
        self._comodules = {}

    @property
    def dim(self):
        return len(self.basis_columns)

    def coordinates(self, flat):
        """Coordinates of a flat family vector in the basis, or None."""
        return self._solver.solve(tuple(flat))

    def structure_constants(self):
        """{(i, j): {k: c_ij^k}}, coalgebra.structure_constants, computed
        on first use and kept."""
        if self._structure is None:
            self._structure = _later("structure_constants")(self)
        return self._structure

    def coalgebra(self):
        """The dual coalgebra, built by dual_coalgebra on first use."""
        if self._coalgebra is None:
            self._coalgebra = _later("dual_coalgebra")(self)
        return self._coalgebra

    def comodule(self, v):
        """The canonical comodule at vertex v, built by
        coalgebra.canonical_comodule on first use."""
        co = self._comodules.get(v)
        if co is None:
            co = self._comodules[v] = _later("canonical_comodule")(self, v)
        return co

    def is_saturated(self):
        return (self.ring != ZZ or self.dim == 0
                or all(f == 1 for f in elementary_divisors(ZZ, self.basis_columns)))


def end_algebra(rep, sub) -> EndAlgebra:
    return EndAlgebra(rep, sub)


class PairsContext:
    """Pairs diagram with product registrations and caches.

    products maps (v, w) to the vertex carrying the product pair; the
    registered pair must literally equal product_pair of the factors, whose
    staircase products are built by product (a corpus hands in its own
    cache, Corpus._product).
    """

    def __init__(self, diagram, rep, products=None, circle=None, product=product_complex):
        self.diagram = diagram
        self.rep = rep
        self.ring = rep.ring
        self.products = dict(products or {})
        self.circle = circle
        self._end_cache = {}
        self._tau_cache = {}
        for (v, w), vw in self.products.items():
            pv, nv = vertex_payload(diagram.payloads, v)
            pw, nw = vertex_payload(diagram.payloads, w)
            pvw, nvw = vertex_payload(diagram.payloads, vw)
            if nvw != nv + nw:
                raise InputError("product vertex %r has degree %d, expected %d"
                                 % (vw, nvw, nv + nw))
            if pvw != product_pair(pv, pw, product):
                raise InputError("vertex %r is not the staircase product of %r, %r"
                                 % (vw, v, w))

    def end(self, sub):
        key = (sub.vertices, tuple(e[0] for e in sub.edges))
        if key not in self._end_cache:
            self._end_cache[key] = end_algebra(self.rep, sub)
        return self._end_cache[key]

    def coalgebra(self, sub):
        return self.end(sub).coalgebra()

    def product_vertex(self, v, w):
        vw = self.products.get((v, w))
        if vw is None:
            raise MissingProducts("no product vertex registered for (%r, %r)" % (v, w))
        return vw

    def tau(self, v, w):
        if (v, w) not in self._tau_cache:
            from .kunneth import kunneth_tau
            self._tau_cache[v, w] = kunneth_tau(self, v, w)
        return self._tau_cache[v, w]


def cmd_end_algebra(corpus, ring, args):
    """The end-algebra command: a subdiagram's End algebra, its basis block
    by block, and over Z whether the basis is saturated."""
    ctx, sub = corpus.subdiagram(args.subdiagram, ring)
    E = ctx.end(sub)
    basis = [{} for _ in range(E.dim)]
    for v in E.order:
        r, off = E.rep.rank(v), E.offsets[v]
        for family, col in zip(basis, E.basis_columns):
            # column b of the block at v holds entry (a, b) at off + a r + b
            family[v] = jmatrix([{a: col.get(off + a * r + b, 0) for a in range(r)}
                                 for b in range(r)], r)
    res = {"subdiagram": args.subdiagram, "dimension": E.dim,
           "unit": jvector(E.unit), "basis": basis}
    if ring == ZZ:
        res["saturated"] = E.is_saturated()
        return res, res["saturated"]
    return res, True


# the readers of a corpus's diagram sections import the names above, so they
# are imported here, at the end: a process that has imported tannaka then
# reads a diagram without compiling anything more (the timed jobs of the
# benchmark's tannaka-sweep do)
from . import diagrams  # noqa: E402,F401
