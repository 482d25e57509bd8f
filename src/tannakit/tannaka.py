"""Diagram representations and their Tannakian truncation data.

A diagram is a finite directed graph; a representation assigns a f.g. module
to each vertex and a module map to each edge.  For a finite subdiagram F with
free vertices, end_algebra computes the algebra of edge-compatible
endomorphism families inside the product of the vertex endomorphism rings;
its dual carries the coalgebra structure, every vertex module the canonical
comodule rho(x) = sum_i e_i* (x) (e_i . x), built once per End algebra and
vertex, and inclusions of subdiagrams dualize to transition maps.  Bases are
canonical (Hermite over Z, reduced echelon over Q), each from one kernel
call on the sparse columns of the edge constraints, and every coordinate in
them (the unit, coordinates(), the products of basis families, transition
maps) is read by the End algebra's one maps._Solver at the basis pivots.
Comodule is the one comodule type, and keeps its axioms and its module
once computed.  The End basis, the comultiplication,
the canonical comodules (filled straight from the basis columns) and
transition maps are kept as sparse columns {row: entry} from start to
finish; their dense Matrix is a view built when a certificate reads it.
The coalgebra and comodule axioms, the comodule morphism identities and
the coalgebra morphism check of transitions and bialgebra products
(_coalgebra_morphism) add both sides of each column into one dict by
maps._tensor_apply, over Q in integers scaled by common denominators.
PairsContext is a pairs diagram with its product registrations (checked
against staircase products from the builder it is handed, a corpus's own
cache) and its End algebra and tau caches; it is here and not in
tannakit.bialgebra so that the diagram commands that take no product never
load that module.  tannakit.diagrams reads the diagram sections of a
corpus into these objects, and loads with this module.
"""

from itertools import accumulate
from math import lcm

from .errors import (
    AxiomViolation, DimensionMismatch, InputError, MissingProducts, NonFreeVertex, NotNested,
)
from .linalg import QQ, ZZ, FgModule, _compose, _integral, _transpose
from .maps import (
    ModuleMap, _nonzero_columns, _order_relations, _Solver, _tensor_apply,
    elementary_divisors, induced_map_on_homology, kernel, triple_boundary,
)
from .matrix import Matrix, _coerce
from .simplicial import product_complex, product_pair, relative_homology

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
    column).  The basis is kept as its sparse columns, basis_columns (basis
    is their dense view), and one _Solver on them reads every coordinate:
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
            m = rep.edge_map(name).matrix.data
            if back:
                d = lcm(*(x.denominator for row in m for x in row))
                m = [[x.numerator * (d // x.denominator) for x in row] for row in m]
            rs, rd, s0, d0 = rep.rank(src), rep.rank(dst), offsets[src], offsets[dst]
            for i in range(rd):
                for j in range(rs):
                    row = {}
                    for k in range(rs):
                        row[s0 + k * rs + j] = row.get(s0 + k * rs + j, 0) + m[i][k]
                    for k in range(rd):
                        row[d0 + i * rd + k] = row.get(d0 + i * rd + k, 0) - m[k][j]
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
        self._solver = _Solver.from_sparse(self.ring, basis, self.total)
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

    @property
    def basis(self) -> Matrix:
        return Matrix.from_sparse(self.ring, self.basis_columns, self.total)

    def component(self, i, v) -> Matrix:
        r, off, col = self.rep.rank(v), self.offsets[v], self.basis_columns[i]
        return Matrix(self.ring, [[col.get(off + a * r + b, 0) for b in range(r)]
                                  for a in range(r)], r, r)

    def coordinates(self, flat):
        """Coordinates of a flat family vector in the basis, or None."""
        return self._solver.solve(tuple(flat))

    def structure_constants(self):
        """{(i, j): {k: c_ij^k}}: the coordinates of e_i * e_j over their
        nonzeros, for every pair whose product is not zero.

        Each family is kept as the sparse rows of its vertex blocks, from the
        integer columns w_k = s_k e_k of the basis, and only the pairs whose
        blocks meet are multiplied.  The solver reads w_i w_j / (s_i s_j) (in
        its image basis, taken back by T, when it set T); a product outside
        the span raises AxiomViolation.
        """
        if self._structure is not None:
            return self._structure
        solver = self._solver
        cols, scales = solver.columns, solver.scales     # w_k and s_k, unless T is set
        if solver.T is not None:
            cols = _integral(self.basis_columns)
            scales = [lcm(*(x.denominator for x in c.values())) for c in self.basis_columns]
        # flat index -> (vertex, row, column) of its block
        layout, where = [], []
        for vi, v in enumerate(self.order):
            r = self.rep.rank(v)
            layout.append((self.offsets[v], r))
            where.extend((vi, a, b) for a in range(r) for b in range(r))
        fams = []
        for col in cols:
            fam = {}
            for idx in sorted(col):
                vi, a, b = where[idx]
                fam.setdefault(vi, {}).setdefault(a, []).append((b, col[idx]))
            fams.append(fam)
        # e_i e_j can be nonzero only if a column of e_i meets a row of e_j
        partners = {}
        for j, fam in enumerate(fams):
            for vi, rows in fam.items():
                for a in rows:
                    partners.setdefault((vi, a), []).append(j)
        table = {}
        for i, x in enumerate(fams):
            js = set()
            for vi, rows in x.items():
                for row in rows.values():
                    for b, _ in row:
                        js.update(partners.get((vi, b), ()))
            for j in sorted(js):
                prod = _block_product(x, fams[j], layout)
                if not prod:
                    continue
                coords = solver.coordinates(prod, scales[i] * scales[j])
                if coords is None:
                    raise AxiomViolation(
                        "product of basis families %d,%d escapes the span" % (i, j))
                table[i, j] = coords if solver.T is None else _compose(solver.T, [coords])[0]
        self._structure = table
        return table

    def coalgebra(self):
        """The dual coalgebra, built by dual_coalgebra on first use."""
        if self._coalgebra is None:
            self._coalgebra = dual_coalgebra(self)
        return self._coalgebra

    def comodule(self, v):
        """The canonical comodule at vertex v, built on first use: row (i, a)
        of rho's column b is entry (a, b) of e_i's block at v, read off the
        basis columns."""
        co = self._comodules.get(v)
        if co is None:
            r, off = self.rep.rank(v), self.offsets[v]
            rho = [{} for _ in range(r)]
            for i, col in enumerate(self.basis_columns):
                for idx, x in col.items():
                    if off <= idx < off + r * r:
                        a, b = divmod(idx - off, r)
                        rho[b][i * r + a] = x
            co = self._comodules[v] = Comodule(self.coalgebra(), (0,) * r, rho)
        return co

    def is_saturated(self):
        return (self.ring != ZZ or self.dim == 0
                or all(f == 1 for f in elementary_divisors(self.basis)))


def end_algebra(rep, sub) -> EndAlgebra:
    return EndAlgebra(rep, sub)


def _block_product(x, y, layout):
    """The nonzeros {flat index: int} of the product of two families given
    as {vertex: {row: [(column, entry)]}}, block by block."""
    prod = {}
    for vi, xv in x.items():
        yv = y.get(vi)
        if yv is None:
            continue
        off, r = layout[vi]
        for a, xrow in xv.items():
            base = off + a * r
            for b, p in xrow:
                for c, q in yv.get(b, ()):
                    prod[base + c] = prod.get(base + c, 0) + p * q
    return {k: v for k, v in prod.items() if v}


def _vanishes(diff, r, orders, scale=1, ring=ZZ):
    """Whether every entry of diff {row: x}, scale times an exact difference,
    is zero in its row's generator, whose order is orders[row % r] (0 when
    free): over Z divisible by scale times that order, over Q anything on a
    generator of order t > 1, which is zero there."""
    if not any(orders or ()):
        return not any(diff.values())
    if ring == QQ:
        return not any(x for i, x in diff.items() if not orders[i % r])
    return all(x % (scale * orders[i % r]) == 0 if orders[i % r] else x == 0
               for i, x in diff.items())


def _coassociative(delta, rho, n, r, orders=None, scales=(1, 1), ring=ZZ):
    """(Delta (x) id) rho == (id (x) rho) rho, one column of rho at a time.

    delta and rho are the _nonzero_columns of the n^2 x n comultiplication
    and of an (n r) x r coaction (rows (i, a) -> i * r + a); both sides of
    each column go into one dict by _tensor_apply.  With scales (R, D),
    delta and rho are integer columns D Delta and R rho, and
    R (D Delta (x) id)(R rho) is compared with D (id (x) R rho)(R rho): both
    sides carry R^2 D.  With orders (one per generator) the identity holds
    in each row's generator, as _vanishes reads it over ring.
    """
    R, D = scales
    for col in rho:
        diff = _tensor_apply(delta, None, r, r, col, R)
        _tensor_apply(None, rho, n * r, r, col, -D, diff)
        if not _vanishes(diff, r, orders, R * R * D, ring):
            return False
    return True


def _integer_columns(cols, ring):
    """Sparse columns {row: entry} as (integer columns, D): D is the lcm of
    every denominator and the integer columns are D times the given ones."""
    if ring == ZZ:
        return cols, 1
    d = lcm(*(x.denominator for col in cols for x in col.values()))
    return [{i: x.numerator * (d // x.denominator) for i, x in col.items()}
            for col in cols], d


def _counit_identity(rho, eps, r, scale, left=True, orders=None, ring=ZZ):
    """(eps (x) id) rho == id, or (id (x) eps) rho == id when not left, for
    integer columns rho and an integer counit given as columns {0: eps_i},
    whose products carry the factor scale, and orders and ring as in
    _coassociative."""
    a, b, nb = (eps, None, r) if left else (None, eps, 1)
    for j, col in enumerate(rho):
        if not _vanishes(_tensor_apply(a, b, nb, r, col, 1, {j: -scale}), r, orders, scale,
                         ring):
            return False
    return True


def _intertwines(src, dst, t=None, m=None):
    """(t (x) m) rho_src == rho_dst m in dst's generators (modulo their
    orders over Z), for a coalgebra map t (sparse columns) and a module map
    m (None: an identity), column by column over the nonzeros, in integers:
    R_dst (S_t t (x) S_m m)(R_src rho_src) against S_t R_src (R_dst rho_dst)(S_m m)."""
    k, ring = dst.ngens, dst.coalgebra.ring
    tc, st = _integer_columns(t, ring) if t is not None else (None, 1)
    mc, sm = _integer_columns(_nonzero_columns(m), m.ring) if m is not None else (None, 1)
    rs, rd = src._denominator, dst._denominator
    for b, col in enumerate(src._columns):
        diff = _tensor_apply(tc, mc, k, src.ngens, col, rd)
        _tensor_apply(dst._columns, None, 1, 1, {b: 1} if mc is None else mc[b], -st * rs, diff)
        if not _vanishes(diff, k, dst.gen_orders, rd * rs * st * sm, ring):
            return False
    return True


def _coalgebra_morphism(t, delta, counit, target):
    """(Delta_target t == (t (x) t) delta, eps_target t == counit) for a map
    t out of the coalgebra with comultiplication delta and counit, all given
    as sparse columns (the counit's {0: eps_k}), exactly, one column e_k at
    a time, both sides of it added into one dict by _tensor_apply."""
    n, eps = target.rank, target.counit_columns
    comultiplicative = counital = True
    for k, (col, e) in enumerate(zip(delta, counit)):
        diff = _tensor_apply(target.delta_columns, None, 1, 1, t[k], -1)
        comultiplicative = comultiplicative and not any(
            _tensor_apply(t, t, n, len(t), col, 1, diff).values())
        counital = counital and _tensor_apply(eps, None, 1, 1, t[k]).get(0, 0) == e.get(0, 0)
    return comultiplicative, counital


class CoalgebraTrunc:
    """Free coalgebra truncation: rank, comultiplication and counit.

    delta_columns is the comultiplication as sparse columns {row: entry}
    over its nonzeros, rows row-major tensor indices i * rank + j; it and
    counit_columns ({0: eps_k}) are the primary data, read by every check
    against this coalgebra.  The dense rank^2 x rank matrix delta is built
    from it on first read, for the certificates that print it.  The columns
    and the counit are also kept
    as integers times a common denominator (1 over Z), computed once here:
    coassociativity and the counit identities, asserted at construction,
    and the comodule checks contract those, without Fractions or Kronecker
    products.
    """

    __slots__ = ("ring", "rank", "delta_columns", "counit", "counit_columns", "_delta",
                 "_integer_delta", "_denominator", "_integer_counit")

    def __init__(self, ring, rank, delta_columns, counit):
        n2 = rank * rank
        if (len(delta_columns) != rank
                or any(not 0 <= i < n2 for col in delta_columns for i in col)):
            raise AxiomViolation("comultiplication has wrong shape")
        if counit.rows != 1 or counit.cols != rank:
            raise AxiomViolation("counit matrix has wrong shape")
        self.ring = ring
        self.rank = rank
        self.delta_columns = cols = delta_columns
        self.counit = counit
        self.counit_columns = _nonzero_columns(counit)
        self._delta = None
        self._integer_delta, self._denominator = idelta, d = _integer_columns(cols, ring)
        if not _coassociative(idelta, idelta, rank, rank):
            raise AxiomViolation("comultiplication is not coassociative")
        self._integer_counit = eps, de = _integer_columns(self.counit_columns, ring)
        if not (_counit_identity(idelta, eps, rank, d * de)
                and _counit_identity(idelta, eps, rank, d * de, left=False)):
            raise AxiomViolation("counit identities fail")

    @property
    def delta(self):
        """The dense rank^2 x rank comultiplication matrix."""
        if self._delta is None:
            self._delta = Matrix.from_sparse(self.ring, self.delta_columns,
                                             self.rank * self.rank)
        return self._delta

    def grouplike_defect(self, coords):
        """Delta(x) - x (x) x for an element given by coordinates."""
        out = [-a * b for a in coords for b in coords]
        for a, col in zip(coords, self.delta_columns):
            if a:
                for i, d in col.items():
                    out[i] += a * d
        return Matrix.column(self.ring, out)

    def counit_of(self, coords):
        return _coerce(self.ring, sum(e * a for e, a in zip(self.counit.data[0], coords) if a))

    def __eq__(self, other):
        return (isinstance(other, CoalgebraTrunc) and self.ring == other.ring
                and self.rank == other.rank and self.counit == other.counit
                and self.delta_columns == other.delta_columns)

    def __hash__(self):
        return hash((self.ring, self.rank, self.counit,
                     tuple(frozenset(col.items()) for col in self.delta_columns)))


def dual_coalgebra(E: EndAlgebra) -> CoalgebraTrunc:
    """Dual of the endomorphism algebra in the chosen basis.

    The comultiplication pairs against the opposite multiplication,
    Delta(e_k*) = sum_{i,j} c_{ij}^k e_j* (x) e_i*: this is the unique order
    for which the canonical coactions rho(x) = sum_i e_i* (x) e_i.x satisfy
    the comodule axioms when the algebra is noncommutative.  Its columns are
    filled straight from the sparse structure constants; no dense matrix is
    built.
    """
    n = E.dim
    cols = [{} for _ in range(n)]
    for (i, j), coords in E.structure_constants().items():
        for k, c in coords.items():
            cols[k][j * n + i] = c
    counit = Matrix(E.ring, [list(E.unit)], 1, n)
    return CoalgebraTrunc(E.ring, n, cols, counit)


class Comodule:
    """rho: V -> C (x) V, an (n k) x k map with rows (i, a) -> i * k + a,
    given as its sparse columns {row: entry} or as a dense Matrix.

    gen_orders fixes the coordinate semantics of V: entry j is the order of
    generator j (0 when free).  rho is checked to be well defined on torsion
    and normalized: over Z its entries are reduced modulo the order of their
    row's generator, over Q a generator of order t > 1 is zero, and so are
    its rows.  It is kept as its sparse columns, columns, and, over Q as
    integers times their common denominator, for every identity check; the
    dense rho is a view built when a certificate reads it.

    A Comodule is not changed once built, so what is computed from it is
    computed once and kept: axioms(), read by check_coaction_axioms,
    factorization_check and comodule.check_comodule_axioms alike, and the
    underlying module.
    """

    __slots__ = ("coalgebra", "gen_orders", "columns", "_rho", "_columns", "_denominator",
                 "_axioms", "_module")

    def __init__(self, coalgebra, gen_orders, rho):
        k, n, ring = len(gen_orders), coalgebra.rank, coalgebra.ring
        if isinstance(rho, Matrix):
            if rho.rows != n * k or rho.cols != k:
                raise DimensionMismatch(
                    "coaction must be %dx%d, got %dx%d" % (n * k, k, rho.rows, rho.cols))
            rho = _nonzero_columns(rho)
        elif len(rho) != k or any(not 0 <= i < n * k for col in rho for i in col):
            raise DimensionMismatch("coaction must be %dx%d" % (n * k, k))
        orders = tuple(int(t) for t in gen_orders)
        if any(t < 0 or t == 1 for t in orders):
            raise DimensionMismatch("generator orders must be 0 or > 1")
        if any(orders):
            if ring == QQ:
                rho = [{i: x for i, x in col.items() if not orders[i % k]} for col in rho]
            for j, t in enumerate(orders):
                if t and not _vanishes({i: t * x for i, x in rho[j].items()}, k, orders, 1, ring):
                    raise DimensionMismatch(
                        "coaction not well defined on torsion generator %d" % j)
            if ring == ZZ:
                reduced = ({i: x % orders[i % k] if orders[i % k] else x
                            for i, x in col.items()} for col in rho)
                rho = [{i: x for i, x in col.items() if x} for col in reduced]
        self.coalgebra, self.gen_orders, self.columns, self._rho = coalgebra, orders, rho, None
        self._columns, self._denominator = _integer_columns(rho, ring)
        self._axioms = self._module = None

    @property
    def rho(self) -> Matrix:
        """The dense (n k) x k coaction matrix, built on first read."""
        if self._rho is None:
            self._rho = Matrix.from_sparse(self.coalgebra.ring, self.columns,
                                           self.coalgebra.rank * self.ngens)
        return self._rho

    @property
    def module(self) -> FgModule:
        """The underlying module, built on first read: free of rank ngens
        when every order is 0, else the cokernel of the order relations."""
        if self._module is None:
            ring = self.coalgebra.ring
            self._module = (FgModule.cokernel(_order_relations(self.gen_orders, ring))
                            if any(self.gen_orders) else FgModule.free(ring, self.ngens))
        return self._module

    @property
    def ngens(self):
        return len(self.gen_orders)

    def axioms(self):
        """(coassociativity, counit) in the generators (modulo their orders
        over Z), in full: the integer columns of Delta, eps and rho
        contracted over their nonzeros, on the first call only."""
        if self._axioms is None:
            A, k, orders = self.coalgebra, self.ngens, self.gen_orders
            eps, de = A._integer_counit
            self._axioms = (
                _coassociative(A._integer_delta, self._columns, A.rank, k, orders,
                               (self._denominator, A._denominator), A.ring),
                _counit_identity(self._columns, eps, k, self._denominator * de,
                                 orders=orders, ring=A.ring))
        return self._axioms


def coaction(rep, sub, v, E=None, A=None) -> Comodule:
    """The canonical comodule rho(x) = sum_i e_i* (x) (e_i . x) at vertex v,
    over E's coalgebra (A, when given, must equal it); E builds it once."""
    E = end_algebra(rep, sub) if E is None else E
    if v not in sub.vertices:
        raise InputError("vertex %r is not in the subdiagram" % (v,))
    co = E.comodule(v)
    if A is not None and A != co.coalgebra:
        raise InputError("the coalgebra is not the dual of the End algebra")
    return co


def check_coaction_axioms(co: Comodule):
    """(coassociativity, counit) of a comodule, exactly: Comodule.axioms,
    computed once per comodule."""
    return co.axioms()


class TransitionMap:
    """Coalgebra morphism A_F -> A_F' dual to restriction of families, as
    sparse columns."""

    __slots__ = ("source", "target", "columns")

    def __init__(self, source, target, columns):
        self.source, self.target, self.columns = source, target, columns

    @property
    def matrix(self) -> Matrix:
        return Matrix.from_sparse(self.target.ring, self.columns, self.target.rank)


def transition_map(rep, EF: EndAlgebra, EG: EndAlgebra) -> TransitionMap:
    """Transition A_F -> A_G for subdiagrams F <= G.

    Computed as the transpose of the restriction End(T|_G) -> End(T|_F),
    each restricted basis column read by End(T|_F)'s solver, sparse in and
    out; verified to be a coalgebra morphism by _coalgebra_morphism and to
    intertwine the canonical comodules at every vertex of F,
    (t (x) id) rho_F = rho_G, by _intertwines.
    """
    if not EF.sub.is_subset_of(EG.sub):
        raise InputError("transition requires nested subdiagrams")
    AF, AG = EF.coalgebra(), EG.coalgebra()
    at = {EG.offsets[v] + k: EF.offsets[v] + k for v in EF.order for k in range(rep.rank(v) ** 2)}
    restricted = []
    for col in EG.basis_columns:
        coords = EF._solver.read({at[i]: x for i, x in col.items() if i in at})
        if coords is None:
            raise AxiomViolation("restricted family escapes the smaller algebra")
        restricted.append(coords)
    t = _transpose(restricted, EF.dim)
    comultiplicative, counital = _coalgebra_morphism(t, AF.delta_columns, AF.counit_columns, AG)
    if not comultiplicative:
        raise AxiomViolation("transition fails comultiplication compatibility")
    if not counital:
        raise AxiomViolation("transition fails counit compatibility")
    for v in EF.order:
        if not _intertwines(coaction(rep, EF.sub, v, EF), coaction(rep, EG.sub, v, EG), t=t):
            raise AxiomViolation("transition fails coaction compatibility at %r" % (v,))
    return TransitionMap(AF, AG, t)


class FactorizationCert:
    __slots__ = ("violations", "checked")

    def __init__(self, violations, checked):
        self.violations = tuple(violations)
        self.checked = checked

    @property
    def ok(self):
        return not self.violations

    def as_dict(self):
        return {"ok": self.ok, "checked": self.checked,
                "violations": list(self.violations)}


def factorization_check(rep, sub, E=None) -> FactorizationCert:
    """Certificate that the representation factors through comodules.

    (i) comodule axioms for every canonical comodule, (ii) every edge map is
    a comodule morphism, (iii) forgetting coactions returns the original
    modules.  The comodules are E's, built once, and (i) and (iii) read
    what each keeps: its axioms, checked exactly by contracting the sparse
    structure tensor on their first read (a check_coaction_axioms before
    this one leaves nothing to recompute), and its module, free without an
    elimination.  (ii) checks rho_dst m = (id (x) m) rho_src by _intertwines.
    """
    E = end_algebra(rep, sub) if E is None else E
    violations = []
    checked = 0
    for v in sub.vertices:
        co = coaction(rep, sub, v, E)
        coassoc, counit = check_coaction_axioms(co)
        checked += 3
        if not coassoc:
            violations.append("coassociativity fails at vertex %r" % (v,))
        if not counit:
            violations.append("counit fails at vertex %r" % (v,))
        if co.module != rep.module(v):
            violations.append("underlying module changed at %r" % (v,))
    for (name, src, dst, _kind) in sub.edges:
        checked += 1
        if not _intertwines(coaction(rep, sub, src, E), coaction(rep, sub, dst, E),
                            m=rep.edge_map(name).matrix):
            violations.append("edge %r is not a comodule morphism" % (name,))
    return FactorizationCert(violations, checked)


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
            from .bialgebra import kunneth_tau
            self._tau_cache[v, w] = kunneth_tau(self, v, w)
        return self._tau_cache[v, w]


# the readers of a corpus's diagram sections import the names above, so they
# are imported here, at the end: a process that has imported tannaka then
# reads a diagram without compiling anything more (the timed jobs of the
# benchmark's tannaka-sweep do)
from . import diagrams  # noqa: E402,F401
