"""Diagram representations and their Tannakian truncation data.

A diagram is a finite directed graph; a representation assigns a f.g. module
to each vertex and a module map to each edge.  For a finite subdiagram F with
free vertices, end_algebra computes the algebra of edge-compatible
endomorphism families inside the product of the vertex endomorphism rings;
its dual carries the coalgebra structure, every vertex module the canonical
coaction rho(x) = sum_i e_i* (x) (e_i . x), and inclusions of subdiagrams
dualize to transition maps.  Bases are canonical: Hermite over Z, reduced
echelon over Q.
"""

from .errors import (
    AxiomViolation, InputError, NonFreeVertex, NotNested, WrongRank,
)
from .linalg import (
    QQ, ZZ, FgModule, Matrix, ModuleMap, _nonzero_columns, _Solver,
    echelon_columns, elementary_divisors, kernel,
)
from .simplicial import (
    SimplicialPair, induced_map_on_homology, pair_homology, relative_homology,
    triple_boundary,
)

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
    edges = []
    maps = {}
    modules = {}
    for v in names:
        p, n = vertex_pairs[v]
        modules[v] = relative_homology(p, n, ring)
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
    the direct sum of End(T(v)); over Z it is saturated (kernel of an
    integer matrix) and reduced to Hermite form, over Q to reduced echelon.
    Structure constants and the dual coalgebra are computed on first use.
    """

    __slots__ = ("rep", "sub", "ring", "order", "offsets", "total", "basis",
                 "unit", "_solver", "_structure", "_coalgebra")

    def __init__(self, rep, sub):
        for v in sub.vertices:
            if not rep.module(v).is_free():
                raise NonFreeVertex("vertex %r carries %r"
                                    % (v, rep.module(v)))
        self.rep = rep
        self.sub = sub
        self.ring = rep.ring
        self.order = tuple(sub.vertices)
        offsets = {}
        pos = 0
        for v in self.order:
            offsets[v] = pos
            pos += rep.rank(v) ** 2
        self.offsets = offsets
        self.total = pos
        rows = []
        for (name, src, dst, _kind) in sub.edges:
            m = rep.edge_map(name).matrix
            rs, rd = rep.rank(src), rep.rank(dst)
            for i in range(rd):
                for j in range(rs):
                    row = [0] * self.total
                    for k in range(rs):
                        row[offsets[src] + k * rs + j] += m[i, k]
                    for k in range(rd):
                        row[offsets[dst] + i * rd + k] -= m[k, j]
                    rows.append(row)
        if rows:
            # a Z kernel is already in Hermite form
            basis = kernel(Matrix(self.ring, rows, len(rows), self.total))
            if self.ring == QQ and basis.cols:
                basis = echelon_columns(basis)
        else:
            basis = Matrix.identity(self.ring, self.total)
        self.basis = basis
        self._solver = _Solver(self.basis)
        unit = [0] * self.total
        for v in self.order:
            r = rep.rank(v)
            for i in range(r):
                unit[offsets[v] + i * r + i] = 1
        coords = self._solver.solve(tuple(unit))
        if coords is None:
            raise AxiomViolation("identity family does not satisfy the constraints")
        self.unit = tuple(coords)
        self._structure = None
        self._coalgebra = None

    @property
    def dim(self):
        return self.basis.cols

    def component(self, i, v) -> Matrix:
        r = self.rep.rank(v)
        off = self.offsets[v]
        col = self.basis.col(i)
        return Matrix(self.ring,
                      [[col[off + a * r + b] for b in range(r)] for a in range(r)],
                      r, r)

    def coordinates(self, flat):
        """Coordinates of a flat family vector in the basis, or None."""
        return self._solver.solve(tuple(flat))

    def structure_constants(self):
        """c[i][j] = coordinate vector of e_i * e_j."""
        if self._structure is None:
            # each family's vertex components once, as rows and as columns
            rows = [[self.component(i, v).data for v in self.order]
                    for i in range(self.dim)]
            cols = [[tuple(zip(*block)) for block in fam] for fam in rows]
            table = []
            for i, x in enumerate(rows):
                row = []
                for j, y in enumerate(cols):
                    flat = [sum(p * q for p, q in zip(xa, yb) if p)
                            for xv, yv in zip(x, y) for xa in xv for yb in yv]
                    coords = self.coordinates(flat)
                    if coords is None:
                        raise AxiomViolation(
                            "product of basis families %d,%d escapes the span" % (i, j))
                    row.append(coords)
                table.append(row)
            self._structure = table
        return self._structure

    def coalgebra(self):
        """The dual coalgebra, built by dual_coalgebra on first use."""
        if self._coalgebra is None:
            self._coalgebra = dual_coalgebra(self)
        return self._coalgebra

    def is_saturated(self):
        if self.ring != ZZ or self.dim == 0:
            return True
        return all(f == 1 for f in elementary_divisors(self.basis))


def end_algebra(rep, sub) -> EndAlgebra:
    return EndAlgebra(rep, sub)


def _vanishes(diff, r, orders):
    """Whether every entry of diff {row: x} is zero, or divisible by
    orders[row % r] (the order of the row's generator; 0 when free)."""
    if orders is None:
        return not any(diff.values())
    return all(x % orders[i % r] == 0 if orders[i % r] else x == 0
               for i, x in diff.items())


def _coassociative(delta, rho, n, r, orders=None):
    """(Delta (x) id) rho == (id (x) rho) rho, one column of rho at a time.

    delta and rho are the _nonzero_columns of the n^2 x n comultiplication
    and of an (n r) x r coaction (rows (i, a) -> i * r + a); the difference
    of the sides is summed over nonzero products only, with no Kronecker.
    With orders (one per generator a) the identity holds modulo the order
    of each row's generator.
    """
    for col in rho:
        diff = {}
        for ia, c in col.items():
            i, a = divmod(ia, r)
            for pq, d in delta[i].items():
                diff[pq * r + a] = diff.get(pq * r + a, 0) + c * d
            for jb, d in rho[a].items():
                diff[i * n * r + jb] = diff.get(i * n * r + jb, 0) - c * d
        if not _vanishes(diff, r, orders):
            return False
    return True


def _counit_identity(rho, eps, r, left=True, orders=None):
    """(eps (x) id) rho == id, or (id (x) eps) rho == id when not left, for
    rho and orders given as in _coassociative."""
    for b, col in enumerate(rho):
        diff = {b: -1}
        for ia, c in col.items():
            i, a = divmod(ia, r)
            e, key = (eps[i], a) if left else (eps[a], i)
            diff[key] = diff.get(key, 0) + e * c
        if not _vanishes(diff, r, orders):
            return False
    return True


def _intertwines(m, rho_src, rho_dst, n, orders=None):
    """rho_dst m == (id (x) m) rho_src for coactions over a rank-n coalgebra,
    one row block at a time: block i of rho_dst m against m times block i of
    rho_src, with no Kronecker.  With orders (one per row of m) the identity
    holds modulo the order of each row's generator."""
    rd, rs = m.rows, m.cols
    lhs = rho_dst * m
    for i in range(n):
        rhs = m * rho_src.take_rows(range(i * rs, i * rs + rs))
        for a, (x, y) in enumerate(zip(lhs.data[i * rd:i * rd + rd], rhs.data)):
            t = orders[a] if orders else 0
            if any((u - v) % t if t else u != v for u, v in zip(x, y)):
                return False
    return True


def _comultiplicative(t, AG, AF):
    """Delta_G t == (t (x) t) Delta_F, one column e_k at a time: Delta_G(t e_k)
    against sum_ij c_ij^k (t e_i) (x) (t e_j), over nonzeros, with no kron."""
    n, tc, dg = t.rows, _nonzero_columns(t), AG.delta_columns
    for k, col in enumerate(AF.delta_columns):
        diff = {}
        for i, a in tc[k].items():
            for pq, d in dg[i].items():
                diff[pq] = diff.get(pq, 0) + a * d
        for ij, c in col.items():
            for p, a in tc[ij // t.cols].items():
                for q, b in tc[ij % t.cols].items():
                    diff[p * n + q] = diff.get(p * n + q, 0) - c * a * b
        if any(diff.values()):
            return False
    return True


def _block_rows(rho, n, r):
    """The (n r) x k matrix rho as n x (r k): row i is row block i."""
    return Matrix(rho.ring,
                  [tuple(x for row in rho.data[i * r:i * r + r] for x in row)
                   for i in range(n)], n, r * rho.cols)


class CoalgebraTrunc:
    """Free coalgebra truncation: rank, comultiplication and counit matrices.

    delta: rank^2 x rank (row-major tensor indices); counit: 1 x rank.
    delta_columns holds the _nonzero_columns of delta, built once here for
    every later check against this coalgebra.  Coassociativity and the
    counit identities are asserted at construction, exactly, by contracting
    the nonzeros of the structure tensor column by column rather than
    through dense Kronecker products.
    """

    __slots__ = ("ring", "rank", "delta", "counit", "delta_columns")

    def __init__(self, ring, rank, delta, counit):
        if delta.rows != rank * rank or delta.cols != rank:
            raise AxiomViolation("comultiplication matrix has wrong shape")
        if counit.rows != 1 or counit.cols != rank:
            raise AxiomViolation("counit matrix has wrong shape")
        self.ring = ring
        self.rank = rank
        self.delta = delta
        self.counit = counit
        self.delta_columns = cols = _nonzero_columns(delta)
        if not _coassociative(cols, cols, rank, rank):
            raise AxiomViolation("comultiplication is not coassociative")
        eps = counit.row(0)
        if not (_counit_identity(cols, eps, rank)
                and _counit_identity(cols, eps, rank, left=False)):
            raise AxiomViolation("counit identities fail")

    def grouplike_defect(self, coords):
        """Delta(x) - x (x) x for an element given by coordinates."""
        x = Matrix.column(self.ring, coords)
        return self.delta * x - Matrix.column(self.ring, [a * b for a in x.col(0)
                                                          for b in x.col(0)])

    def counit_of(self, coords):
        return (self.counit * Matrix.column(self.ring, coords))[0, 0]

    def __eq__(self, other):
        return (isinstance(other, CoalgebraTrunc) and self.ring == other.ring
                and self.rank == other.rank and self.delta == other.delta
                and self.counit == other.counit)

    def __hash__(self):
        return hash((self.ring, self.rank, self.delta, self.counit))


def dual_coalgebra(E: EndAlgebra) -> CoalgebraTrunc:
    """Dual of the endomorphism algebra in the chosen basis.

    The comultiplication pairs against the opposite multiplication,
    Delta(e_k*) = sum_{i,j} c_{ij}^k e_j* (x) e_i*: this is the unique order
    for which the canonical coactions rho(x) = sum_i e_i* (x) e_i.x satisfy
    the comodule axioms when the algebra is noncommutative.
    """
    n = E.dim
    c = E.structure_constants()
    # row j * n + i of delta is c_{ij}
    delta = [c[i][j] for j in range(n) for i in range(n)]
    counit = Matrix(E.ring, [list(E.unit)], 1, n)
    return CoalgebraTrunc(E.ring, n, Matrix(E.ring, delta, n * n, n), counit)


class Coaction:
    """rho: V -> A (x) V for the canonical coaction at a vertex."""

    __slots__ = ("coalgebra", "vertex", "module", "rho")

    def __init__(self, coalgebra, vertex, module, rho):
        self.coalgebra = coalgebra
        self.vertex = vertex
        self.module = module
        self.rho = rho


def coaction(rep, sub, v, E=None, A=None) -> Coaction:
    """Canonical coaction rho(x) = sum_i e_i* (x) (e_i . x) at vertex v."""
    if E is None:
        E = end_algebra(rep, sub)
    if A is None:
        A = E.coalgebra()
    if v not in sub.vertices:
        raise InputError("vertex %r is not in the subdiagram" % (v,))
    r = rep.rank(v)
    n = E.dim
    # row block i of rho is the component of e_i at v
    rho = [row for i in range(n) for row in E.component(i, v).data]
    return Coaction(A, v, rep.module(v), Matrix(rep.ring, rho, n * r, r))


def check_coaction_axioms(co: Coaction):
    """(coassociativity, counit) as exact identities.

    (Delta (x) id) rho = (id (x) rho) rho and (eps (x) id) rho = id are
    checked in full by contracting the nonzeros of the structure tensor and
    of rho, one column of rho at a time.
    """
    A = co.coalgebra
    r = co.rho.cols
    if co.rho.rows != A.rank * r:
        raise ValueError("coaction matrix does not fit its coalgebra")
    rho = _nonzero_columns(co.rho)
    return (_coassociative(A.delta_columns, rho, A.rank, r),
            _counit_identity(rho, A.counit.row(0), r))


class TransitionMap:
    """Coalgebra morphism A_F -> A_F' dual to restriction of families."""

    __slots__ = ("source", "target", "matrix", "restriction")

    def __init__(self, source, target, matrix, restriction):
        self.source = source
        self.target = target
        self.matrix = matrix
        self.restriction = restriction

    def apply(self, coords):
        return self.matrix.apply(coords)


def transition_map(rep, EF: EndAlgebra, EG: EndAlgebra,
                   AF=None, AG=None) -> TransitionMap:
    """Transition A_F -> A_G for subdiagrams F <= G.

    Computed as the transpose of the restriction End(T|_G) -> End(T|_F);
    verified to be a coalgebra morphism and to intertwine the canonical
    coactions at every vertex of F.  The coaction identity
    (t (x) id) rho_F = rho_G is checked as t times the row blocks of rho_F,
    and comultiplication by _comultiplicative, both without Kronecker products.
    """
    if not EF.sub.is_subset_of(EG.sub):
        raise InputError("transition requires nested subdiagrams")
    if AF is None:
        AF = EF.coalgebra()
    if AG is None:
        AG = EG.coalgebra()
    cols = []
    for i in range(EG.dim):
        flat = []
        col = EG.basis.col(i)
        for v in EF.order:
            r = rep.rank(v)
            off = EG.offsets[v]
            flat.extend(col[off:off + r * r])
        coords = EF.coordinates(tuple(flat))
        if coords is None:
            raise AxiomViolation("restricted family escapes the smaller algebra")
        cols.append(coords)
    restriction = Matrix.from_columns(rep.ring, cols, rows=EF.dim)
    t = restriction.transpose()
    # coalgebra morphism: Delta' t = (t (x) t) Delta ; eps' t = eps
    if not _comultiplicative(t, AG, AF):
        raise AxiomViolation("transition fails comultiplication compatibility")
    if AG.counit * t != AF.counit:
        raise AxiomViolation("transition fails counit compatibility")
    for v in EF.order:
        r = rep.rank(v)
        rho_f = coaction(rep, EF.sub, v, EF, AF).rho
        rho_g = coaction(rep, EG.sub, v, EG, AG).rho
        if t * _block_rows(rho_f, EF.dim, r) != _block_rows(rho_g, EG.dim, r):
            raise AxiomViolation("transition fails coaction compatibility at %r" % (v,))
    return TransitionMap(AF, AG, t, restriction)


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

    (i) comodule axioms for every canonical coaction, (ii) every edge map is
    a comodule morphism, (iii) forgetting coactions returns the original
    modules.  The identities are checked exactly by contracting the sparse
    structure tensor, and rho_dst m = (id (x) m) rho_src by _intertwines.
    """
    if E is None:
        E = end_algebra(rep, sub)
    A = E.coalgebra()
    violations = []
    checked = 0
    coactions = {}
    for v in sub.vertices:
        co = coaction(rep, sub, v, E, A)
        coactions[v] = co
        coassoc, counit = check_coaction_axioms(co)
        checked += 2
        if not coassoc:
            violations.append("coassociativity fails at vertex %r" % (v,))
        if not counit:
            violations.append("counit fails at vertex %r" % (v,))
        if co.module != rep.module(v):
            violations.append("underlying module changed at %r" % (v,))
        checked += 1
    for (name, src, dst, _kind) in sub.edges:
        checked += 1
        if not _intertwines(rep.edge_map(name).matrix, coactions[src].rho,
                            coactions[dst].rho, A.rank):
            violations.append("edge %r is not a comodule morphism" % (name,))
    return FactorizationCert(violations, checked)
