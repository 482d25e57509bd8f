"""Diagram representations and their Tannakian truncation data.

A diagram is a finite directed graph; a representation assigns a f.g. module
to each vertex and a module map to each edge.  For a finite subdiagram F with
free vertices, end_algebra computes the algebra of edge-compatible
endomorphism families inside the product of the vertex endomorphism rings;
its dual carries the coalgebra structure, every vertex module the canonical
coaction rho(x) = sum_i e_i* (x) (e_i . x), and inclusions of subdiagrams
dualize to transition maps.  Bases are canonical: Hermite over Z, reduced
echelon over Q, so the coordinates of a product of basis families are read
at the basis pivots and checked by one sparse integer residual.  The
coalgebra's sparse columns delta_columns are its primary data, its dense
comultiplication matrix is built only when read, and over Q its axioms are
contracted in integers, the columns scaled by their common denominator.
"""

from fractions import Fraction
from math import lcm

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
    In both forms each basis column has a pivot, its first nonzero row,
    where every later column is zero (and over Q every other column).
    Structure constants, read at those pivots from sparse products, and
    the dual coalgebra are computed on first use; coordinates() solves any
    other family against the basis.
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
        """{(i, j): {k: c_ij^k}}: the coordinates of e_i * e_j over their
        nonzeros, for every pair whose product is not zero.

        Each family is kept as the sparse rows of its vertex blocks, over Q
        scaled to a primitive integer column w_k = s_k e_k, and only the
        pairs whose blocks meet are multiplied.  Coordinates are read at the
        basis pivots and checked by one integer residual (_pivot_entries
        over Q, _hermite_coordinates over Z); a product outside the span
        raises AxiomViolation.
        """
        if self._structure is not None:
            return self._structure
        cols = _nonzero_columns(self.basis)
        if self.ring == QQ:
            scales = [lcm(*(x.denominator for x in col.values())) for col in cols]
            cols = [{i: x.numerator * (s // x.denominator) for i, x in col.items()}
                    for s, col in zip(scales, cols)]
            big = lcm(*scales)
            lifts = [big // s for s in scales]
        pivots = {min(col): k for k, col in enumerate(cols)}
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
                if self.ring == QQ:
                    coords = _pivot_entries(prod, pivots, cols, big, lifts,
                                            scales[i] * scales[j])
                else:
                    coords = _hermite_coordinates(prod, pivots, cols)
                if coords is None:
                    raise AxiomViolation(
                        "product of basis families %d,%d escapes the span" % (i, j))
                table[i, j] = coords
        self._structure = table
        return table

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


def _pivot_entries(prod, pivots, cols, big, lifts, denom):
    """Coordinates {k: Fraction} of prod / denom in the Q basis e_k =
    cols[k] / s_k (reduced echelon, cols primitive integer), or None.

    The coordinate at pivot row p_k is prod[p_k] / denom.  It is exact iff
    L prod = sum_k prod[p_k] (L / s_k) cols[k], with L the lcm of the s_k
    and lifts[k] = L / s_k: one integer residual, checked here."""
    coords, res = {}, {c: big * x for c, x in prod.items()}
    for c, x in prod.items():
        k = pivots.get(c)
        if k is None:
            continue
        coords[k] = Fraction(x, denom)
        f = x * lifts[k]
        for i, w in cols[k].items():
            res[i] = res.get(i, 0) - f * w
    if any(res.values()):
        return None
    return coords


def _hermite_coordinates(prod, pivots, cols):
    """Coordinates {k: int} of prod in the integer basis cols (Hermite, each
    column's pivot its first nonzero row), or None: exact divmod steps in
    ascending pivot order, at the pivots where the running residual is
    nonzero; a remainder or a residual entry off the pivots means prod is
    not in the lattice."""
    coords, res = {}, dict(prod)
    while res:
        c = min(res)
        k = pivots.get(c)
        if k is None:
            return None
        col = cols[k]
        q, rem = divmod(res[c], col[c])
        if rem:
            return None
        coords[k] = q
        for i, w in col.items():
            v = res.get(i, 0) - q * w
            if v:
                res[i] = v
            else:
                res.pop(i, None)
    return coords


def _vanishes(diff, r, orders):
    """Whether every entry of diff {row: x} is zero, or divisible by
    orders[row % r] (the order of the row's generator; 0 when free)."""
    if orders is None:
        return not any(diff.values())
    return all(x % orders[i % r] == 0 if orders[i % r] else x == 0
               for i, x in diff.items())


def _coassociative(delta, rho, n, r, orders=None, scales=(1, 1)):
    """(Delta (x) id) rho == (id (x) rho) rho, one column of rho at a time.

    delta and rho are the _nonzero_columns of the n^2 x n comultiplication
    and of an (n r) x r coaction (rows (i, a) -> i * r + a); the difference
    of the sides is summed over nonzero products only, with no Kronecker.
    With scales (R, D), delta and rho are integer columns D Delta and R rho,
    and R (D Delta (x) id)(R rho) is compared with D (id (x) R rho)(R rho):
    both sides carry R^2 D, so this is the identity itself, in integers.
    With orders (one per generator a) the identity holds modulo the order
    of each row's generator.
    """
    R, D = scales
    for col in rho:
        diff = {}
        for ia, c in col.items():
            i, a = divmod(ia, r)
            cr, cd = c * R, c * D
            for pq, d in delta[i].items():
                diff[pq * r + a] = diff.get(pq * r + a, 0) + cr * d
            for jb, d in rho[a].items():
                diff[i * n * r + jb] = diff.get(i * n * r + jb, 0) - cd * d
        if not _vanishes(diff, r, orders):
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
    """Free coalgebra truncation: rank, comultiplication and counit.

    delta_columns is the comultiplication as sparse columns {row: entry}
    over its nonzeros, rows row-major tensor indices i * rank + j; it is the
    primary data, read by every check against this coalgebra.  The dense
    rank^2 x rank matrix delta is built from it on first read, for the
    certificates that print it and the checks that still multiply densely.
    The columns are also
    kept as integers times a common denominator D (D = 1 over Z), computed
    once here: coassociativity, asserted at construction, and the coaction
    checks contract those integer columns, without Fractions or Kronecker
    products.  The counit identities are asserted at construction too.
    """

    __slots__ = ("ring", "rank", "delta_columns", "counit", "_delta",
                 "_integer_delta", "_denominator")

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
        self._delta = None
        self._integer_delta, self._denominator = _integer_columns(cols, ring)
        if not _coassociative(self._integer_delta, self._integer_delta, rank, rank):
            raise AxiomViolation("comultiplication is not coassociative")
        eps = counit.row(0)
        if not (_counit_identity(cols, eps, rank)
                and _counit_identity(cols, eps, rank, left=False)):
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
        x = Matrix.column(self.ring, coords).col(0)
        out = [-a * b for a in x for b in x]
        for a, col in zip(x, self.delta_columns):
            if a:
                for i, d in col.items():
                    out[i] += a * d
        return Matrix.column(self.ring, out)

    def counit_of(self, coords):
        return (self.counit * Matrix.column(self.ring, coords))[0, 0]

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
    of rho, one column of rho at a time.  Over Q coassociativity contracts
    the coalgebra's integer columns D Delta with R rho, R the lcm of rho's
    denominators, as integers.
    """
    A = co.coalgebra
    r = co.rho.cols
    if co.rho.rows != A.rank * r:
        raise ValueError("coaction matrix does not fit its coalgebra")
    rho = _nonzero_columns(co.rho)
    irho, scale = _integer_columns(rho, A.ring)
    return (_coassociative(A._integer_delta, irho, A.rank, r,
                           scales=(scale, A._denominator)),
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
