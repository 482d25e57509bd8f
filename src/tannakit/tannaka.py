"""Diagram representations and their Tannakian truncation data.

A diagram is a finite directed graph; a representation assigns a f.g. module
to each vertex and a module map to each edge.  For a finite subdiagram F with
free vertices, end_algebra computes the algebra of edge-compatible
endomorphism families inside the product of the vertex endomorphism rings;
its dual carries the coalgebra structure, every vertex module the canonical
comodule rho(x) = sum_i e_i* (x) (e_i . x), built once per End algebra and
vertex, and inclusions of subdiagrams dualize to transition maps.  Bases are
canonical (Hermite over Z, reduced echelon over Q), each from one kernel
call, and every coordinate in them (the unit, coordinates(), the products of
basis families, transition maps) is read by the End algebra's one
linalg._Solver at the basis pivots.  Comodule is the one comodule type.
The coalgebra and comodule axioms, the comodule morphism identities and
the coalgebra morphism check of transitions and bialgebra products
(_coalgebra_morphism) add both sides of each column into one dict by
linalg._tensor_apply, over Q in integers scaled by common denominators; the
dense comultiplication is built only when read.
PairsContext is a pairs diagram with its product registrations and its End
algebra and tau caches; it is here and not in tannakit.bialgebra so that the
diagram commands that take no product never load that module.
"""

from math import lcm

from .errors import (
    AxiomViolation, DimensionMismatch, InputError, MissingProducts, NonFreeVertex, NotNested,
)
from .linalg import (
    QQ, ZZ, FgModule, Matrix, ModuleMap, _coerce, _nonzero_columns, _order_relations, _Solver,
    _tensor_apply, elementary_divisors, kernel,
)
from .simplicial import induced_map_on_homology, product_pair, relative_homology, triple_boundary

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
    echelon basis, read off the kernel of the constraint matrix taken
    backwards.  In both forms each basis column has a pivot, its first
    nonzero row, where every later column is zero (and over Q every other
    column).  One _Solver on the basis, kept, reads every coordinate in it:
    the unit, coordinates(), the structure constants of sparse products,
    the restricted families of transition_map and the two solves of
    bialgebra.product_on_truncations.  Structure constants, the dual
    coalgebra and the canonical comodule at each vertex are computed on
    first use and kept.
    """

    __slots__ = ("rep", "sub", "ring", "order", "offsets", "total", "basis",
                 "unit", "_solver", "_structure", "_coalgebra", "_comodules")

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
        if rows and self.ring == ZZ:
            basis = kernel(Matrix(ZZ, rows, len(rows), self.total))    # Hermite
        elif rows:
            # the free-column kernel basis of the matrix read backwards (rows
            # and columns), read backwards, is the reduced column echelon basis
            K = kernel(Matrix(QQ, [r[::-1] for r in rows[::-1]], len(rows), self.total))
            basis = Matrix(QQ, [r[::-1] for r in K.data[::-1]], K.rows, K.cols)
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
        self._structure = self._coalgebra = None
        self._comodules = {}

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

        Each family is kept as the sparse rows of its vertex blocks, from the
        integer columns w_k = s_k e_k that the basis's _Solver keeps, and only
        the pairs whose blocks meet are multiplied.  The solver reads
        w_i w_j / (s_i s_j) at the basis pivots; a product outside the span
        raises AxiomViolation.
        """
        if self._structure is not None:
            return self._structure
        solver = self._solver
        cols, scales = solver.columns, solver.scales
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
                table[i, j] = coords
        self._structure = table
        return table

    def coalgebra(self):
        """The dual coalgebra, built by dual_coalgebra on first use."""
        if self._coalgebra is None:
            self._coalgebra = dual_coalgebra(self)
        return self._coalgebra

    def comodule(self, v):
        """The canonical comodule at vertex v, built on first use: row (i, a)
        of rho is row a of e_i's block at v, read off the basis rows."""
        co = self._comodules.get(v)
        if co is None:
            r, off, rows = self.rep.rank(v), self.offsets[v], self.basis.data
            rho = [[rows[off + a * r + b][i] for b in range(r)]
                   for i in range(self.dim) for a in range(r)]
            co = self._comodules[v] = Comodule(
                self.coalgebra(), (0,) * r, Matrix(self.ring, rho, self.dim * r, r))
        return co

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


def _vanishes(diff, r, orders, scale=1):
    """Whether every entry of diff {row: x}, scale times an exact difference,
    is zero, or divisible by scale * orders[row % r] (the order of the row's
    generator; 0 when free)."""
    if not any(orders or ()):
        return not any(diff.values())
    return all(x % (scale * orders[i % r]) == 0 if orders[i % r] else x == 0
               for i, x in diff.items())


def _coassociative(delta, rho, n, r, orders=None, scales=(1, 1)):
    """(Delta (x) id) rho == (id (x) rho) rho, one column of rho at a time.

    delta and rho are the _nonzero_columns of the n^2 x n comultiplication
    and of an (n r) x r coaction (rows (i, a) -> i * r + a); both sides of
    each column go into one dict by _tensor_apply.  With scales (R, D),
    delta and rho are integer columns D Delta and R rho, and
    R (D Delta (x) id)(R rho) is compared with D (id (x) R rho)(R rho): both
    sides carry R^2 D.  With orders (one per generator) the identity holds
    modulo the order of each row's generator.
    """
    R, D = scales
    for col in rho:
        diff = _tensor_apply(delta, None, r, r, col, R)
        _tensor_apply(None, rho, n * r, r, col, -D, diff)
        if not _vanishes(diff, r, orders, R * R * D):
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


def _counit_identity(rho, eps, r, scale, left=True, orders=None):
    """(eps (x) id) rho == id, or (id (x) eps) rho == id when not left, for
    integer columns rho and an integer counit given as columns {0: eps_i},
    whose products carry the factor scale, and orders as in _coassociative."""
    a, b, nb = (eps, None, r) if left else (None, eps, 1)
    for j, col in enumerate(rho):
        if not _vanishes(_tensor_apply(a, b, nb, r, col, 1, {j: -scale}), r, orders, scale):
            return False
    return True


def _intertwines(src, dst, t=None, m=None):
    """(t (x) m) rho_src == rho_dst m modulo the orders of dst's generators,
    for a coalgebra map t and a module map m (None: an identity), column by
    column over the nonzeros, in integers: R_dst (S_t t (x) S_m m)(R_src
    rho_src) against S_t R_src (R_dst rho_dst)(S_m m), R and S the scales."""
    k = dst.ngens
    tc, st = _integer_columns(_nonzero_columns(t), t.ring) if t is not None else (None, 1)
    mc, sm = _integer_columns(_nonzero_columns(m), m.ring) if m is not None else (None, 1)
    rs, rd = src._denominator, dst._denominator
    for b, col in enumerate(src._columns):
        diff = _tensor_apply(tc, mc, k, src.ngens, col, rd)
        _tensor_apply(dst._columns, None, 1, 1, {b: 1} if mc is None else mc[b], -st * rs, diff)
        if not _vanishes(diff, k, dst.gen_orders, rd * rs * st * sm):
            return False
    return True


def _coalgebra_morphism(t, delta, counit, target):
    """(Delta_target t == (t (x) t) delta, eps_target t == counit) for a
    matrix t out of the coalgebra with comultiplication delta and counit
    given as sparse columns ({0: eps_k}), exactly, one column e_k at a time,
    both sides of it added into one dict by _tensor_apply."""
    n, tc, eps = t.rows, _nonzero_columns(t), _nonzero_columns(target.counit)
    comultiplicative = counital = True
    for k, (col, e) in enumerate(zip(delta, counit)):
        diff = _tensor_apply(target.delta_columns, None, 1, 1, tc[k], -1)
        comultiplicative = comultiplicative and not any(
            _tensor_apply(tc, tc, n, t.cols, col, 1, diff).values())
        counital = counital and _tensor_apply(eps, None, 1, 1, tc[k]).get(0, 0) == e.get(0, 0)
    return comultiplicative, counital


class CoalgebraTrunc:
    """Free coalgebra truncation: rank, comultiplication and counit.

    delta_columns is the comultiplication as sparse columns {row: entry}
    over its nonzeros, rows row-major tensor indices i * rank + j; it is the
    primary data, read by every check against this coalgebra.  The dense
    rank^2 x rank matrix delta is built from it on first read, for the
    certificates that print it.  The columns and the counit are also kept
    as integers times a common denominator (1 over Z), computed once here:
    coassociativity and the counit identities, asserted at construction,
    and the comodule checks contract those, without Fractions or Kronecker
    products.
    """

    __slots__ = ("ring", "rank", "delta_columns", "counit", "_delta",
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
        self._delta = None
        self._integer_delta, self._denominator = idelta, d = _integer_columns(cols, ring)
        if not _coassociative(idelta, idelta, rank, rank):
            raise AxiomViolation("comultiplication is not coassociative")
        self._integer_counit = eps, de = _integer_columns(_nonzero_columns(counit), ring)
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
    """rho: V -> C (x) V, an (n k) x k matrix with rows (i, a) -> i * k + a.

    gen_orders fixes the coordinate semantics of V: entry j is the order of
    generator j (0 when free).  rho is checked to be well defined on torsion
    and normalized, and its sparse columns are computed once, over Q as
    integers times their common denominator, for every identity check.
    """

    __slots__ = ("coalgebra", "gen_orders", "rho", "_columns", "_denominator")

    def __init__(self, coalgebra, gen_orders, rho):
        k, n = len(gen_orders), coalgebra.rank
        if rho.rows != n * k or rho.cols != k:
            raise DimensionMismatch(
                "coaction must be %dx%d, got %dx%d" % (n * k, k, rho.rows, rho.cols))
        orders = tuple(int(t) for t in gen_orders)
        if any(t < 0 or t == 1 for t in orders):
            raise DimensionMismatch("generator orders must be 0 or > 1")
        for j, t in enumerate(orders):
            if t and not _vanishes({i: t * row[j] for i, row in enumerate(rho.data)}, k, orders):
                raise DimensionMismatch("coaction not well defined on torsion generator %d" % j)
        if any(orders):
            rho = Matrix(rho.ring, [[x % orders[i % k] for x in row] if orders[i % k]
                                    else row for i, row in enumerate(rho.data)], n * k, k)
        self.coalgebra, self.gen_orders, self.rho = coalgebra, orders, rho
        self._columns, self._denominator = _integer_columns(_nonzero_columns(rho), rho.ring)

    @property
    def module(self) -> FgModule:
        return FgModule.cokernel(_order_relations(self.gen_orders, self.rho.ring))

    @property
    def ngens(self):
        return len(self.gen_orders)

    def axioms(self):
        """(coassociativity, counit) modulo the generator orders, in full: the
        integer columns of Delta, eps and rho contracted over their nonzeros."""
        A, k = self.coalgebra, self.ngens
        eps, de = A._integer_counit
        return (_coassociative(A._integer_delta, self._columns, A.rank, k, self.gen_orders,
                               (self._denominator, A._denominator)),
                _counit_identity(self._columns, eps, k, self._denominator * de,
                                 orders=self.gen_orders))


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
    """(coassociativity, counit) of a comodule, exactly: Comodule.axioms."""
    return co.axioms()


class TransitionMap:
    """Coalgebra morphism A_F -> A_F' dual to restriction of families."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source, target, matrix):
        self.source, self.target, self.matrix = source, target, matrix


def transition_map(rep, EF: EndAlgebra, EG: EndAlgebra) -> TransitionMap:
    """Transition A_F -> A_G for subdiagrams F <= G.

    Computed as the transpose of the restriction End(T|_G) -> End(T|_F);
    verified to be a coalgebra morphism by _coalgebra_morphism and to
    intertwine the canonical comodules at every vertex of F, (t (x) id)
    rho_F = rho_G, by _intertwines.
    """
    if not EF.sub.is_subset_of(EG.sub):
        raise InputError("transition requires nested subdiagrams")
    AF, AG = EF.coalgebra(), EG.coalgebra()
    cols, offsets = [], EG.offsets
    for i in range(EG.dim):
        col = EG.basis.col(i)
        coords = EF.coordinates(tuple(x for v in EF.order
                                      for x in col[offsets[v]:offsets[v] + rep.rank(v) ** 2]))
        if coords is None:
            raise AxiomViolation("restricted family escapes the smaller algebra")
        cols.append(coords)
    t = Matrix.from_columns(rep.ring, cols, rows=EF.dim).transpose()
    comultiplicative, counital = _coalgebra_morphism(
        t, AF.delta_columns, _nonzero_columns(AF.counit), AG)
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
    modules.  The comodules are E's, built once; the identities are checked
    exactly by contracting the sparse structure tensor, and
    rho_dst m = (id (x) m) rho_src by _intertwines.
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
    registered pair must literally equal product_pair of the factors.
    """

    def __init__(self, diagram, rep, products=None, circle=None):
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
            if pvw != product_pair(pv, pw):
                raise InputError("vertex %r is not the staircase product of %r, %r"
                                 % (vw, v, w))

    def end(self, sub):
        key = (sub.vertices, tuple(e[0] for e in sub.edges))
        E = self._end_cache.get(key)
        if E is None:
            E = end_algebra(self.rep, sub)
            self._end_cache[key] = E
        return E

    def coalgebra(self, sub):
        return self.end(sub).coalgebra()

    def product_vertex(self, v, w):
        vw = self.products.get((v, w))
        if vw is None:
            raise MissingProducts("no product vertex registered for (%r, %r)" % (v, w))
        return vw

    def tau(self, v, w):
        key = (v, w)
        t = self._tau_cache.get(key)
        if t is None:
            from .bialgebra import kunneth_tau
            t = kunneth_tau(self, v, w)
            self._tau_cache[key] = t
        return t
