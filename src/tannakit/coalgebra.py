"""Dual coalgebras and comodules of End algebras: the structure constants
of an End algebra, its dual coalgebra truncation, the canonical comodule
rho(x) = sum_i e_i* (x) (e_i . x) at each vertex, the comodule axioms and
the comodule morphism identity, with the coalgebra and coaction commands.

The comultiplication, the counit and the canonical comodules are kept as
sparse columns {row: entry} from start to finish, filled straight from the
structure constants, the unit and the basis columns, and the commands
print those columns.  The coalgebra and comodule axioms and the comodule
morphism identities add both sides of each column into one dict by
maps._tensor_apply, over Q in integers scaled by common denominators
(maps._integer_columns).  Comodule is the one comodule type, and keeps its axioms and
its module once computed.

EndAlgebra's methods structure_constants, coalgebra and comodule keep
what structure_constants, dual_coalgebra and canonical_comodule here
build.
"""

from math import lcm

from .errors import AxiomViolation, DimensionMismatch, InputError
from .linalg import QQ, ZZ, FgModule, _compose, _integral
from .maps import _integer_columns, _nonzero_columns, _order_relations, _tensor_apply
from .matrix import Matrix, _coerce, jmatrix
from .tannaka import EndAlgebra, end_algebra


# -- the coalgebra of an End algebra ------------------------------------------

def structure_constants(E):
    """{(i, j): {k: c_ij^k}}: the coordinates of e_i * e_j over their
    nonzeros, for every pair whose product is not zero, which
    EndAlgebra.structure_constants keeps.

    Each family is kept as the sparse rows of its vertex blocks, from the
    integer columns w_k = s_k e_k of the basis, and only the pairs whose
    blocks meet are multiplied.  The solver reads w_i w_j / (s_i s_j) (in
    its image basis, taken back by T, when it set T); a product outside
    the span raises AxiomViolation.
    """
    solver = E._solver
    cols, scales = solver.columns, solver.scales     # w_k and s_k, unless T is set
    if solver.T is not None:
        cols = _integral(E.basis_columns)
        scales = [lcm(*(x.denominator for x in c.values())) for c in E.basis_columns]
    # flat index -> (vertex, row, column) of its block
    layout, where = [], []
    for vi, v in enumerate(E.order):
        r = E.rep.rank(v)
        layout.append((E.offsets[v], r))
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
    return table


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


def canonical_comodule(E, v):
    """The canonical comodule at vertex v, which EndAlgebra.comodule
    keeps: row (i, a) of rho's column b is entry (a, b) of e_i's block at
    v, read off the basis columns."""
    r, off = E.rep.rank(v), E.offsets[v]
    rho = [{} for _ in range(r)]
    for i, col in enumerate(E.basis_columns):
        for idx, x in col.items():
            if off <= idx < off + r * r:
                a, b = divmod(idx - off, r)
                rho[b][i * r + a] = x
    return Comodule(E.coalgebra(), (0,) * r, rho)


# -- axioms and morphisms, as sparse contractions -----------------------------

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
    orders over Z), for a coalgebra map t and a module map m (None: an
    identity), both sparse columns, column by column over the nonzeros, in
    integers: R_dst (S_t t (x) S_m m)(R_src rho_src) against
    S_t R_src (R_dst rho_dst)(S_m m)."""
    k, ring = dst.ngens, dst.coalgebra.ring
    tc, st = _integer_columns(t, ring) if t is not None else (None, 1)
    mc, sm = _integer_columns(m, ring) if m is not None else (None, 1)
    rs, rd = src._denominator, dst._denominator
    for b, col in enumerate(src._columns):
        diff = _tensor_apply(tc, mc, k, src.ngens, col, rd)
        _tensor_apply(dst._columns, None, 1, 1, {b: 1} if mc is None else mc[b], -st * rs, diff)
        if not _vanishes(diff, k, dst.gen_orders, rd * rs * st * sm, ring):
            return False
    return True


# -- coalgebras and comodules -------------------------------------------------

class CoalgebraTrunc:
    """Free coalgebra truncation: rank, comultiplication and counit.

    delta_columns is the comultiplication as sparse columns {row: entry}
    over its nonzeros, rows row-major tensor indices i * rank + j; it and
    counit_columns ({0: eps_k} over the nonzeros) are the data, read by
    every check against this coalgebra, and the coalgebra command prints.
    The columns and the counit are also kept as integers times a common
    denominator (1 over Z), computed once here: coassociativity and the
    counit identities, asserted at construction, and the comodule checks
    contract those, without Fractions or Kronecker products.
    """

    __slots__ = ("ring", "rank", "delta_columns", "counit_columns", "_integer_delta",
                 "_denominator", "_integer_counit")

    def __init__(self, ring, rank, delta_columns, counit_columns):
        n2 = rank * rank
        if (len(delta_columns) != rank
                or any(not 0 <= i < n2 for col in delta_columns for i in col)):
            raise AxiomViolation("comultiplication has wrong shape")
        if len(counit_columns) != rank or any(i != 0 for col in counit_columns for i in col):
            raise AxiomViolation("counit matrix has wrong shape")
        self.ring = ring
        self.rank = rank
        self.delta_columns = cols = delta_columns
        self.counit_columns = counit_columns
        self._integer_delta, self._denominator = idelta, d = _integer_columns(cols, ring)
        if not _coassociative(idelta, idelta, rank, rank):
            raise AxiomViolation("comultiplication is not coassociative")
        self._integer_counit = eps, de = _integer_columns(self.counit_columns, ring)
        if not (_counit_identity(idelta, eps, rank, d * de)
                and _counit_identity(idelta, eps, rank, d * de, left=False)):
            raise AxiomViolation("counit identities fail")

    def grouplike_defect(self, coords):
        """Delta(x) - x (x) x for an element given by coordinates."""
        out = [-a * b for a in coords for b in coords]
        for a, col in zip(coords, self.delta_columns):
            if a:
                for i, d in col.items():
                    out[i] += a * d
        return Matrix.column(self.ring, out)

    def counit_of(self, coords):
        return _coerce(self.ring, sum(e.get(0, 0) * a
                                      for e, a in zip(self.counit_columns, coords) if a))

    def __eq__(self, other):
        return (isinstance(other, CoalgebraTrunc) and self.ring == other.ring
                and self.rank == other.rank and self.counit_columns == other.counit_columns
                and self.delta_columns == other.delta_columns)

    def __hash__(self):
        return hash((self.ring, self.rank,
                     tuple(frozenset(col.items())
                           for col in self.counit_columns + self.delta_columns)))


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
    return CoalgebraTrunc(E.ring, n, cols, [{0: u} if u else {} for u in E.unit])


class Comodule:
    """rho: V -> C (x) V, an (n k) x k map with rows (i, a) -> i * k + a,
    given as its sparse columns {row: entry} or as a dense Matrix.

    gen_orders fixes the coordinate semantics of V: entry j is the order of
    generator j (0 when free).  rho is checked to be well defined on torsion
    and normalized: over Z its entries are reduced modulo the order of their
    row's generator, over Q a generator of order t > 1 is zero, and so are
    its rows.  It is kept as its sparse columns, columns, and, over Q as
    integers times their common denominator, for every identity check.

    A Comodule is not changed once built, so what is computed from it is
    computed once and kept: axioms(), read by check_coaction_axioms,
    factorization_check and comodule.check_comodule_axioms alike, and the
    underlying module.
    """

    __slots__ = ("coalgebra", "gen_orders", "columns", "_columns", "_denominator", "_axioms",
                 "_module")

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
        self.coalgebra, self.gen_orders, self.columns = coalgebra, orders, rho
        self._columns, self._denominator = _integer_columns(rho, ring)
        self._axioms = self._module = None

    @property
    def module(self) -> FgModule:
        """The underlying module, built on first read: free of rank ngens
        when every order is 0, else the cokernel of the order relations."""
        if self._module is None:
            ring = self.coalgebra.ring
            self._module = (FgModule.cokernel(ring, _order_relations(self.gen_orders), self.ngens)
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


def cmd_coalgebra(corpus, ring, args):
    """The coalgebra command: a subdiagram's dual coalgebra truncation."""
    ctx, sub = corpus.subdiagram(args.subdiagram, ring)
    A = ctx.coalgebra(sub)
    return {"subdiagram": args.subdiagram, "rank": A.rank,
            "delta": jmatrix(A.delta_columns, A.rank * A.rank),
            "counit": jmatrix(A.counit_columns, 1),
            "axioms": "asserted at construction"}, True


def cmd_coaction(corpus, ring, args):
    """The coaction command: the canonical coaction at a vertex, with its
    axiom flags."""
    ctx, sub = corpus.subdiagram(args.subdiagram, ring)
    co = coaction(ctx.rep, sub, args.vertex, ctx.end(sub), ctx.coalgebra(sub))
    coassoc, counit = check_coaction_axioms(co)
    return {"subdiagram": args.subdiagram, "vertex": args.vertex,
            "rho": jmatrix(co.columns, co.coalgebra.rank * co.ngens), "coassociative": coassoc,
            "counital": counit}, coassoc and counit
