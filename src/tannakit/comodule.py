"""Comodules over free coalgebra truncations: axiom checking, extended
comodules, tensor comodules over a bialgebra fragment, and the torsion-free
cover obtained as a pullback against a free presentation.

Coordinates: a comodule carries explicit generator orders (0 = free, t > 1 =
torsion of order t); its underlying FgModule is the normalized value.  All
axiom identities are verified as matrix identities modulo the torsion of the
target, which is exact equality in the free case.
"""

from math import gcd

from .errors import CompositionNonzero, DimensionMismatch, MissingProducts
from .linalg import (
    FgModule, Matrix, ZZ, _nonzero_columns, _order_relations, _Solver,
    presented_subquotient, tensor_swap,
)
from .tannaka import CoalgebraTrunc, _coassociative, _counit_identity, _intertwines


def _entry_ok(x, order):
    if order:
        return x % order == 0
    return x == 0


class ComodCert:
    __slots__ = ("failures", "checked")

    def __init__(self, failures, checked):
        self.failures = tuple(failures)
        self.checked = checked

    @property
    def ok(self):
        return not self.failures

    def as_dict(self):
        return {"ok": self.ok, "checked": self.checked,
                "failures": list(self.failures)}


class Comodule:
    """rho: V -> C (x) V over a free coalgebra truncation.

    gen_orders fixes the coordinate semantics of V: entry j is the
    annihilator of generator j (0 for a free generator).  Well-definedness of
    rho on torsion is checked at construction and entries are normalized.
    """

    __slots__ = ("coalgebra", "gen_orders", "rho")

    def __init__(self, coalgebra, gen_orders, rho):
        k = len(gen_orders)
        r = coalgebra.rank
        if rho.rows != r * k or rho.cols != k:
            raise DimensionMismatch(
                "coaction must be %dx%d, got %dx%d" % (r * k, k, rho.rows, rho.cols))
        orders = tuple(int(t) for t in gen_orders)
        if any(t < 0 or t == 1 for t in orders):
            raise DimensionMismatch("generator orders must be 0 or > 1")
        row_orders = [orders[g] for _ in range(r) for g in range(k)]
        for j, t in enumerate(orders):
            if t == 0:
                continue
            for row in range(r * k):
                if not _entry_ok(t * rho[row, j], row_orders[row]):
                    raise DimensionMismatch(
                        "coaction not well defined on torsion generator %d" % j)
        data = [list(rho.row(i)) for i in range(rho.rows)]
        for row in range(r * k):
            t = row_orders[row]
            if t:
                data[row] = [x % t for x in data[row]]
        self.coalgebra = coalgebra
        self.gen_orders = orders
        self.rho = Matrix(rho.ring, data, rho.rows, rho.cols)

    @property
    def module(self) -> FgModule:
        return FgModule.cokernel(_order_relations(self.gen_orders, self.rho.ring))

    @property
    def ngens(self):
        return len(self.gen_orders)


def check_comodule_axioms(m: Comodule) -> ComodCert:
    """Coassociativity and counit as exact identities (mod target torsion),
    contracted over the nonzeros of Delta and rho with no Kronecker."""
    A = m.coalgebra
    rho = _nonzero_columns(m.rho)
    failures = []
    if not _coassociative(A.delta_columns, rho, A.rank, m.ngens, m.gen_orders):
        failures.append("coassociativity: (Delta (x) id) rho != (id (x) rho) rho")
    if not _counit_identity(rho, A.counit.row(0), m.ngens, orders=m.gen_orders):
        failures.append("counit: (eps (x) id) rho != id")
    return ComodCert(failures, 2)


def is_comodule_morphism(src: Comodule, dst: Comodule, matrix) -> bool:
    """rho_dst o f = (id_C (x) f) o rho_src, modulo target torsion."""
    if src.coalgebra != dst.coalgebra:
        return False
    return _intertwines(matrix, src.rho, dst.rho, src.coalgebra.rank,
                        dst.gen_orders)


def extended_comodule(C: CoalgebraTrunc, E: FgModule) -> Comodule:
    """C (x) E with coaction Delta (x) id; generators in kron order."""
    orders_e = list(E.torsion) + [0] * E.free_rank
    return extended_on_orders(C, orders_e)


def extended_on_orders(C: CoalgebraTrunc, orders_e) -> Comodule:
    k = len(orders_e)
    orders = [orders_e[j] for _ in range(C.rank) for j in range(k)]
    rho = C.delta.kron(Matrix.identity(C.ring, k))
    m = Comodule(C, orders, rho)
    cert = check_comodule_axioms(m)
    if not cert.ok:
        raise AssertionError("extended comodule fails its axioms: %s" % (cert.failures,))
    return m


def canonical_embedding(m: Comodule):
    """(extended comodule on V(m), the map rho as a comodule morphism).

    The coaction is itself the canonical map of m into the extended comodule
    on its underlying module; it is injective (split by the counit).
    """
    ext = extended_on_orders(m.coalgebra, list(m.gen_orders))
    if not is_comodule_morphism(m, ext, m.rho):
        raise AssertionError("the coaction is not a comodule morphism")
    return ext, m.rho


def presented_kernel_is_zero(matrix, src_orders, tgt_orders, ring=ZZ):
    """Whether ker of a map of presented modules vanishes."""
    try:
        return presented_subquotient(
            Matrix.zeros(ring, len(src_orders), 0), _order_relations(src_orders, ring),
            matrix, _order_relations(tgt_orders, ring)).module.is_zero()
    except CompositionNonzero:
        return False


class TorsionfreeCover:
    """Pullback cover E' of a comodule: epi onto E, embedding into C (x) F."""

    __slots__ = ("cover", "surjection", "embedding", "source", "extended")

    def __init__(self, cover, surjection, embedding, source, extended):
        self.cover = cover
        self.surjection = surjection
        self.embedding = embedding
        self.source = source
        self.extended = extended


def torsionfree_cover(C: CoalgebraTrunc, m: Comodule) -> TorsionfreeCover:
    """Torsion-free comodule cover via the pullback of rho against the free
    presentation C (x) Z^k -> C (x) E.

    The free module is taken on the finite generating set of E (not on all
    its elements); the pullback's comodule structure is re-derived and
    re-checked, and the epi/mono properties verified by Smith reduction.
    """
    if C.ring != ZZ:
        raise DimensionMismatch("torsion-free covers live over Z")
    if m.coalgebra != C:
        raise DimensionMismatch("comodule is not over the given coalgebra")
    k = m.ngens
    r = C.rank
    amb = k + r * k                    # generators of E (+) (C (x) F)
    amb_orders = list(m.gen_orders) + [0] * (r * k)
    tgt_orders = list(m.gen_orders) * r    # rows of C (x) E
    # difference map: (e, y) |-> rho(e) - (id (x) eta)(y); eta is the
    # identity on generators, so the second block is minus the identity
    diff = m.rho.hstack(Matrix.identity(ZZ, r * k).scale(-1))
    try:
        pullback = presented_subquotient(Matrix.zeros(ZZ, amb, 0), _order_relations(amb_orders),
                                         diff, _order_relations(tgt_orders))
    except CompositionNonzero:
        raise AssertionError("ambient relation escapes the pullback") from None
    mod = pullback.module
    if mod.torsion:
        raise AssertionError("pullback of a coaction against a free cover has torsion")
    lifts = Matrix.from_columns(       # columns: ambient coords of generators
        ZZ, [pullback.lift(j) for j in range(mod.ngens)], rows=amb)
    surj = lifts.take_rows(range(k))
    embed = lifts.take_rows(range(k, amb))

    # re-derive the coaction on the pullback
    q_cols = []
    ext_free = extended_on_orders(C, [0] * k)
    gens_cp = Matrix.identity(ZZ, r).kron(lifts)
    # target rows: C (x) (E (+) C (x) F) with orders per ambient generator
    cp_orders = amb_orders * r
    qsolver = _Solver(gens_cp.hstack(_order_relations(cp_orders)))
    for j in range(mod.ngens):
        lift = lifts.col(j)
        e_part = lift[:k]
        y_part = lift[k:]
        qe = m.rho.apply(e_part)
        qy = ext_free.rho.apply(y_part)
        q = []
        for i in range(r):
            q.extend(qe[i * k:(i + 1) * k])
            q.extend(qy[i * (r * k):(i + 1) * (r * k)])
        sol = qsolver.solve(tuple(q))
        if sol is None:
            raise AssertionError("derived coaction escapes C (x) E'")
        q_cols.append(tuple(sol[:r * mod.ngens]))
    rho_p = Matrix.from_columns(ZZ, q_cols, rows=r * mod.ngens)
    cover = Comodule(C, [0] * mod.ngens, rho_p)
    cert = check_comodule_axioms(cover)
    if not cert.ok:
        raise AssertionError("pullback comodule fails axioms: %s" % (cert.failures,))
    if not is_comodule_morphism(cover, m, surj):
        raise AssertionError("surjection is not a comodule morphism")
    if not is_comodule_morphism(cover, ext_free, embed):
        raise AssertionError("embedding is not a comodule morphism")
    # epi: E / im(surj) = 0
    if not FgModule.cokernel(surj.hstack(_order_relations(m.gen_orders))).is_zero():
        raise AssertionError("cover fails to surject onto the comodule")
    # mono: kernel of the embedding vanishes
    if not presented_kernel_is_zero(embed, [0] * mod.ngens,
                                    [0] * (r * k)):
        raise AssertionError("cover fails to embed into the extended comodule")
    return TorsionfreeCover(cover, surj, embed, m, ext_free)


def tensor_comodules(m: Comodule, n: Comodule, mu) -> Comodule:
    """Tensor comodule over a bialgebra fragment mu: A_F (x) A_G -> A_H.

    rho = (mu (x) id) o (swap middle) o (rho_m (x) rho_n); generator (a, b)
    has order gcd of the factor orders.
    """
    CF = mu.EF.coalgebra()
    CG = mu.EG.coalgebra()
    if m.coalgebra != CF or n.coalgebra != CG:
        raise MissingProducts("fragment does not cover the comodule coalgebras")
    CH = mu.EH.coalgebra()
    ring = CH.ring
    rF, rG = CF.rank, CG.rank
    km, kn = m.ngens, n.ngens
    # rows (i, a, j, b) of rho_m (x) rho_n reordered to (i, j, a, b)
    swapped = m.rho.kron(n.rho).take_rows(tensor_swap(rF, km, rG, kn))
    rho = mu.matrix.kron(Matrix.identity(ring, km * kn)) * swapped
    orders = [gcd(s, t) for s in m.gen_orders for t in n.gen_orders]
    out = Comodule(CH, orders, rho)
    cert = check_comodule_axioms(out)
    if not cert.ok:
        raise AssertionError("tensor comodule fails axioms: %s" % (cert.failures,))
    return out
