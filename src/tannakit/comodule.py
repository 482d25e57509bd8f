"""Comodules over free coalgebra truncations: axiom checking, extended
comodules, tensor comodules over a bialgebra fragment, and the torsion-free
cover obtained as a pullback against a free presentation.

Comodule is tannaka.Comodule, re-exported: the canonical comodule at a
diagram vertex and an explicit one are the same type.  A comodule carries
explicit generator orders (0 = free, t > 1 = torsion of order t); its
underlying FgModule is the normalized value (over Q a torsion generator is
zero).  The axioms and the morphism identity are sparse contractions modulo
the torsion of the target (Comodule.axioms, computed once per comodule, and
tannaka._intertwines), exact equality in the free case.
The tensor comodule's rho and the cover's generators are sparse columns
built by maps._tensor_apply and _swapped_tensor, with no Kronecker matrix.
"""

from math import gcd

from .errors import CompositionNonzero, DimensionMismatch, MissingProducts
from .linalg import FgModule, Matrix, ZZ, _nonzero_columns
from .maps import (
    _order_relations, _Solver, _swapped_tensor, _tensor_apply, presented_subquotient,
)
from .tannaka import CoalgebraTrunc, Comodule, _intertwines


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


def check_comodule_axioms(m: Comodule) -> ComodCert:
    """Coassociativity and counit as exact identities (mod target torsion),
    as Comodule.axioms keeps them, the result tannaka.check_coaction_axioms
    and factorization_check read too."""
    coassoc, counit = m.axioms()
    failures = []
    if not coassoc:
        failures.append("coassociativity: (Delta (x) id) rho != (id (x) rho) rho")
    if not counit:
        failures.append("counit: (eps (x) id) rho != id")
    return ComodCert(failures, 2)


def _checked(m, what):
    """m, after its axioms are re-checked: AssertionError when one fails."""
    cert = check_comodule_axioms(m)
    if not cert.ok:
        raise AssertionError("%s fails its axioms: %s" % (what, cert.failures))
    return m


def is_comodule_morphism(src: Comodule, dst: Comodule, matrix) -> bool:
    """rho_dst o f = (id_C (x) f) o rho_src, modulo target torsion."""
    if src.coalgebra != dst.coalgebra:
        return False
    if matrix.rows != dst.ngens or matrix.cols != src.ngens:
        raise DimensionMismatch("a morphism must be %dx%d" % (dst.ngens, src.ngens))
    return _intertwines(src, dst, m=matrix)


def extended_comodule(C: CoalgebraTrunc, E: FgModule) -> Comodule:
    """C (x) E with coaction Delta (x) id; generators in kron order."""
    orders_e = list(E.torsion) + [0] * E.free_rank
    return extended_on_orders(C, orders_e)


def extended_on_orders(C: CoalgebraTrunc, orders_e) -> Comodule:
    """C (x) E on generators of the given orders: rho = Delta (x) id, whose
    column (p, j) is column p of Delta on the rows (i, q, j)."""
    k = len(orders_e)
    rho = [{iq * k + j: d for iq, d in col.items() if d}
           for col in C.delta_columns for j in range(k)]
    return _checked(Comodule(C, list(orders_e) * C.rank, rho), "extended comodule")


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
    # C (x) E' inside C (x) (E (+) C (x) F): the columns of 1 (x) lifts, then
    # the relations of the ambient generators' orders
    lift_cols = _nonzero_columns(lifts)
    gens_cp = [_tensor_apply(None, lift_cols, amb, mod.ngens, {x: 1})
               for x in range(r * mod.ngens)]
    qsolver = _Solver.from_sparse(
        ZZ, gens_cp + [{i: t} for i, t in enumerate(amb_orders * r) if t], r * amb)
    for j in range(mod.ngens):
        lift = lifts.col(j)
        qe, qy = m.rho.apply(lift[:k]), ext_free.rho.apply(lift[k:])
        q = []
        for i in range(r):
            q.extend(qe[i * k:(i + 1) * k])
            q.extend(qy[i * (r * k):(i + 1) * (r * k)])
        sol = qsolver.solve(tuple(q))
        if sol is None:
            raise AssertionError("derived coaction escapes C (x) E'")
        q_cols.append(tuple(sol[:r * mod.ngens]))
    rho_p = Matrix.from_columns(ZZ, q_cols, rows=r * mod.ngens)
    cover = _checked(Comodule(C, [0] * mod.ngens, rho_p), "pullback comodule")
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
    km, kn = m.ngens, n.ngens
    # rows (i, a, j, b) of rho_m (x) rho_n reordered to (i, j, a, b)
    swapped = _swapped_tensor(m.columns, n.columns, CF.rank, km, CG.rank, kn)
    rho = [{i: x for i, x in _tensor_apply(mu.columns, None, km * kn, km * kn, col).items() if x}
           for col in swapped]
    orders = [gcd(s, t) for s in m.gen_orders for t in n.gen_orders]
    return _checked(Comodule(CH, orders, rho), "tensor comodule")
