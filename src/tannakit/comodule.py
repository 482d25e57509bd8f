"""Comodules over free coalgebra truncations: axiom checking, extended
comodules, tensor comodules over a bialgebra fragment and the torsion-free
cover obtained as a pullback against a free presentation, the comodules of
a corpus, and the comodule-check and torsionfree-cover commands.

Comodule is coalgebra.Comodule, re-exported: the canonical comodule at a
diagram vertex and an explicit one are the same type.  A comodule carries
explicit generator orders (0 = free, t > 1 = torsion of order t); its
underlying FgModule is the normalized value (over Q a torsion generator is
zero).  The axioms and the morphism identity are sparse contractions modulo
the torsion of the target (Comodule.axioms, computed once per comodule, and
coalgebra._intertwines), exact equality in the free case.
Every map here is sparse columns {row: entry}: a comodule morphism, the
tensor comodule's rho, built by maps._tensor_apply and
kunneth._swapped_tensor with no Kronecker matrix, and the cover's
presentations, generators, surjection and embedding.  A comodule given by
a corpus has its rho read through a dense Matrix, which validates it.
Corpus.comodule is corpus_comodule here.
"""

from fractions import Fraction
from math import gcd

from .coalgebra import CoalgebraTrunc, Comodule, _intertwines, coaction
from .corpus import _malformed, _split_entries
from .errors import CompositionNonzero, DimensionMismatch, InputError, MissingProducts
from .linalg import FgModule, ZZ
from .linalg import _compose
from .maps import _order_relations, _Solver, _tensor_apply, presented_subquotient
from .matrix import Matrix, jmatrix


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


def is_comodule_morphism(src: Comodule, dst: Comodule, columns) -> bool:
    """rho_dst o f = (id_C (x) f) o rho_src, modulo target torsion, for f
    given by its sparse columns {row: entry}."""
    if src.coalgebra != dst.coalgebra:
        return False
    if len(columns) != src.ngens or any(not 0 <= i < dst.ngens for c in columns for i in c):
        raise DimensionMismatch("a morphism must be %dx%d" % (dst.ngens, src.ngens))
    return _intertwines(src, dst, m=columns)


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
    """(extended comodule on V(m), the columns of rho as a comodule morphism).

    The coaction is itself the canonical map of m into the extended comodule
    on its underlying module; it is injective (split by the counit).
    """
    ext = extended_on_orders(m.coalgebra, list(m.gen_orders))
    if not is_comodule_morphism(m, ext, m.columns):
        raise AssertionError("the coaction is not a comodule morphism")
    return ext, m.columns


def presented_kernel_is_zero(columns, src_orders, tgt_orders, ring=ZZ):
    """Whether ker vanishes of the map of presented modules, on generators
    of the given orders, with these sparse columns."""
    try:
        return presented_subquotient(
            ring, len(src_orders), _order_relations(src_orders),
            columns + _order_relations(tgt_orders), len(tgt_orders)).module.is_zero()
    except CompositionNonzero:
        return False


class TorsionfreeCover:
    """Pullback cover E' of a comodule: epi onto E, embedding into C (x) F,
    both sparse columns {row: entry} on the generators of E' (the source's
    and the extended comodule's generators are their rows)."""

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
    # difference map: (e, y) |-> rho(e) - (id (x) eta)(y); eta is the
    # identity on generators, so the second block is minus the identity
    diff = m.columns + [{i: -1} for i in range(r * k)]
    try:
        pullback = presented_subquotient(ZZ, amb, _order_relations(amb_orders),
                                         diff + _order_relations(list(m.gen_orders) * r), r * k)
    except CompositionNonzero:
        raise AssertionError("ambient relation escapes the pullback") from None
    mod = pullback.module
    if mod.torsion:
        raise AssertionError("pullback of a coaction against a free cover has torsion")
    lifts = [pullback.lift(j) for j in range(mod.ngens)]   # ambient coords of generators
    surj = [{i: x for i, x in c.items() if i < k} for c in lifts]
    embed = [{i - k: x for i, x in c.items() if i >= k} for c in lifts]

    # re-derive the coaction on the pullback
    q_cols = []
    ext_free = extended_on_orders(C, [0] * k)
    # C (x) E' inside C (x) (E (+) C (x) F): the columns of 1 (x) lifts, then
    # the relations of the ambient generators' orders
    gens_cp = [_tensor_apply(None, lifts, amb, mod.ngens, {x: 1})
               for x in range(r * mod.ngens)]
    qsolver = _Solver(ZZ, gens_cp + [{i: t} for i, t in enumerate(amb_orders * r) if t], r * amb)
    for e, y in zip(surj, embed):
        # rho(e) on the rows (i, a) and rho_ext(y) on the rows (i, b) of C (x) F
        # go to the rows (i, a) and (i, k + b) of C (x) (E (+) C (x) F)
        q = {i // k * amb + i % k: x for i, x in _compose(m.columns, [e])[0].items()}
        q.update((i // (r * k) * amb + k + i % (r * k), x)
                 for i, x in _compose(ext_free.columns, [y])[0].items())
        sol = qsolver.read(q)
        if sol is None:
            raise AssertionError("derived coaction escapes C (x) E'")
        q_cols.append({i: x for i, x in sol.items() if i < r * mod.ngens})
    cover = _checked(Comodule(C, [0] * mod.ngens, q_cols), "pullback comodule")
    if not is_comodule_morphism(cover, m, surj):
        raise AssertionError("surjection is not a comodule morphism")
    if not is_comodule_morphism(cover, ext_free, embed):
        raise AssertionError("embedding is not a comodule morphism")
    # epi: E / im(surj) = 0
    if not FgModule.cokernel(ZZ, surj + _order_relations(m.gen_orders), k).is_zero():
        raise AssertionError("cover fails to surject onto the comodule")
    # mono: kernel of the embedding vanishes
    if not presented_kernel_is_zero(embed, [0] * mod.ngens, [0] * (r * k)):
        raise AssertionError("cover fails to embed into the extended comodule")
    return TorsionfreeCover(cover, surj, embed, m, ext_free)


def tensor_comodules(m: Comodule, n: Comodule, mu) -> Comodule:
    """Tensor comodule over a bialgebra fragment mu: A_F (x) A_G -> A_H.

    rho = (mu (x) id) o (swap middle) o (rho_m (x) rho_n); generator (a, b)
    has order gcd of the factor orders.
    """
    from .kunneth import _swapped_tensor
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


def corpus_comodule(corpus, name, ring):
    """Corpus.comodule: (context, Comodule) of the comodule `name`, the
    canonical coaction on a vertex or one given by its orders and rho."""
    sec = corpus._comodule_decls.get(name)
    if sec is None:
        raise InputError("unknown comodule %r" % name)
    sname = sec.require("subdiagram")
    ctx, sub = corpus.subdiagram(sname, ring)
    vertex = sec.get("vertex")
    if vertex is not None:
        return ctx, coaction(ctx.rep, sub, vertex, ctx.end(sub))
    A = ctx.coalgebra(sub)
    with _malformed("[comodule %s]" % name):
        orders = tuple(int(t) for t in _split_entries(sec.require("orders"), " "))
        rows = [[Fraction(x) if "/" in x else int(x) for x in part.split()]
                for part in _split_entries(sec.require("rho"), ";")]
        k = len(orders)
        rho = Matrix(ring, rows, A.rank * k, k)
    return ctx, Comodule(A, orders, rho)


def cmd_comodule_check(corpus, ring, args):
    """The comodule-check command: a corpus comodule's axiom certificate."""
    ctx, m = corpus.comodule(args.comodule, ring)
    cert = check_comodule_axioms(m)
    return {"comodule": args.comodule, "module": m.module.describe(),
            "certificate": cert.as_dict()}, cert.ok


def cmd_torsionfree_cover(corpus, ring, args):
    """The torsionfree-cover command: the pullback cover of a corpus
    comodule over Z, with its surjection and embedding."""
    ctx, m = corpus.comodule(args.comodule, ZZ)
    cover = torsionfree_cover(m.coalgebra, m)
    return {"comodule": args.comodule,
            "source_module": m.module.describe(),
            "cover_module": cover.cover.module.describe(),
            "surjection": jmatrix(cover.surjection, m.ngens),
            "embedding": jmatrix(cover.embedding, cover.extended.ngens)}, True
