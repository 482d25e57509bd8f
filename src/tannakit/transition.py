"""Transition maps and the factorization certificate: the coalgebra
morphism A_F -> A_G dual to restricting compatible families from G to a
smaller F, and the certificate that a diagram representation factors
through comodules over its End algebra's dual coalgebra, with the
transition and factorization-check commands.

Both are checked on sparse columns: _coalgebra_morphism adds both sides of
each column into one dict by maps._tensor_apply (the check every product
of truncations passes too), and coalgebra._intertwines checks the comodule
morphism identities.  A TransitionMap is its sparse columns, which the
transition command prints.
"""

from .coalgebra import _intertwines, check_coaction_axioms, coaction
from .errors import AxiomViolation, InputError
from .linalg import _transpose
from .maps import _tensor_apply
from .matrix import jmatrix
from .tannaka import EndAlgebra, end_algebra


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


class TransitionMap:
    """Coalgebra morphism A_F -> A_F' dual to restriction of families, as
    sparse columns."""

    __slots__ = ("source", "target", "columns")

    def __init__(self, source, target, columns):
        self.source, self.target, self.columns = source, target, columns


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
                            m=rep.edge_map(name).columns):
            violations.append("edge %r is not a comodule morphism" % (name,))
    return FactorizationCert(violations, checked)


def cmd_transition(corpus, ring, args):
    """The transition command: the transition map between two subdiagrams
    of one diagram."""
    ctx, subF = corpus.subdiagram(args.sub_small, ring)
    ctx2, subG = corpus.subdiagram(args.sub_big, ring)
    if ctx is not ctx2:
        raise InputError("subdiagrams live on different diagrams")
    t = transition_map(ctx.rep, ctx.end(subF), ctx.end(subG))
    return {"from": args.sub_small, "to": args.sub_big,
            "matrix": jmatrix(t.columns, t.target.rank),
            "checks": "coalgebra morphism and coaction compatibility asserted"}, True


def cmd_factorization_check(corpus, ring, args):
    """The factorization-check command: the factorization certificate of a
    subdiagram."""
    ctx, sub = corpus.subdiagram(args.subdiagram, ring)
    cert = factorization_check(ctx.rep, sub, ctx.end(sub))
    return {"subdiagram": args.subdiagram, "certificate": cert.as_dict()}, cert.ok
