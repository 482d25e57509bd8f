"""The grouplike element sigma of a coalgebra truncation, read off the
canonical comodule at the circle-with-point vertex, and the sigma command.

sigma_element needs no product of truncations, so the sigma command loads
neither tannakit.kunneth nor tannakit.bialgebra; bialgebra imports it for
the multiplication-by-sigma directed system.
"""

from .errors import InputError, WrongRank
from .matrix import _coerce, jscalar, jvector
from .tannaka import PairsContext


class SigmaElement:
    __slots__ = ("coords",)

    def __init__(self, coords):
        self.coords = tuple(coords)


def sigma_element(ctx: PairsContext, sub) -> SigmaElement:
    """The coalgebra element with rho(g) = sigma (x) g at the circle vertex.

    Asserts the grouplike identities Delta sigma = sigma (x) sigma and
    eps(sigma) = 1.
    """
    c = ctx.circle
    if c is None or c not in sub.vertices:
        raise InputError("subdiagram does not contain the designated circle vertex")
    if ctx.rep.rank(c) != 1:
        raise WrongRank("circle vertex has rank %d, expected 1" % ctx.rep.rank(c))
    co = ctx.end(sub).comodule(c)
    A, zero = co.coalgebra, _coerce(ctx.ring, 0)
    coords = tuple(co.columns[0].get(i, zero) for i in range(A.rank))
    if not A.grouplike_defect(coords).is_zero():
        raise AssertionError("sigma is not grouplike")
    if A.counit_of(coords) != 1:
        raise AssertionError("counit of sigma differs from 1")
    return SigmaElement(coords)


def cmd_sigma(corpus, ring, args):
    """The sigma command: sigma in a subdiagram's coalgebra, its grouplike
    defect and its counit."""
    ctx, sub = corpus.subdiagram(args.subdiagram, ring)
    sig = sigma_element(ctx, sub)
    A = ctx.coalgebra(sub)
    return {"subdiagram": args.subdiagram, "sigma": jvector(sig.coords),
            "grouplike": A.grouplike_defect(sig.coords).is_zero(),
            "counit": jscalar(A.counit_of(sig.coords))}, True
