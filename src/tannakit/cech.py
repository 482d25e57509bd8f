"""Cech total-complex models of relative chains, and the cech command.

The total complex of a closed cover of X and of the components of a
divisor decomposition of Z, compared degreewise with h_*(X, Z).  Cech
covers are by closed subcomplexes: for subcomplexes A, B we have
C(A) + C(B) = C(A u B) on the nose, so the comparison maps of the
total-complex models are exact at chain level.
"""

from itertools import combinations

from .errors import InputError, InvalidPair, NotACover
from .linalg import ZZ, FgModule
from .simplicial import ChainComplex, SimplicialComplex, SimplicialPair, _faces, pair_homology


class CechModel:
    """Total complex of the cover/divisor tricomplex, with its comparison."""

    __slots__ = ("X", "cover", "components", "ring", "complex", "pair")

    def __init__(self, X, cover, components, ring=ZZ):
        if not cover:
            raise NotACover("empty cover")
        for Y in cover:
            if not Y.is_subcomplex_of(X):
                raise NotACover("cover member is not a subcomplex")
        u = SimplicialComplex.empty()
        for Y in cover:
            u = u.union(Y)
        if u != X:
            raise NotACover("cover does not exhaust X")
        for Zb in components:
            if not Zb.is_subcomplex_of(X):
                raise InvalidPair("divisor component is not a subcomplex")
        self.X, self.cover, self.components, self.ring = X, tuple(cover), tuple(components), ring
        z = SimplicialComplex.empty()
        for Zb in components:
            z = z.union(Zb)
        self.pair = SimplicialPair(X, z)
        self.complex = self._build()

    def _intersection(self, A, B):
        cur = self.cover[A[0]]
        for a in A[1:]:
            cur = cur.intersection(self.cover[a])
        for b in B:
            cur = cur.intersection(self.components[b])
        return cur

    def _build(self):
        qn = len(self.cover)
        pn = len(self.components)
        pieces = {}
        for isz in range(1, qn + 1):
            for A in combinations(range(qn), isz):
                for jsz in range(0, pn + 1):
                    for B in combinations(range(pn), jsz):
                        w = self._intersection(A, B)
                        if not w.is_empty():
                            pieces[(A, B)] = w
        labels = {}
        for (A, B), w in sorted(pieces.items()):
            i = len(A) - 1
            j = len(B)
            for k in range(0, w.dim + 1):
                for s in w.simplices(k):
                    labels.setdefault(i + j + k, []).append((A, B, s))
        for ls in labels.values():
            ls.sort(key=lambda l: (len(l[0]), l[0], len(l[1]), l[1], len(l[2]), l[2]))

        def faces(n, label):
            # simplicial boundary, then the Cech differential (drop a cover
            # index) with sign (-1)^k, then the divisor differential (drop a
            # component index) with sign (-1)^(k+i); labels with no cover
            # index or an empty simplex are not in the basis and drop out
            A, B, s = label
            i, k = len(A) - 1, len(s) - 1
            for face, c in _faces(k, s):
                yield (A, B, face), c
            for t in range(len(A)):
                yield (A[:t] + A[t + 1:], B, s), (-1) ** (k + t)
            for t in range(len(B)):
                yield (A, B[:t] + B[t + 1:], s), (-1) ** (k + i + t)
        return ChainComplex(self.ring, labels, faces)

    def homology(self, n) -> FgModule:
        return self.complex.homology_module(n)

    def certificate(self):
        """Degreewise comparison with the relative homology of (X, union Z)."""
        cx = pair_homology(self.pair, self.ring)
        top = max(self.complex.top_degree, self.pair.X.dim)
        rows = []
        ok = True
        for n in range(0, top + 1):
            a = self.homology(n)
            b = cx.homology_module(n)
            match = a == b
            ok = ok and match
            rows.append({"degree": n, "total_complex": a.describe(),
                         "relative": b.describe(), "match": match})
        return {"ok": ok, "degrees": rows}


def cech_total_complex(X, cover, components=(), ring=ZZ) -> CechModel:
    return CechModel(X, cover, components, ring)


def cmd_cech(corpus, ring, args):
    """The cech command: the total complex of a cover, and of a divisor
    decomposition when one is given, compared with relative homology."""
    if args.cover not in corpus.covers:
        raise InputError("unknown cover %r" % args.cover)
    X, sets = corpus.covers[args.cover]
    comps = ()
    if args.divisors:
        if args.divisors not in corpus.divisors:
            raise InputError("unknown divisors %r" % args.divisors)
        Xd, comps = corpus.divisors[args.divisors]
        if Xd != X:
            raise InputError("cover and divisors live on different complexes")
    model = cech_total_complex(X, sets, comps, ring)
    cert = model.certificate()
    return {"cover": args.cover, "divisors": args.divisors or "",
            "certificate": cert}, cert["ok"]
