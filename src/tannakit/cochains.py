"""Cup products on relative cochains and Cech total-complex models, loaded
only by the cup and cech commands (tannakit.simplicial serves their names).

Cech covers are by closed subcomplexes: for subcomplexes A, B we have
C(A) + C(B) = C(A u B) on the nose, so the comparison maps of the
total-complex models are exact at chain level.
"""

from itertools import combinations

from .errors import InvalidPair, NotACover
from .linalg import ZZ, FgModule, Subquotient, _transpose
from .matrix import Matrix
from .simplicial import ChainComplex, SimplicialComplex, SimplicialPair, _faces, pair_homology


# ---------------------------------------------------------------------------
# Cup products on relative cochains
# ---------------------------------------------------------------------------

class CupProduct:
    """Front/back cup product on relative cochains and cohomology.

    C^p(X,Z1) (x) C^q(X,Z2) -> C^{p+q}(X, Z1+Z2), where the target cochains
    live on simplices neither in Z1 nor in Z2.  Z1.union(Z2) is the union of
    the two simplex sets, so those simplices are exactly the labels of
    C(X, Z1 u Z2): the comparison map is the identity on bases, and
    comparison_iso, which the certificate reports, is True by construction.
    """

    __slots__ = ("X", "Z1", "Z2", "p", "q", "ring", "_c1", "_c2", "_c12",
                 "_h1", "_h2", "_h12", "pairing")
    comparison_iso = True

    def __init__(self, X, Z1, Z2, p, q, ring=ZZ):
        if not Z1.is_subcomplex_of(X) or not Z2.is_subcomplex_of(X):
            raise InvalidPair("Z1, Z2 must be subcomplexes of X")
        self.X, self.Z1, self.Z2, self.p, self.q, self.ring = X, Z1, Z2, p, q, ring
        self._c1 = pair_homology(SimplicialPair(X, Z1), ring).complex
        self._c2 = pair_homology(SimplicialPair(X, Z2), ring).complex
        self._c12 = pair_homology(SimplicialPair(X, Z1.union(Z2)), ring).complex
        self._h1 = self._cohomology(self._c1)
        self._h2 = self._cohomology(self._c2)
        self._h12 = self._cohomology(self._c12)
        self.pairing = self._compute_pairing()

    def _cohomology(self, cc):
        out = {}
        for n in range(0, cc.top_degree + 1):
            # a transpose has the same elementary divisors
            out[n] = Subquotient.free(
                self.ring, cc.rank(n), cc.divisors(n), cc.divisors(n + 1),
                lambda n=n: (_transpose(cc.columns(n), cc.rank(n - 1)),
                             _transpose(cc.columns(n + 1), cc.rank(n)), cc.rank(n + 1)))
        return out

    def cohomology_module(self, which, n):
        table = {1: self._h1, 2: self._h2, 12: self._h12}[which]
        if n not in table:
            return FgModule.zero(self.ring)
        return table[n].module

    def cup_cochain(self, fvec, p, gvec, q):
        """Cup of cochains: f on non-Z1 p-simplices, g on non-Z2 q-simplices."""
        c1, c2, c12 = self._c1, self._c2, self._c12
        out = [0] * c12.rank(p + q)
        for j, s in enumerate(c12.labels(p + q)):
            front = s[:p + 1]
            back = s[p:]
            fi = c1.index(p, front)
            gi = c2.index(q, back)
            if fi is None or gi is None:
                continue
            v = fvec[fi] * gvec[gi]
            if v:
                out[j] += v
        return tuple(out)

    def _compute_pairing(self):
        p, q = self.p, self.q
        hp = self._h1.get(p)
        hq = self._h2.get(q)
        hpq = self._h12.get(p + q)
        if hp is None or hq is None or hpq is None:
            return []
        rows = []
        for a in range(hp.module.ngens):
            f = hp.lift(a)
            row = []
            for b in range(hq.module.ngens):
                g = hq.lift(b)
                cup = self.cup_cochain(f, p, g, q)
                row.append(hpq.class_of(cup))
            rows.append(row)
        return rows

    def pairing_matrix(self):
        """For rank-1 targets: the pairing as a plain matrix."""
        tgt = self.cohomology_module(12, self.p + self.q)
        if tgt.ngens != 1:
            raise ValueError("pairing matrix needs a rank-1 target")
        return Matrix(self.ring, [[c[0] for c in row] for row in self.pairing],
                      len(self.pairing), len(self.pairing[0]) if self.pairing else 0)

    def graded_commutativity_defects(self):
        """Pairs (a,b) where [f_a u g_b] != (-1)^{pq} [g_b u f_a].

        Only meaningful when Z1 == Z2, so both factors draw from the same
        cohomology."""
        if self.Z1 != self.Z2 or self.p != self.q:
            other = CupProduct(self.X, self.Z2, self.Z1, self.q, self.p, self.ring)
        else:
            other = self
        sign = (-1) ** (self.p * self.q)
        bad = []
        hp = self._h1.get(self.p)
        hq = self._h2.get(self.q)
        hpq = self._h12.get(self.p + self.q)
        if hp is None or hq is None or hpq is None:
            return bad
        for a in range(hp.module.ngens):
            for b in range(hq.module.ngens):
                left = self.pairing[a][b]
                right = other.pairing[b][a]
                scaled = hpq.module.normalize_vector(tuple(sign * x for x in right))
                if tuple(left) != tuple(scaled):
                    bad.append((a, b))
        return bad


def relative_cup_product(X, Z1, Z2, p, q, ring=ZZ) -> CupProduct:
    return CupProduct(X, Z1, Z2, p, q, ring)


# ---------------------------------------------------------------------------
# Cech total complex of a closed cover with divisor components
# ---------------------------------------------------------------------------

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
        ph = pair_homology(self.pair, self.ring)
        top = max(self.complex.top_degree, self.pair.X.dim)
        rows = []
        ok = True
        for n in range(0, top + 1):
            a = self.homology(n)
            b = ph.module(n)
            match = a == b
            ok = ok and match
            rows.append({"degree": n, "total_complex": a.describe(),
                         "relative": b.describe(), "match": match})
        return {"ok": ok, "degrees": rows}


def cech_total_complex(X, cover, components=(), ring=ZZ) -> CechModel:
    return CechModel(X, cover, components, ring)
