"""Cup products on relative cochains and cohomology, and the cup command.

Cochains and cohomology classes are sparse vectors {index: entry}, as lift
and class_of take and return them; the certificate prints each class in
full.
"""

from .errors import InvalidPair
from .linalg import ZZ, FgModule, Subquotient, _transpose
from .matrix import Matrix, jscalar
from .simplicial import SimplicialPair, pair_homology

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
        self._c1 = pair_homology(SimplicialPair(X, Z1), ring)
        self._c2 = pair_homology(SimplicialPair(X, Z2), ring)
        self._c12 = pair_homology(SimplicialPair(X, Z1.union(Z2)), ring)
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
        """Cup of cochains {index: entry}: f on non-Z1 p-simplices, g on
        non-Z2 q-simplices."""
        c1, c2 = self._c1, self._c2
        out = {}
        for j, s in enumerate(self._c12.labels(p + q)):
            v = fvec.get(c1.index(p, s[:p + 1]), 0) * gvec.get(c2.index(q, s[p:]), 0)
            if v:
                out[j] = v
        return out

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
        return Matrix(self.ring, [[c.get(0, 0) for c in row] for row in self.pairing],
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
                if left != hpq.module.normalize_vector({i: sign * x for i, x in right.items()}):
                    bad.append((a, b))
        return bad


def relative_cup_product(X, Z1, Z2, p, q, ring=ZZ) -> CupProduct:
    return CupProduct(X, Z1, Z2, p, q, ring)


def cmd_cup(corpus, ring, args):
    """The cup command: the cohomology of (X, Z1), (X, Z2) and (X, Z1 + Z2),
    the pairing between the first two and its graded commutativity."""
    X = corpus.expr(args.X)
    Z1 = corpus.expr(args.Z1)
    Z2 = corpus.expr(args.Z2)
    cp = relative_cup_product(X, Z1, Z2, args.p, args.q, ring)
    n = cp.cohomology_module(12, args.p + args.q).ngens
    pairing = [[[jscalar(c.get(i, 0)) for i in range(n)] for c in row] for row in cp.pairing]
    defects = cp.graded_commutativity_defects()
    res = {
        "H^p(X,Z1)": cp.cohomology_module(1, args.p).describe(),
        "H^q(X,Z2)": cp.cohomology_module(2, args.q).describe(),
        "H^{p+q}(X,Z1+Z2)": cp.cohomology_module(12, args.p + args.q).describe(),
        "pairing": pairing,
        "comparison_iso": cp.comparison_iso,
        "graded_commutativity_defects": len(defects),
    }
    return res, cp.comparison_iso and not defects
