"""Finite simplicial complexes and pairs, and their exact homology modules.

Orientation convention: each simplex is written with its vertices in the
global order of the ambient complex, and the boundary alternates signs over
omitted vertices.  Products use the staircase (ordered-product)
triangulation, which makes the Eilenberg-Zilber shuffle formula land on
honest simplices.  SimplicialComplex() sorts and checks arbitrary input;
from_maximal, union, intersection, skeleton, images and products build
complexes closed by construction, and check nothing.

This module stops at the homology module of a pair.  pair_homology returns
a pair's relative ChainComplex, built once per (pair, ring), and
ChainComplex.homology is the one homology reader: its module from
elementary divisors, and the Hermite cycle basis, in which the maps on
homology, and through them the filtration, kunneth, cup and diagram
commands, print their matrices; les reads its maps through the homology of
a chain-level reduction's residual complex instead (tannakit.reduction).
"""

from itertools import combinations

from . import _lazy
from .errors import InvalidPair, NotSimplicial
from .linalg import ZZ, FgModule, Subquotient, _composes_to_zero, _sparse_divisors

# the names of later layers that bench/ reads through this module
__getattr__ = _lazy(__name__, {
    "les": "les_exactness",
    "cochains": "relative_cup_product",
    "cech": "cech_total_complex",
    "kunneth": "ez_aw_maps ez_aw_relative ez_matrixes",
})


class SimplicialComplex:
    """Immutable finite abstract simplicial complex with ordered vertices."""

    __slots__ = ("vertices", "_by_dim", "_set", "_indexes", "_hash")

    def __init__(self, vertices=(), simplices=()):
        simps = {(v,) for v in vertices}
        for s in simplices:
            t = tuple(sorted(set(s)))
            simps.update((v,) for v in t)
            if len(t) > 1:
                simps.add(t)
        for s in simps:
            if len(s) > 1:
                for face in combinations(s, len(s) - 1):
                    if face not in simps:
                        raise NotSimplicial(
                            "simplices not closed under faces: %r misses %r" % (s, face))
        self._fill(simps)

    @classmethod
    def _closed(cls, simps):
        """The complex of a set of sorted vertex tuples that is already
        closed under faces, vertices included; nothing is checked."""
        cx = cls.__new__(cls)
        cx._fill(simps)
        return cx

    def _fill(self, simps):
        by_dim = {}
        for s in simps:
            by_dim.setdefault(len(s) - 1, []).append(s)
        self._by_dim = {d: tuple(sorted(lst)) for d, lst in by_dim.items()}
        self.vertices = tuple(v for (v,) in self._by_dim.get(0, ()))
        self._set = frozenset(simps)
        self._indexes = {}
        self._hash = None

    @classmethod
    def from_maximal(cls, maximal, vertices=()):
        """Close the given maximal simplices under faces."""
        simps = {(v,) for v in vertices}
        for s in maximal:
            t = tuple(sorted(set(s)))
            for k in range(1, len(t) + 1):
                simps.update(combinations(t, k))
        return cls._closed(simps)

    @classmethod
    def empty(cls):
        return cls()

    @property
    def dim(self):
        return max(self._by_dim) if self._by_dim else -1

    def simplices(self, d):
        return self._by_dim.get(d, ())

    def all_simplices(self):
        return self._set

    def n_simplices(self):
        return len(self._set)

    def has_simplex(self, s):
        return tuple(sorted(s)) in self._set

    def index(self, d, s):
        idx = self._indexes.get(d)
        if idx is None:
            idx = {s: i for i, s in enumerate(self._by_dim.get(d, ()))}
            self._indexes[d] = idx
        return idx.get(s)

    def is_subcomplex_of(self, other):
        return self._set <= other._set

    def union(self, other):
        return SimplicialComplex._closed(self._set | other._set)

    def intersection(self, other):
        return SimplicialComplex._closed(self._set & other._set)

    def skeleton(self, k):
        return SimplicialComplex._closed({s for s in self._set if len(s) - 1 <= k})

    def is_empty(self):
        return not self._set

    def __eq__(self, other):
        return isinstance(other, SimplicialComplex) and self._set == other._set

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self._set)
        return self._hash

    def __repr__(self):
        counts = ",".join("%d:%d" % (d, len(self._by_dim[d]))
                          for d in sorted(self._by_dim))
        return "SimplicialComplex(dim %d; %s)" % (self.dim, counts)


class SimplicialPair:
    """A complex with a distinguished subcomplex."""

    __slots__ = ("X", "Z", "_hash")

    def __init__(self, X, Z=None):
        if Z is None:
            Z = SimplicialComplex.empty()
        if not Z.is_subcomplex_of(X):
            raise InvalidPair("Z is not a subcomplex of X")
        self.X = X
        self.Z = Z
        self._hash = None

    def __eq__(self, other):
        return (isinstance(other, SimplicialPair)
                and self.X == other.X and self.Z == other.Z)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.X, self.Z))
        return self._hash

    def __repr__(self):
        return "SimplicialPair(%r, %r)" % (self.X, self.Z)


# ---------------------------------------------------------------------------
# Chain complexes
# ---------------------------------------------------------------------------

class ChainComplex:
    """Free labeled chain complex with decreasing differentials.

    faces(d, label) lists the boundary of a basis label of degree d as
    (label of degree d - 1, coeff) pairs; labels outside the basis are
    dropped, which is the quotient map.  Each boundary is kept as sparse
    integer columns {row: coeff}, and d o d = 0 is checked once, at
    construction.
    """

    __slots__ = ("ring", "_labels", "_index", "_cols", "_homology", "_divisors", "_reduction")

    def __init__(self, ring, labels, faces):
        self.ring = ring
        self._labels = {d: tuple(ls) for d, ls in labels.items() if ls}
        self._index = {d: {l: i for i, l in enumerate(ls)} for d, ls in self._labels.items()}
        # only boundaries into a nonzero degree are stored
        self._cols = {d: _sparse_columns(faces, d, ls, self._index[d - 1])
                      for d, ls in self._labels.items() if d - 1 in self._labels}
        for d in self._cols:
            if d - 1 in self._cols and not _composes_to_zero(self._cols[d - 1], self._cols[d]):
                raise AssertionError("d o d != 0 at degree %d" % d)
        self._homology = {}
        self._divisors = {}
        self._reduction = None      # reduction.reduction(self), built by les

    @property
    def degrees(self):
        return sorted(self._labels)

    @property
    def top_degree(self):
        return max(self._labels) if self._labels else -1

    def rank(self, d):
        return len(self._labels.get(d, ()))

    def labels(self, d):
        return self._labels.get(d, ())

    def index(self, d, label):
        return self._index.get(d, {}).get(label)

    def faces(self, d, label):
        """The boundary of a basis label, read back from its column."""
        cols = self._cols.get(d)
        if cols is None:
            return ()
        rows = self._labels[d - 1]
        return ((rows[r], c) for r, c in cols[self._index[d][label]].items())

    def columns(self, d):
        """The sparse columns {row: coeff} of the boundary of degree d."""
        return self._cols.get(d, [{}] * self.rank(d))

    def divisors(self, d):
        """Nonzero elementary divisors of the boundary of degree d: its
        columns are the rows of the transpose, which has the same ones."""
        if d not in self._divisors:
            self._divisors[d] = _sparse_divisors(self._cols.get(d, ()), self.ring)
        return self._divisors[d]

    def homology(self, d) -> Subquotient:
        if d not in self._homology:
            self._homology[d] = Subquotient.free(
                self.ring, self.rank(d), self.divisors(d + 1), self.divisors(d),
                lambda: (self.columns(d + 1), self.columns(d), self.rank(d - 1)))
        return self._homology[d]

    def homology_module(self, d) -> FgModule:
        return self.homology(d).module


def _sparse_columns(rule, d, labels, index):
    """One column {row: coeff} per label: the sum of rule(d, label), with
    targets outside index dropped and zero sums left out."""
    return [_chain_image(rule, d, ((label, 1),), index) for label in labels]


def _chain_image(rule, d, chain, index=None):
    """Sum of c * rule(d, label) over the (label, c) of chain, as {key: coeff}
    with key index[target], or the target itself when index is None;
    targets outside index are dropped and zero sums left out."""
    out = {}
    for label, c in chain:
        if c:
            for t, e in rule(d, label):
                if index is not None:
                    t = index.get(t)
                    if t is None:
                        continue
                out[t] = out.get(t, 0) + c * e
    return {t: v for t, v in out.items() if v}


# ---------------------------------------------------------------------------
# Relative chains and homology
# ---------------------------------------------------------------------------

def _faces(d, s):
    """Alternating-face boundary of an ordered simplex."""
    return ((s[:i] + s[i + 1:], -1 if i & 1 else 1) for i in range(len(s)))


def relative_chain_complex(pair, ring=ZZ):
    """Chains of X modulo chains of Z; basis the simplices of X not in Z."""
    X, Z = pair.X, pair.Z
    zset = Z.all_simplices()
    labels = {d: tuple(s for s in X.simplices(d) if s not in zset)
              for d in range(0, X.dim + 1)}
    return ChainComplex(ring, labels, _faces)


_PAIR_CACHE = {}


def pair_homology(pair, ring=ZZ) -> ChainComplex:
    """The relative chain complex of pair over ring, built once per (pair,
    ring); its homology(n) serves the module, class_of and lift."""
    key = (pair, ring)
    cx = _PAIR_CACHE.get(key)
    if cx is None:
        cx = _PAIR_CACHE[key] = relative_chain_complex(pair, ring)
    return cx


def relative_homology(pair, n, ring=ZZ) -> FgModule:
    return pair_homology(pair, ring).homology_module(n)


# ---------------------------------------------------------------------------
# Products
# ---------------------------------------------------------------------------

def _shuffle_paths(sigma, tau):
    """(positions, path) for every maximal monotone path through the grid
    sigma x tau; positions are the steps that advance in sigma."""
    p = len(sigma) - 1
    n = p + len(tau) - 1
    for positions in combinations(range(n), p):
        path = [(sigma[0], tau[0])]
        a = b = 0
        for step in range(n):
            if step in positions:
                a += 1
            else:
                b += 1
            path.append((sigma[a], tau[b]))
        yield positions, tuple(path)


def product_complex(X, Y):
    """Staircase triangulation of the product of two complexes."""
    return SimplicialComplex.from_maximal(
        path for s in _maximal(X) for t in _maximal(Y) for _, path in _shuffle_paths(s, t))


def _maximal(X):
    """The simplices of X that are no codimension-1 face of another one: in a
    complex closed under faces, exactly those in no larger simplex."""
    faces = {t[:i] + t[i + 1:] for t in X.all_simplices() if len(t) > 1
             for i in range(len(t))}
    return [s for s in X.all_simplices() if s not in faces]


def product_pair(p1, p2, product=product_complex):
    """(X1 x X2, Z1 x X2  u  X1 x Z2) with the staircase triangulation, each
    product of two complexes built by product."""
    X = product(p1.X, p2.X)
    z_parts = []
    if not p1.Z.is_empty():
        z_parts.append(product(p1.Z, p2.X))
    if not p2.Z.is_empty():
        z_parts.append(product(p1.X, p2.Z))
    Z = SimplicialComplex.empty()
    for part in z_parts:
        Z = Z.union(part)
    return SimplicialPair(X, Z)
