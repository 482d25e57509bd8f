"""Finite simplicial complexes, pairs, maps and filtrations, and their exact
homology.

Orientation convention: each simplex is written with its vertices in the
global order of the ambient complex, and the boundary alternates signs over
omitted vertices.  Products use the staircase (ordered-product)
triangulation, which makes the Eilenberg-Zilber shuffle formula land on
honest simplices.  SimplicialComplex() sorts and checks arbitrary input;
from_maximal, union, intersection, skeleton, images and products build
complexes closed by construction, and check nothing.  Filtration holds the
data and checks of a filtration; its algorithms are in tannakit.filtration.
Cup products and Cech models are in tannakit.cochains, loaded on the first
lookup of one of their names here (PEP 562).

Homology classes are read in one of two bases.  ChainComplex.homology gives
the Hermite cycle basis, in which induced_map_on_homology and
triple_boundary, and through them the filtration, kunneth, cup and diagram
commands, print their matrices.  les_exactness reads i_*, j_* and the
boundary through the chain-level reductions of Z, X and (X, Z) instead
(tannakit.les and tannakit.reduction, imported only there): a les
certificate holds ranks over Q, ok flags and defect modules, none of which
depends on the basis.
"""

from functools import cache
from itertools import combinations

from .errors import InvalidFiltration, InvalidPair, NotNested, NotPairMap, NotSimplicial
from .linalg import (
    ZZ, FgModule, Matrix, ModuleMap, Subquotient, _apply, _compose, _composes_to_zero,
    _sparse_divisors,
)

_COCHAINS = ("CupProduct", "relative_cup_product", "CechModel", "cech_total_complex")


def __getattr__(name):
    if name not in _COCHAINS:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from . import cochains
    return getattr(cochains, name)


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


class SimplicialMap:
    """Vertex assignment whose simplex images are simplices."""

    __slots__ = ("source", "target", "assignment")

    def __init__(self, source, target, assignment):
        self.source = source
        self.target = target
        self.assignment = dict(assignment)
        for v in source.vertices:
            if v not in self.assignment:
                raise NotSimplicial("vertex %r has no image" % (v,))
            if (self.assignment[v],) not in target.all_simplices():
                raise NotSimplicial("image %r is not a vertex of the target"
                                    % (self.assignment[v],))
        for s in source.all_simplices():
            img = tuple(sorted({self.assignment[v] for v in s}))
            if not target.has_simplex(img):
                raise NotSimplicial("image of %r is not a simplex" % (s,))

    @classmethod
    def identity(cls, X):
        return cls(X, X, {v: v for v in X.vertices})

    def __call__(self, v):
        return self.assignment[v]

    def compose(self, other):
        """self after other."""
        if not other.target.is_subcomplex_of(self.source):
            raise ValueError("composition mismatch")
        return SimplicialMap(other.source, self.target,
                             {v: self.assignment[w] for v, w in other.assignment.items()})

    def restrict(self, sub, target=None):
        return SimplicialMap(sub, target if target is not None else self.target,
                             {v: self.assignment[v] for v in sub.vertices})

    def image(self, sub=None):
        src = self.source if sub is None else sub
        return SimplicialComplex._closed(
            {tuple(sorted({self.assignment[v] for v in s})) for s in src.all_simplices()})

    def oriented_image(self, s):
        """(sign, image simplex) or (0, None) when the image degenerates."""
        img = [self.assignment[v] for v in s]
        if len(set(img)) != len(img):
            return 0, None
        inv = 0
        for i in range(len(img)):
            for j in range(i + 1, len(img)):
                if img[i] > img[j]:
                    inv += 1
        return (-1) ** inv, tuple(sorted(img))

    def is_pair_map(self, pair_src, pair_tgt):
        return self.image(pair_src.Z).is_subcomplex_of(pair_tgt.Z)


class Filtration:
    """Increasing chain of subcomplexes F_0 <= ... <= F_n = X with
    dim F_i <= i; F_{-1} is the empty complex."""

    __slots__ = ("X", "levels")

    def __init__(self, X, levels):
        levels = tuple(levels)
        if not levels:
            raise InvalidFiltration("a filtration needs at least one level")
        if levels[-1] != X:
            raise InvalidFiltration("top level must equal the whole complex")
        prev = SimplicialComplex.empty()
        for i, F in enumerate(levels):
            if not prev.is_subcomplex_of(F):
                raise InvalidFiltration("levels are not nested at index %d" % i)
            if F.dim > i:
                raise InvalidFiltration("dim F_%d = %d exceeds %d" % (i, F.dim, i))
            if not F.is_subcomplex_of(X):
                raise InvalidFiltration("level %d is not a subcomplex of X" % i)
            prev = F
        self.X = X
        self.levels = levels

    @property
    def length(self):
        return len(self.levels) - 1

    def level(self, i):
        if i < 0:
            return SimplicialComplex.empty()
        if i >= len(self.levels):
            return self.levels[-1]
        return self.levels[i]

    def __eq__(self, other):
        return (isinstance(other, Filtration) and self.X == other.X
                and self.levels == other.levels)

    def __hash__(self):
        return hash((self.X, self.levels))

    def __repr__(self):
        return "Filtration(length %d on %r)" % (self.length, self.X)


# ---------------------------------------------------------------------------
# Chain complexes
# ---------------------------------------------------------------------------

class ChainComplex:
    """Free labeled chain complex with decreasing differentials.

    faces(d, label) lists the boundary of a basis label of degree d as
    (label of degree d - 1, coeff) pairs; labels outside the basis are
    dropped, which is the quotient map.  Each boundary is kept as sparse
    integer columns {row: coeff}, and d o d = 0 is checked once, at
    construction.  boundary(d) is the dense view, built on first use.
    """

    __slots__ = ("ring", "_labels", "_index", "_cols", "_bnd", "_homology", "_divisors",
                 "_reduction")

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
        self._bnd = {}
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

    def boundary(self, d):
        m = self._bnd.get(d)
        if m is None:
            m = self._bnd[d] = Matrix.from_sparse(self.ring, self.columns(d), self.rank(d - 1))
        return m

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


class ChainMap:
    """Chain map given by image(d, label) -> (target label, coeff) pairs,
    kept as sparse columns per degree; commutation with the boundaries is
    checked once, at construction."""

    __slots__ = ("source", "target", "_cols", "_comps")

    def __init__(self, source, target, image):
        self.source = source
        self.target = target
        self._cols = {d: _sparse_columns(image, d, source.labels(d), target._index.get(d, {}))
                      for d in source.degrees}
        for d in source.degrees:
            left = _compose(target._cols.get(d), self._cols[d])
            right = _compose(self._cols.get(d - 1), source._cols.get(d, [{}] * source.rank(d)))
            if left != right:
                raise AssertionError("chain map fails to commute at degree %d" % d)
        self._comps = {}

    def component(self, d):
        m = self._comps.get(d)
        if m is None:
            m = self._comps[d] = Matrix.from_sparse(
                self.source.ring, self._cols.get(d, ()), self.target.rank(d))
        return m

    def apply(self, d, vec):
        """The image of a chain of degree d, given by its coordinates."""
        return _apply(self._cols.get(d, ()), vec, self.target.rank(d))


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


def tensor_complex(cx, cy):
    """Tensor product complex; basis labels (p, sigma, tau), p ascending."""
    if cx.ring != cy.ring:
        raise ValueError("ring mismatch")
    labels = {}
    for n in range(0, cx.top_degree + cy.top_degree + 1):
        labels[n] = tuple((p, s, t) for p in range(0, n + 1)
                          for s in cx.labels(p) for t in cy.labels(n - p))

    def faces(n, label):
        p, s, t = label
        for s2, c in cx.faces(p, s):
            yield (p - 1, s2, t), c
        sign = -1 if p & 1 else 1
        for t2, c in cy.faces(n - p, t):
            yield (p, s, t2), sign * c
    return ChainComplex(cx.ring, labels, faces)


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


class PairHomology:
    """All-degree homology of a pair with cycle bookkeeping."""

    __slots__ = ("pair", "ring", "complex")

    def __init__(self, pair, ring):
        self.pair = pair
        self.ring = ring
        self.complex = relative_chain_complex(pair, ring)

    def module(self, n) -> FgModule:
        return self.complex.homology_module(n)

    def class_of(self, n, vec):
        return self.complex.homology(n).class_of(vec)

    def lift(self, n, j):
        return self.complex.homology(n).lift(j)


_PAIR_CACHE = {}


def pair_homology(pair, ring=ZZ) -> PairHomology:
    key = (pair, ring)
    ph = _PAIR_CACHE.get(key)
    if ph is None:
        ph = PairHomology(pair, ring)
        _PAIR_CACHE[key] = ph
    return ph


def relative_homology(pair, n, ring=ZZ) -> FgModule:
    return pair_homology(pair, ring).module(n)


def _induced_chain_map(f, pair_src, pair_tgt, ring):
    """The chain map induced by f on relative chains."""
    def image(_d, s):
        sign, img = f.oriented_image(s)
        return ((img, sign),) if sign else ()
    return ChainMap(pair_homology(pair_src, ring).complex,
                    pair_homology(pair_tgt, ring).complex, image)


def induced_map_on_homology(f, pair_src, pair_tgt, n, ring=ZZ) -> ModuleMap:
    """h_n(f): h_n(X,Z) -> h_n(X',Z') for a map of pairs."""
    if not pair_src.X.is_subcomplex_of(f.source):
        raise NotPairMap("f is not defined on X")
    if not f.image(pair_src.X).is_subcomplex_of(pair_tgt.X):
        raise NotPairMap("f does not map X into X'")
    if not f.is_pair_map(pair_src, pair_tgt):
        raise NotPairMap("f does not map Z into Z'")
    fmap = cache(lambda: _induced_chain_map(f, pair_src, pair_tgt, ring))
    return _homology_map(pair_homology(pair_src, ring).complex.homology(n),
                         pair_homology(pair_tgt, ring).complex.homology(n),
                         lambda vec: fmap().apply(n, vec))


def triple_boundary(X, Z, W, n, ring=ZZ) -> ModuleMap:
    """Boundary h_n(X,Z) -> h_{n-1}(Z,W) of the homology sequence of a triple."""
    if not (W.is_subcomplex_of(Z) and Z.is_subcomplex_of(X)):
        raise NotNested("need W <= Z <= X")
    top = pair_homology(SimplicialPair(X, Z), ring).complex
    bot = pair_homology(SimplicialPair(Z, W), ring).complex
    return _homology_map(top.homology(n), bot.homology(n - 1),
                         _boundary_image(top, bot, Z, n))


def _homology_map(hs, ht, image) -> ModuleMap:
    """The module map taking generator j of hs to the class in ht of
    image(hs.lift(j)).  hs and ht serve the module, class_of and lift of one
    degree each, in the Hermite basis of ChainComplex.homology or in a
    reduction's; image is called only when both modules are nonzero."""
    src, tgt = hs.module, ht.module
    if src.is_zero() or tgt.is_zero():
        return ModuleMap.zero(src, tgt)
    cols = [ht.class_of(image(hs.lift(j))) for j in range(src.ngens)]
    return ModuleMap(src, tgt, Matrix.from_columns(src.ring, cols, rows=tgt.ngens))


def _boundary_image(top, bot, Z, n):
    """The connecting map on chains: a relative n-chain of top, whose
    boundary in X lies in Z, to that boundary in bot's labels."""
    zset = Z.all_simplices()

    def image(vec):
        out = _chain_image(_faces, n, zip(top.labels(n), vec))
        if any(face not in zset for face in out):
            raise AssertionError("lifted boundary not supported on Z")
        return tuple(out.get(s, 0) for s in bot.labels(n - 1))
    return image


# ---------------------------------------------------------------------------
# Long exact sequence certificate
# ---------------------------------------------------------------------------

def les_exactness(pair, ring=ZZ):
    """Exactness report for ... -> h_n(Z) -> h_n(X) -> h_n(X,Z) -> h_{n-1}(Z) -> ...

    Each node reports rank(im of the incoming map) and rank(ker of the
    outgoing map) over the fraction field, plus the exact (torsion-aware)
    defect module ker/im; exactness over Z means the defect vanishes.  The
    certificate is built by tannakit.les, which loads only here.
    """
    from .les import certificate
    return certificate(pair, ring)


# ---------------------------------------------------------------------------
# Products, Eilenberg-Zilber, Alexander-Whitney
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


def _shuffle_sign(positions, total):
    inv = 0
    others = [t for t in range(total) if t not in positions]
    for s in positions:
        for t in others:
            if t < s:
                inv += 1
    return (-1) ** inv


def _ez(n, label):
    """Eilenberg-Zilber: sigma (x) tau to the signed sum of its shuffle paths."""
    _p, s, t = label
    for positions, path in _shuffle_paths(s, t):
        yield path, _shuffle_sign(positions, n)


def _aw(n, simplex):
    """Alexander-Whitney: a product simplex to its front (x) back faces."""
    xs = [v[0] for v in simplex]
    ys = [v[1] for v in simplex]
    for i in range(n + 1):
        front = tuple(xs[:i + 1])
        back = tuple(ys[i:])
        if len(set(front)) == len(front) and len(set(back)) == len(back):
            yield (i, front, back), 1


def ez_matrixes(cx, cy, cxy, tensor=None):
    """(EZ, AW) as ChainMaps between tensor(cx,cy) and cxy.

    Works for absolute and relative labeled complexes alike: path or face
    labels missing from a target basis are dropped (the quotient map).
    """
    if tensor is None:
        tensor = tensor_complex(cx, cy)
    return ChainMap(tensor, cxy, _ez), ChainMap(cxy, tensor, _aw)


def _assert_aw_ez_identity(ez, aw, tensor, what):
    for n in tensor.degrees:
        if _compose(aw._cols.get(n), ez._cols[n]) != [{j: 1} for j in range(tensor.rank(n))]:
            raise AssertionError("%s != id in degree %d" % (what, n))


def ez_aw_maps(X, Y, ring=ZZ):
    """Absolute Eilenberg-Zilber and Alexander-Whitney maps for X, Y.

    Asserts AW o EZ = id on the tensor complex.
    """
    cx = relative_chain_complex(SimplicialPair(X), ring)
    cy = relative_chain_complex(SimplicialPair(Y), ring)
    XY = product_complex(X, Y)
    cxy = relative_chain_complex(SimplicialPair(XY), ring)
    tensor = tensor_complex(cx, cy)
    ez, aw = ez_matrixes(cx, cy, cxy, tensor)
    _assert_aw_ez_identity(ez, aw, tensor, "AW o EZ")
    return ez, aw, tensor, cxy


def ez_aw_relative(p1, p2, ring=ZZ):
    """Relative EZ/AW between tensor of relative chains and chains of the
    product pair; AW o EZ = id is asserted."""
    c1 = pair_homology(p1, ring).complex
    c2 = pair_homology(p2, ring).complex
    pp = product_pair(p1, p2)
    cp = pair_homology(pp, ring).complex
    tensor = tensor_complex(c1, c2)
    ez, aw = ez_matrixes(c1, c2, cp, tensor)
    _assert_aw_ez_identity(ez, aw, tensor, "relative AW o EZ")
    return pp, ez, aw, tensor
