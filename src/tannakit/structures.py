"""Simplicial maps and filtrations, and the corpus sections built on
complexes besides pairs: map, filtration, cover and divisors.

A Corpus imports this module at the first such section it parses, so a
corpus that declares none of them (a homology ladder) never compiles it;
the bundled corpus declares them.  Filtration holds the data and checks of
a filtration; its algorithms are in tannakit.filtration.
"""

from .corpus import _split_entries
from .errors import InputError, InvalidFiltration, NotSimplicial
from .simplicial import SimplicialComplex


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


def load_map(corpus, sec):
    """A [map] section: a vertex assignment between two expressions, or the
    swap, a projection or the associativity map of staircase products."""
    kind = sec.get("kind")
    if kind is None:
        source = corpus.expr(sec.require("source"))
        target = corpus.expr(sec.require("target"))
        assignment = {}
        for part in _split_entries(sec.require("assign"), " "):
            if ":" not in part:
                raise InputError("map %r: bad assignment %r" % (sec.name, part))
            a, b = part.split(":", 1)
            assignment[a] = b
        corpus.maps[sec.name] = SimplicialMap(source, target, assignment)
        return
    left = corpus.expr(sec.require("left"))
    right = corpus.expr(sec.require("right"))
    if kind == "swap":
        src = corpus._product(left, right)
        tgt = corpus._product(right, left)
        assignment = {v: (v[1], v[0]) for v in src.vertices}
    elif kind == "proj1":
        src = corpus._product(left, right)
        tgt = left
        assignment = {v: v[0] for v in src.vertices}
    elif kind == "proj2":
        src = corpus._product(left, right)
        tgt = right
        assignment = {v: v[1] for v in src.vertices}
    elif kind == "assoc":
        third = corpus.expr(sec.require("third"))
        src = corpus._product(corpus._product(left, right), third)
        tgt = corpus._product(left, corpus._product(right, third))
        assignment = {v: (v[0][0], (v[0][1], v[1])) for v in src.vertices}
    else:
        raise InputError("map %r: unknown kind %r" % (sec.name, kind))
    corpus.maps[sec.name] = SimplicialMap(src, tgt, assignment)


def _space_and_list(corpus, sec, key):
    """(the complex of the section's space, the complexes of its key, a list
    of expressions separated by ;)."""
    X = corpus.expr(sec.require("space"))
    return X, [corpus.expr(e) for e in _split_entries(sec.require(key), ";")]


def load_filtration(corpus, sec):
    corpus.filtrations[sec.name] = Filtration(*_space_and_list(corpus, sec, "levels"))


def load_cover(corpus, sec):
    corpus.covers[sec.name] = _space_and_list(corpus, sec, "sets")


def load_divisors(corpus, sec):
    corpus.divisors[sec.name] = _space_and_list(corpus, sec, "components")
