"""Very good pairs and filtrations, filtration complexes and their
comparison with homology, with the filtration and compare-filtration
commands.  The Filtration class itself, its data and checks, lives in
tannakit.structures, so that parsing a corpus that declares filtrations does
not load this module; it is imported back here.

"Dimension" of a subcomplex means its maximal simplex dimension, and the
smoothness clause of the geometric definition of (very) good pairs is not
modeled; the predicate tests only the dimension bounds and the homological
condition.  A pair (X, Z, n) with X != Z is very good when dim X = n,
dim Z <= n-1 and h_*(X, Z; Z) is free and supported precisely in degree n
(in particular nonzero there); with X = Z it is very good when dim X < n.
"""

from . import _lazy
from .errors import InputError, InvalidPair
from .linalg import FgModule, ZZ
from .maps import ModuleMap, subquotient, triple_boundary
from .matrix import jmatrix
from .simplicial import SimplicialPair, pair_homology, relative_homology
from .structures import Filtration

# the name of a later layer that bench/ reads through this module
__getattr__ = _lazy(__name__, {"search": "find_very_good_refinement"})


class PairGoodness:
    __slots__ = ("ok", "reasons", "homology")

    def __init__(self, ok, reasons, homology):
        self.ok = ok
        self.reasons = tuple(reasons)
        self.homology = homology

    def as_dict(self):
        return {"ok": self.ok, "reasons": list(self.reasons),
                "homology": {str(n): m.describe() for n, m in sorted(self.homology.items())}}


class VeryGoodReport:
    __slots__ = ("levels", "ok")

    def __init__(self, levels):
        self.levels = tuple(levels)
        self.ok = all(l.ok for l in levels)

    def as_dict(self):
        return {"ok": self.ok, "levels": [l.as_dict() for l in self.levels]}


def is_very_good_pair(X, Z, n):
    """(flag, PairGoodness) for the simplicial surrogate of a very good pair."""
    if not Z.is_subcomplex_of(X):
        raise InvalidPair("Z is not a subcomplex of X")
    reasons = []
    table = {}
    if X == Z:
        if X.dim < n:
            return True, PairGoodness(True, [], {})
        reasons.append("X = Z but dim X = %d is not < %d" % (X.dim, n))
        return False, PairGoodness(False, reasons, {})
    if X.dim != n:
        reasons.append("dim X = %d differs from %d" % (X.dim, n))
    if Z.dim > n - 1:
        reasons.append("dim Z = %d exceeds %d" % (Z.dim, n - 1))
    cx = pair_homology(SimplicialPair(X, Z), ZZ)
    for d in range(0, X.dim + 1):
        m = cx.homology_module(d)
        table[d] = m
        if d != n and not m.is_zero():
            reasons.append("h_%d nonzero: %s" % (d, m.describe()))
        if d == n:
            if m.torsion:
                reasons.append("h_%d has torsion: %s" % (d, m.describe()))
            if m.is_zero():
                reasons.append("h_%d vanishes" % d)
    return not reasons, PairGoodness(not reasons, reasons, table)


def very_good_report(F: Filtration) -> VeryGoodReport:
    out = []
    for i in range(0, F.length + 1):
        _, detail = is_very_good_pair(F.level(i), F.level(i - 1), i)
        out.append(detail)
    return VeryGoodReport(out)


class ModuleComplex:
    """Complex of f.g. modules with decreasing ModuleMap differentials."""

    __slots__ = ("ring", "terms", "maps")

    def __init__(self, ring, terms, maps):
        self.ring = ring
        self.terms = dict(terms)
        self.maps = dict(maps)
        for d, m in self.maps.items():
            if m.source != self.term(d) or m.target != self.term(d - 1):
                raise ValueError("differential %d does not match terms" % d)
        for d in list(self.maps):
            if d - 1 in self.maps:
                if not self.maps[d - 1].compose(self.maps[d]).is_zero_map():
                    raise AssertionError("module complex: d o d != 0 at %d" % d)

    def term(self, d) -> FgModule:
        return self.terms.get(d, FgModule.zero(self.ring))

    def differential(self, d) -> ModuleMap:
        m = self.maps.get(d)
        if m is None:
            m = ModuleMap.zero(self.term(d), self.term(d - 1))
        return m

    @property
    def top_degree(self):
        return max(self.terms) if self.terms else -1

    def homology(self, d) -> FgModule:
        return subquotient(self.differential(d + 1), self.differential(d)).module


def filtration_complex(F: Filtration, ring=ZZ) -> ModuleComplex:
    """Terms h_i(F_i, F_{i-1}); differentials the triple boundaries."""
    terms = {i: relative_homology(SimplicialPair(F.level(i), F.level(i - 1)), i, ring)
             for i in range(0, F.length + 1)}
    maps = {}
    for i in range(1, F.length + 1):
        maps[i] = triple_boundary(F.level(i), F.level(i - 1), F.level(i - 2), i, ring)
    return ModuleComplex(ring, terms, maps)


class FiltrationComparison:
    __slots__ = ("ring", "advisory", "rows", "ok")

    def __init__(self, ring, advisory, rows):
        self.ring = ring
        self.advisory = advisory
        self.rows = rows
        self.ok = all(r["match"] for r in rows)

    def as_dict(self):
        return {"ring": self.ring, "ok": self.ok, "advisory": self.advisory,
                "degrees": self.rows}


def compare_filtration_homology(F: Filtration, ring=ZZ) -> FiltrationComparison:
    """Degreewise comparison of h(filtration complex) with h(X)."""
    mc = filtration_complex(F, ring)
    advisory = None
    if not very_good_report(F).ok:
        advisory = "filtration is not very good; comparison is advisory"
    rows = []
    top = max(F.length, F.X.dim)
    px = SimplicialPair(F.X)
    for d in range(0, top + 1):
        a = mc.homology(d)
        b = relative_homology(px, d, ring)
        rows.append({"degree": d, "filtration": a.describe(),
                     "homology": b.describe(), "match": a == b})
    return FiltrationComparison(ring, advisory, rows)


def _filtration(corpus, name):
    """The corpus filtration `name`; an unknown name is an InputError."""
    if name not in corpus.filtrations:
        raise InputError("unknown filtration %r" % name)
    return corpus.filtrations[name]


def cmd_filtration(corpus, ring, args):
    """The filtration command: the terms and differentials of a filtration
    complex, and whether the filtration is very good."""
    F = _filtration(corpus, args.filtration)
    mc = filtration_complex(F, ring)
    rep = very_good_report(F)
    res = {"filtration": args.filtration, "very_good": rep.ok,
           "terms": {"degree %d" % i: mc.term(i).describe()
                     for i in range(0, F.length + 1)},
           "differentials": {"d%d" % i: jmatrix(d.columns, d.target.ngens)
                             for i, d in mc.maps.items()}}
    return res, True


def cmd_compare_filtration(corpus, ring, args):
    """The compare-filtration command: h of the filtration complex against
    h(X), degree by degree."""
    F = _filtration(corpus, args.filtration)
    cert = compare_filtration_homology(F, ring)
    return {"filtration": args.filtration, "comparison": cert.as_dict()}, cert.ok
