"""Very good pairs and filtrations, filtration complexes, their comparison
with homology, pushforward/product constructions and the refinement search.
The Filtration class itself, its data and checks, lives in
tannakit.structures, so that parsing a corpus that declares filtrations does
not load this module; it is imported back here.

"Dimension" of a subcomplex means its maximal simplex dimension, and the
smoothness clause of the geometric definition of (very) good pairs is not
modeled; the predicate tests only the dimension bounds and the homological
condition.  A pair (X, Z, n) with X != Z is very good when dim X = n,
dim Z <= n-1 and h_*(X, Z; Z) is free and supported precisely in degree n
(in particular nonzero there); with X = Z it is very good when dim X < n.
"""

from itertools import combinations

from .errors import (
    BudgetExceeded, InputError, InvalidFiltration, InvalidPair, TorsionTerm,
)
from .linalg import FgModule, ZZ
from .maps import (
    ModuleMap, _ez, induced_map_on_homology, subquotient, tensor_complex, triple_boundary,
)
from .matrix import Matrix
from .simplicial import (
    ChainComplex, SimplicialComplex, SimplicialPair, _chain_image, pair_homology,
    product_complex, relative_homology,
)
from .structures import Filtration, SimplicialMap


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

    @classmethod
    def _of_free_complex(cls, cx):
        """The ModuleComplex of free modules of a ChainComplex, whose
        construction has already checked d o d = 0."""
        mc = cls.__new__(cls)
        mc.ring = cx.ring
        mc.terms = {d: FgModule.free(cx.ring, cx.rank(d)) for d in cx.degrees}
        mc.maps = {d: ModuleMap(mc.terms[d], mc.terms[d - 1], cx.boundary(d))
                   for d in cx.degrees if d - 1 in mc.terms}
        return mc

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


class ModuleComplexMap:
    """Degreewise ModuleMaps commuting with the differentials."""

    __slots__ = ("source", "target", "components")

    def __init__(self, source, target, components):
        self.source = source
        self.target = target
        self.components = dict(components)
        for d in set(source.terms) | set(target.terms):
            left = self.target.differential(d).compose(self.component(d))
            right = self.component(d - 1).compose(self.source.differential(d))
            if left != right:
                raise AssertionError("module complex map fails at degree %d" % d)

    def component(self, d) -> ModuleMap:
        m = self.components.get(d)
        if m is None:
            m = ModuleMap.zero(self.source.term(d), self.target.term(d))
        return m


def pushforward_filtration(f: SimplicialMap, F: Filtration, ring=ZZ):
    """Image filtration on the target, with the induced map of complexes.

    Levels are the literal image subcomplexes below dim Y and the whole of Y
    from dim Y on (simplicial images are closed, replacing Zariski closure).
    """
    Y = f.target
    m = max(Y.dim, 0)
    levels = []
    for i in range(0, m + 1):
        if i < m:
            levels.append(f.image(F.level(i)))
        else:
            levels.append(Y)
    G = Filtration(Y, levels)
    src = filtration_complex(F, ring)
    tgt = filtration_complex(G, ring)
    comps = {}
    top = max(F.length, G.length)
    for i in range(0, top + 1):
        s = src.term(i)
        t = tgt.term(i)
        if s.is_zero() or t.is_zero():
            comps[i] = ModuleMap.zero(s, t)
            continue
        fi = f.restrict(F.level(i))
        comps[i] = induced_map_on_homology(
            fi, SimplicialPair(F.level(i), F.level(i - 1)),
            SimplicialPair(G.level(i), G.level(i - 1)), i, ring)
    return G, ModuleComplexMap(src, tgt, comps)


def _tensor_module_complex(a: ModuleComplex, b: ModuleComplex) -> ModuleComplex:
    """Tensor of complexes of free modules: tensor_complex on generator
    indices, so generators (p, i, j) come in kron order, p ascending."""
    for mc in (a, b):
        for d, t in mc.terms.items():
            if t.torsion:
                raise TorsionTerm(
                    "Kunneth construction needs free terms; degree %d is %s"
                    % (d, t.describe()))
    return ModuleComplex._of_free_complex(
        tensor_complex(_generator_complex(a), _generator_complex(b)))


def _generator_complex(mc: ModuleComplex) -> ChainComplex:
    """A free ModuleComplex as a ChainComplex labeled by generator index."""
    def faces(d, j):
        return enumerate(mc.differential(d).matrix.col(j))
    return ChainComplex(mc.ring, {d: range(t.ngens) for d, t in mc.terms.items()}, faces)


def product_filtration(F: Filtration, G: Filtration, ring=ZZ):
    """(F x G)_i = union of F_p x G_q over p+q = i, with the Kunneth map.

    Returns (filtration, source tensor complex, kunneth ModuleComplexMap).
    """
    n, m = F.length, G.length
    levels = []
    for i in range(0, n + m + 1):
        lvl = SimplicialComplex.empty()
        for p in range(0, i + 1):
            q = i - p
            piece = product_complex(F.level(p), G.level(q))
            lvl = lvl.union(piece)
        levels.append(lvl)
    XY = product_complex(F.X, G.X)
    if levels[-1] != XY:
        raise InvalidFiltration("product filtration fails to exhaust the product")
    FG = Filtration(XY, levels)

    ca = filtration_complex(F, ring)
    cb = filtration_complex(G, ring)
    tensor = _tensor_module_complex(ca, cb)
    target = filtration_complex(FG, ring)

    pa = {i: pair_homology(SimplicialPair(F.level(i), F.level(i - 1)), ring)
          for i in range(0, n + 1)}
    pb = {i: pair_homology(SimplicialPair(G.level(i), G.level(i - 1)), ring)
          for i in range(0, m + 1)}
    pfg = {i: pair_homology(SimplicialPair(FG.level(i), FG.level(i - 1)), ring)
           for i in range(0, n + m + 1)}

    comps = {}
    for i in range(0, n + m + 1):
        src = tensor.term(i)
        tgt = target.term(i)
        if src.is_zero() or tgt.is_zero():
            comps[i] = ModuleMap.zero(src, tgt)
            continue
        cols = []
        for p in range(max(0, i - m), min(i, n) + 1):
            q = i - p
            ca_n, cb_n, cc_n = pa[p], pb[q], pfg[i]
            ha, hb, hc = ca_n.homology(p), cb_n.homology(q), cc_n.homology(i)
            for ja in range(ha.module.ngens):
                za = ha.lift(ja)
                for jb in range(hb.module.ngens):
                    zb = hb.lift(jb)
                    # EZ of the pair of cycles, read inside the product level
                    chain = (((p, sa, sb), a * b)
                             for sa, a in zip(ca_n.labels(p), za) if a
                             for sb, b in zip(cb_n.labels(q), zb))
                    image = _chain_image(_ez, i, chain)
                    cols.append(hc.class_of(tuple(image.get(path, 0)
                                                  for path in cc_n.labels(i))))
        comps[i] = ModuleMap(src, tgt,
                             Matrix.from_columns(ring, cols, rows=tgt.ngens))
    kmap = ModuleComplexMap(tensor, target, comps)
    return FG, tensor, kmap


# ---------------------------------------------------------------------------
# Refinement search
# ---------------------------------------------------------------------------

class SearchReport:
    __slots__ = ("found", "tested", "budget", "reason")

    def __init__(self, found, tested, budget, reason):
        self.found = found
        self.tested = tested
        self.budget = budget
        self.reason = reason

    def as_dict(self):
        return {"found": self.found is not None, "tested": self.tested,
                "budget": self.budget, "reason": self.reason}


def _candidate_subcomplexes(X, base, max_dim):
    """Face-closed candidates base <= Z <= X with dim Z <= max_dim, in
    (added simplex count, lexicographic) order."""
    baseset = base.all_simplices()
    pool = sorted((s for s in X.all_simplices()
                   if len(s) - 1 <= max_dim and s not in baseset),
                  key=lambda s: (len(s), s))
    for size in range(0, len(pool) + 1):
        for extra in combinations(pool, size):
            chosen = baseset | set(extra)
            closed = True
            for s in extra:
                if len(s) > 1:
                    for t in range(len(s)):
                        if s[:t] + s[t + 1:] not in chosen:
                            closed = False
                            break
                if not closed:
                    break
            if closed:
                yield SimplicialComplex((), chosen)


def find_very_good_refinement(X, F: Filtration, budget=10000):
    """First very good filtration containing F levelwise, in canonical order.

    Mirrors the inductive construction: refine the top level by searching a
    very good (X, Z, n), then recurse on Z with the lower levels.  Candidates
    are enumerated by increasing simplex count with lexicographic tie-break;
    `budget` caps the number of very-good-pair tests.  Returns
    (filtration_or_None, SearchReport); raises BudgetExceeded when the cap is
    hit before the candidates are exhausted.
    """
    if budget < 0:
        raise InputError("budget must be at least 0, got %d" % budget)
    if F.X != X:
        raise InvalidFiltration("filtration does not live on X")
    state = {"tested": 0}

    ok = very_good_report(F)
    if ok.ok:
        return F, SearchReport(F, 0, budget, "already very good")

    def recurse(current_x, required, n):
        # build levels G_0..G_n with G_n = current_x, G_i >= required[i]
        if n == 0:
            flag, _ = check(current_x, SimplicialComplex.empty(), 0)
            return [current_x] if flag else None
        if current_x.dim < n:
            lower = recurse(current_x, required[:n - 1], n - 1)
            if lower is None:
                return None
            return lower + [current_x]
        base = required[n - 1] if n - 1 < len(required) else SimplicialComplex.empty()
        for Z in _candidate_subcomplexes(current_x, base, n - 1):
            flag, _ = check(current_x, Z, n)
            if not flag:
                continue
            lower = recurse(Z, required[:n - 1], n - 1)
            if lower is not None:
                return lower + [current_x]
        return None

    def check(x, z, n):
        if state["tested"] >= budget:
            raise BudgetExceeded(
                "refinement budget of %d candidate tests exhausted" % budget,
                report=SearchReport(None, state["tested"], budget, "budget"))
        state["tested"] += 1
        return is_very_good_pair(x, z, n)

    n = F.length
    levels = recurse(X, list(F.levels[:-1]), n)
    if levels is None:
        return None, SearchReport(None, state["tested"], budget, "exhausted")
    G = Filtration(X, levels)
    if not very_good_report(G).ok:
        raise AssertionError("search returned a non very good filtration")
    return G, SearchReport(G, state["tested"], budget, "found")
