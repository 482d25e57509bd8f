"""The very-good-refinement search and the very-good-search command: the
first very good filtration containing a given one levelwise, in canonical
order, with its report.
"""

from itertools import combinations

from .errors import BudgetExceeded, InputError, InvalidFiltration
from .filtration import (
    _filtration, compare_filtration_homology, is_very_good_pair, very_good_report,
)
from .simplicial import SimplicialComplex
from .structures import Filtration


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


def cmd_very_good_search(corpus, ring, args):
    """The very-good-search command: the first very good refinement of the
    base filtration (by default the empty levels below X), compared with
    h(X) when found."""
    X = corpus.expr(args.X)
    if args.base:
        F = _filtration(corpus, args.base)
    else:
        n = max(X.dim, 0)
        F = Filtration(X, [SimplicialComplex.empty()] * n + [X])
    G, report = find_very_good_refinement(X, F, args.budget)
    res = {"space": args.X, "report": report.as_dict()}
    if G is None:
        return res, False
    res["levels"] = [sorted(" ".join(s) for s in lvl.all_simplices())
                     for lvl in G.levels]
    comparison = compare_filtration_homology(G, ring)
    res["comparison"] = comparison.as_dict()
    return res, comparison.ok
