"""Chain-level reduction of a free chain complex onto a small residual one.

The unit pivots that linalg._unit_pivots eliminates from the differentials
form a reduction of C onto the residual complex R (Kaczynski, Mischaikow and
Mrozek, Computational Homology, 2004, ch. 4; Rubio and Sergeraert,
Constructive algebraic topology, 2002): chain maps f: C -> R and g: R -> C
and a homotopy h: C -> C of degree +1 with

    f g = id,    g f = id - (dh + hd).

The differentials are reduced from the lowest degree up, each on the rows
(cells one degree down) that no earlier pivot used.  So each cell of C is
the pivot row i of one differential, the pivot column j of the next, or a
cell of R.  R is a ChainComplex whose labels are the cells of C it keeps
and whose columns are the residual the elimination leaves.  f, g and h are
kept as sparse integer columns, and the identities are checked exactly
whenever a reduction is built.

The checked identities make f and g inverse isomorphisms H(C) = H(R), so
tannakit.les reads every node of its certificate off the residual
complexes, which are small, and C's full differentials are eliminated
once, here.  Only `les` imports this module: its certificate holds ranks
and defect modules only, while every other command prints coordinates in
the Hermite cycle basis of ChainComplex.homology.
"""

from .linalg import _compose, _unit_pivots
from .simplicial import ChainComplex


def reduction(cx):
    """The reduction of cx, built and checked once and kept on cx."""
    if cx._reduction is None:
        cx._reduction = Reduction(cx)
    return cx._reduction


class Reduction:
    """(f, g, h) of a ChainComplex onto its residual complex R, a
    ChainComplex on the residual columns whose d o d = 0 is checked when it
    is built.  For each degree n: R's labels R.labels(n) are the cells of
    C_n that R keeps, f[n] has one column per cell of C_n, g[n] one per cell
    of R_n, and h[n] one per cell of C_n, in C_{n+1}."""

    __slots__ = ("complex", "residual", "f", "g", "h")

    def __init__(self, cx):
        self.complex = cx
        pivots, residual = {}, {}
        for n in cx.degrees:
            gone = {p[0] for p in pivots.get(n - 1, ())}
            rows = {}
            for i, col in enumerate(cx._cols.get(n, ())):
                row = {j: x for j, x in col.items() if j not in gone}
                if row:
                    rows[i] = row
            pivots[n] = _unit_pivots(rows)
            residual[n] = rows
        cells = {}
        for n in cx.degrees:
            paired = {p[0] for p in pivots[n]} | {p[1] for p in pivots.get(n + 1, ())}
            cells[n] = [c for c in range(cx.rank(n)) if c not in paired]
        self.residual = ChainComplex(cx.ring, cells, lambda n, c: residual[n].get(c, {}).items())
        self.f, self.g, self.h = {}, {}, {}
        gammas = {}
        for n in cx.degrees:
            # each pivot t takes column[k] times the chain of its row from
            # row k, so cell k of C_n ends as k - sum of column[k] * gamma_t,
            # where gamma_t is the chain of pivot row t when it was eliminated
            into, gammas[n] = {}, []
            for t, (i, _, column, _) in enumerate(pivots[n]):
                gammas[n].append(_nonzero(_add({i: 1}, into.pop(i, {}), gammas[n])))
                for k, c in column.items():
                    if k != i:
                        into.setdefault(k, {})[t] = -c
            self.g[n] = [_nonzero(_add({c: 1}, into.get(c, {}), gammas[n]))
                         for c in cells[n]]
        for n in cx.degrees:
            # pivot column j of d_{n+1}, last pivot first: h(j) = p (gamma -
            # sum of prow[c] h(c)) and f(j) = -p sum of prow[c] f(c) over the
            # other columns c of prow, whose h and f are known by then
            self.h[n] = h = [{} for _ in range(cx.rank(n))]
            self.f[n] = f = [{} for _ in range(cx.rank(n))]
            for k, c in enumerate(cells[n]):
                f[c] = {k: 1}
            ups = pivots.get(n + 1, ())
            for t in range(len(ups) - 1, -1, -1):
                _, j, _, prow = ups[t]
                rest = {c: -y for c, y in prow.items() if c != j}
                h[j] = _nonzero(_add(dict(gammas[n + 1][t]), rest, h), prow[j])
                f[j] = _nonzero(_add({}, rest, f), prow[j])
        self.check()

    def check(self):
        """Raise AssertionError unless f g = id, g f = id - (dh + hd), and f
        and g are chain maps."""
        cx, R = self.complex, self.residual
        for n in cx.degrees:
            d = cx._cols.get(n, [{}] * cx.rank(n))
            up, below = cx._cols.get(n + 1), self.h.get(n - 1)
            f, g, h = self.f[n], self.g[n], self.h[n]
            for k, col in enumerate(g):
                if _nonzero(_add({}, col, f)) != {k: 1}:
                    raise AssertionError("reduction: f g != id in degree %d" % n)
            for c in range(cx.rank(n)):
                if _nonzero(_add(_add(_add({}, f[c], g), h[c], up), d[c], below)) != {c: 1}:
                    raise AssertionError("reduction: g f != id - (dh + hd) in degree %d" % n)
            if _compose(R.columns(n), f) != _compose(self.f.get(n - 1), d):
                raise AssertionError("reduction: f is not a chain map in degree %d" % n)
            if _compose(cx._cols.get(n), g) != _compose(self.g.get(n - 1), R.columns(n)):
                raise AssertionError("reduction: g is not a chain map in degree %d" % n)


def _add(acc, col, cols):
    """acc plus the sum of col[k] * cols[k], for a sparse vector col and
    sparse columns cols; acc is updated in place and may hold zeros."""
    for k, x in col.items():
        for i, y in cols[k].items():
            acc[i] = acc.get(i, 0) + x * y
    return acc


def _nonzero(acc, scale=1):
    """scale times acc, without its zero entries."""
    return {i: scale * x for i, x in acc.items() if x}
