"""Smith normal form with its unimodular transforms.

A Smith form with its transforms is read only for the coordinates of an
integer presentation with relations, in maps.module_from_relations (run on
a Subquotient's first class_of or lift), whose U and U^-1 fix the torsion
generators.  Invariant factors alone never need it: the residual that unit
pivots leave in linalg._sparse_divisors is read by sparse Euclid steps
(linalg._residual_divisors).  It eliminates on sparse integer rows
{col: int}, as linalg does, and keeps U, D and V so; the columns of U^-1
are read off its logged row operations.
"""

from .linalg import ZZ, _compose, _reduce


class SmithForm:
    """U A V = D with U, V unimodular and the diagonal a divisibility chain,
    as sparse rows u_rows, d_rows and v_rows.  inverse_columns reads columns
    of U^-1 off the row operations of U."""

    def __init__(self, U, D, V, row_ops=()):
        self.u_rows, self.d_rows, self.v_rows, self._row_ops = U, D, V, row_ops

    def inverse_columns(self, cols):
        """The columns cols of U^-1, as sparse columns {row: entry}: U is the
        product of the row operations of the elimination, so U^-1 e_i is e_i
        with their inverses applied, the last one first.  U x = e_i is
        checked."""
        out = []
        for i in cols:
            x = [0] * len(self.u_rows)
            x[i] = 1
            unit = x[:]
            for dst, src, q in reversed(self._row_ops):
                if q is not None:       # row dst -= q row src, undone
                    x[dst] += q * x[src]
                elif dst == src:        # a sign change
                    x[dst] = -x[dst]
                else:                   # a swap
                    x[dst], x[src] = x[src], x[dst]
            if [sum(y * x[c] for c, y in row.items()) for row in self.u_rows] != unit:
                raise AssertionError("row operations do not invert the SNF transform")
            out.append({r: y for r, y in enumerate(x) if y})
        return out

    @property
    def invariant_factors(self):
        return tuple(r[i] for i, r in enumerate(self.d_rows) if i in r)

    @property
    def rank(self):
        return len(self.invariant_factors)


def smith_normal_form(A):
    """Smith normal form of an integer matrix, with transforms.

    Eliminates on sparse integer rows {col: int}: row i < m is A's row i
    with U's identity row at columns n.., and the n rows after them are V's
    identity.  A row step is linalg._reduce by the pivot row, which carries
    U along; a column step is a pass over the rows, A's and V's, that hold
    its source column.  Pivot selection prefers the entry of smallest
    absolute value, first in row-major order, which keeps intermediate
    entries from exploding on the matrix sizes used here.  U A V = D is
    checked on the sparse rows, as the columns of V^T A^T U^T.
    """
    if A.ring != ZZ:
        raise ValueError("smith_normal_form requires an integer matrix")
    m, n = A.rows, A.cols
    rows = [{j: x for j, x in enumerate(r) if x} for r in A.data]
    a = [{**r, n + i: 1} for i, r in enumerate(rows)] + [{j: 1} for j in range(n)]
    ops = []        # the row operations, in order, for SmithForm.inverse_columns

    def swap_cols(i, j):
        for row in a:
            x, y = row.pop(i, 0), row.pop(j, 0)
            if x:
                row[j] = x
            if y:
                row[i] = y

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        ops.append((i, j, None))

    def addmul_col(dst, src, q):
        # col_dst -= q * col_src, q != 0
        for row in a:
            if src in row:
                x = row.get(dst, 0) - q * row[src]
                if x:
                    row[dst] = x
                else:
                    del row[dst]

    def clear_position(k):
        while True:
            # bring the smallest entry of col/row k (from index k on) to
            # (k,k): the first one of column k downwards, then of row k
            piv = min([(abs(a[i][k]), 0, i) for i in range(k, m) if k in a[i]]
                      + [(abs(x), 1, j) for j, x in a[k].items() if k < j < n], default=None)
            if piv is None:
                return
            _, in_row, i = piv
            if in_row:
                swap_cols(i, k)
            elif i != k:
                swap_rows(i, k)
            piv, p = a[k], a[k][k]
            done = True
            for i in range(k + 1, m):
                if k in a[i]:
                    q = a[i][k] // p
                    if q:
                        a[i] = _reduce(a[i], piv, k, ZZ)
                        ops.append((i, k, q))
                    done = done and k not in a[i]
            for j in [j for j in piv if k < j < n]:
                q = piv[j] // p
                if q:
                    addmul_col(j, k, q)
                done = done and j not in piv
            if done:
                return

    k = 0
    while k < min(m, n):
        # move the smallest entry of the working square to (k, k) unless
        # a[k][k] is nonzero and no larger; a unit ends the scan early
        piv = None
        for i in range(k, m):
            for j, x in a[i].items():
                if k <= j < n and (piv is None or (abs(x), i, j) < piv):
                    piv = (abs(x), i, j)
            if piv and piv[0] == 1:
                break
        if piv is None:
            break
        x, i, j = piv
        if k not in a[k] or x < abs(a[k][k]):
            if i != k:
                swap_rows(i, k)
            if j != k:
                swap_cols(j, k)
        clear_position(k)
        k += 1

    # enforce the divisibility chain
    changed = True
    while changed:
        changed = False
        for i in range(k - 1):
            if a[i + 1][i + 1] % a[i][i]:
                addmul_col(i, i + 1, -1)  # col_i += col_{i+1}
                clear_position(i)
                changed = True
    for i in range(k):
        if a[i][i] < 0:
            a[i] = {j: -x for j, x in a[i].items()}
            ops.append((i, i, None))

    form = SmithForm([{j - n: x for j, x in r.items() if j >= n} for r in a[:m]],
                     [{j: x for j, x in r.items() if j < n} for r in a[:m]], a[m:], ops)
    if _compose(form.v_rows, _compose(rows, form.u_rows)) != form.d_rows:
        raise AssertionError("SNF internal inconsistency")
    return form
