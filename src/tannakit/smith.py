"""Smith normal form with its unimodular transforms.

A Smith form with its transforms is read only for the coordinates of an
integer presentation with relations, in maps.module_from_relations (run on
a Subquotient's first class_of or lift), whose U and U^-1 fix the torsion
generators.  Invariant factors alone never need it: the residual that unit
pivots leave in linalg._sparse_divisors is read by sparse Euclid steps
(linalg._residual_divisors).
"""

from functools import cached_property

from . import _deferred
from .linalg import ZZ
from .matrix import Matrix

# a module global, so that a test can count the calls of Uinv and Vinv
_column_reduce = _deferred("forms", "_column_reduce")


class SmithForm:
    """U*A*V = D with U, V unimodular and the diagonal a divisibility chain.
    Uinv and Vinv are computed on first read; inverse_columns reads some
    columns of U^-1 off the row operations that built U."""

    def __init__(self, U, D, V, row_ops=()):
        self.U = U
        self.D = D
        self.V = V
        self._row_ops = row_ops

    def inverse_columns(self, cols):
        """The columns cols of U^-1, as sparse columns {row: entry}: U is the
        product of the row operations of the elimination, so U^-1 e_i is e_i
        with their inverses applied, the last one first.  U x = e_i is
        checked."""
        out = []
        for i in cols:
            x = [0] * self.U.rows
            x[i] = 1
            unit = tuple(x)
            for dst, src, q in reversed(self._row_ops):
                if q is not None:       # row dst -= q row src, undone
                    x[dst] += q * x[src]
                elif dst == src:        # a sign change
                    x[dst] = -x[dst]
                else:                   # a swap
                    x[dst], x[src] = x[src], x[dst]
            if self.U.apply(x) != unit:
                raise AssertionError("row operations do not invert the SNF transform")
            out.append({r: y for r, y in enumerate(x) if y})
        return out

    @cached_property
    def Uinv(self):
        return _unimodular_inverse(self.U)

    @cached_property
    def Vinv(self):
        return _unimodular_inverse(self.V)

    @property
    def invariant_factors(self):
        n = min(self.D.rows, self.D.cols)
        return tuple(self.D[i, i] for i in range(n) if self.D[i, i] != 0)

    @property
    def rank(self):
        return len(self.invariant_factors)


def _unimodular_inverse(U):
    """U^-1 for unimodular U: the Hermite basis of its columns is I, so the
    transform T of _column_reduce has U*T = I."""
    H, T, _ = _column_reduce(U)
    if H != Matrix.identity(ZZ, U.rows):
        raise AssertionError("SNF transform is not unimodular")
    return T


def _find_pivot(a, k, m, n):
    best = None
    bv = None
    for i in range(k, m):
        ai = a[i]
        for j in range(k, n):
            x = ai[j]
            if x != 0:
                ax = -x if x < 0 else x
                if bv is None or ax < bv:
                    best, bv = (i, j), ax
                    if ax == 1:
                        return best
    return best


def smith_normal_form(A):
    """Smith normal form of an integer matrix, with transforms.

    Eliminates on one bordered matrix: A with I_m to its right, which becomes
    U, and I_n below it, which becomes V.  A row operation is one pass over
    A and U, a column operation one pass over A and V.  Pivot selection
    prefers the entry of smallest absolute value, which keeps intermediate
    entries from exploding on the matrix sizes used here.
    """
    if A.ring != ZZ:
        raise ValueError("smith_normal_form requires an integer matrix")
    m, n = A.rows, A.cols
    a = [list(r) + [int(i == j) for j in range(m)] for i, r in enumerate(A.data)]
    a += [[int(i == j) for j in range(n)] for i in range(n)]
    ops = []        # the row operations, in order, for SmithForm.inverse_columns

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        ops.append((i, j, None))

    def addmul_row(dst, src, q):
        # row_dst -= q * row_src
        a[dst] = [x - q * y for x, y in zip(a[dst], a[src])]
        ops.append((dst, src, q))

    def addmul_col(dst, src, q):
        # col_dst -= q * col_src
        for row in a:
            row[dst] -= q * row[src]

    def clear_position(k):
        while True:
            # bring the smallest entry of row/col k (from index k on) to (k,k)
            piv = None
            bv = None
            for i in range(k, m):
                x = a[i][k]
                if x != 0:
                    ax = abs(x)
                    if bv is None or ax < bv:
                        piv, bv = (i, k), ax
            for j in range(k, n):
                x = a[k][j]
                if x != 0:
                    ax = abs(x)
                    if bv is None or ax < bv:
                        piv, bv = (k, j), ax
            if piv is None:
                return False
            pi, pj = piv
            if pi != k:
                swap_rows(pi, k)
            elif pj != k:
                swap_cols(pj, k)
            p = a[k][k]
            done = True
            for i in range(k + 1, m):
                if a[i][k] != 0:
                    q = a[i][k] // p
                    if q:
                        addmul_row(i, k, q)
                    if a[i][k] != 0:
                        done = False
            for j in range(k + 1, n):
                if a[k][j] != 0:
                    q = a[k][j] // p
                    if q:
                        addmul_col(j, k, q)
                    if a[k][j] != 0:
                        done = False
            if done:
                return True

    r = min(m, n)
    k = 0
    while k < r:
        # move some nonzero entry into the working square first
        piv = _find_pivot(a, k, m, n)
        if piv is None:
            break
        if a[k][k] == 0 or abs(a[piv[0]][piv[1]]) < abs(a[k][k]):
            if piv[0] != k:
                swap_rows(piv[0], k)
            if piv[1] != k:
                swap_cols(piv[1], k)
        clear_position(k)
        k += 1
    rank = k

    # enforce the divisibility chain
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            di, dj = a[i][i], a[i + 1][i + 1]
            if dj % di != 0:
                addmul_col(i, i + 1, -1)  # col_i += col_{i+1}
                clear_position(i)
                changed = True
    for i in range(rank):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            ops.append((i, i, None))

    form = SmithForm(Matrix(ZZ, [row[n:] for row in a[:m]], m, m),
                     Matrix(ZZ, [row[:n] for row in a[:m]], m, n),
                     Matrix(ZZ, a[m:], n, n), ops)
    if (form.U * A) * form.V != form.D:
        raise AssertionError("SNF internal inconsistency")
    return form
