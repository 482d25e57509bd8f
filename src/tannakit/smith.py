"""Smith normal form with its unimodular transforms, the exact determinant,
the dense canonical forms rref and hnf_columns, and _column_reduce, the
dense (H, T, K) of linalg._reduced_columns that inverts a transform.

This module loads on first use: only where a Smith form with its
transforms is needed, for the coordinates of an integer presentation with
relations in maps.module_from_relations (run on a Subquotient's first
class_of or lift), whose U and U^-1 fix the torsion generators, and where a
determinant is computed.  Invariant factors alone never load
it: the residual that unit pivots leave in linalg._sparse_divisors is read
by sparse Euclid steps (linalg._residual_divisors), so a homology command
never compiles it, torsion or not.  linalg and the package serve its names
through a module __getattr__ (PEP 562).  rref and hnf_columns read
linalg._echelon; no library code calls them, and they stay for the tests
and the benchmark's tracer.
"""

from fractions import Fraction
from functools import cached_property
from math import lcm, prod

from .linalg import QQ, ZZ, _echelon, _integer_rows, _nonzero_columns, _reduced_columns
from .matrix import Matrix


class SmithForm:
    """U*A*V = D with U, V unimodular and the diagonal a divisibility chain.
    Uinv and Vinv are computed on first read."""

    def __init__(self, U, D, V):
        self.U = U
        self.D = D
        self.V = V

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


def _column_reduce(A):
    """_reduced_columns of A as Matrices (H, T, K): A*T = H, and K is a
    basis of ker(A)."""
    m, ring = A.rows, A.ring
    head, tail, image = _reduced_columns(ring, _nonzero_columns(A), m)
    return (Matrix.from_sparse(ring, head, m),
            Matrix.from_sparse(ring, tail[:image], A.cols),
            Matrix.from_sparse(ring, tail[image:], A.cols))


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

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]

    def addmul_row(dst, src, q):
        # row_dst -= q * row_src
        a[dst] = [x - q * y for x, y in zip(a[dst], a[src])]

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
                a[pi], a[k] = a[k], a[pi]
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
                a[piv[0]], a[k] = a[k], a[piv[0]]
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

    form = SmithForm(Matrix(ZZ, [row[n:] for row in a[:m]], m, m),
                     Matrix(ZZ, [row[:n] for row in a[:m]], m, n),
                     Matrix(ZZ, a[m:], n, n))
    if (form.U * A) * form.V != form.D:
        raise AssertionError("SNF internal inconsistency")
    return form


def determinant(A):
    """Exact determinant: fraction-free Bareiss, over Q on the rows scaled to
    integers."""
    if A.rows != A.cols:
        raise ValueError("determinant of a non-square matrix")
    if A.ring == QQ:
        scale = [lcm(*(x.denominator for x in row)) for row in A.data]
        d = determinant(Matrix(ZZ, [[x * m for x in row]
                                    for row, m in zip(A.data, scale)]))
        return Fraction(d, prod(scale))
    n = A.rows
    if n == 0:
        return 1
    a = [list(r) for r in A.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def rref(A):
    """Reduced row echelon form over Q: returns (R, pivot_columns), R with
    Fraction entries and its zero rows last.  The rows are scaled to
    integers and reduced by _echelon."""
    pivots, basis = _echelon(_integer_rows(A), QQ)
    zero = Fraction(0)
    rows = [[r.get(j, zero) for j in range(A.cols)] for r in basis]
    rows += [[zero] * A.cols] * (A.rows - len(rows))
    return Matrix(QQ, rows, A.rows, A.cols), tuple(pivots)


def hnf_columns(A):
    """Canonical (column-style Hermite) basis of the column lattice over Z.

    Columns are ordered by pivot row; pivots positive; entries of earlier
    columns in a pivot row reduced into [0, pivot).  Zero columns dropped.
    """
    if A.ring != ZZ:
        raise ValueError("hnf_columns requires an integer matrix")
    return Matrix.from_sparse(ZZ, _echelon(_nonzero_columns(A), ZZ)[1], A.rows)
