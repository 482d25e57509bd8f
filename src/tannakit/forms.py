"""The dense canonical forms rref, hnf_columns and _column_reduce, the
exact determinant and the Kronecker product Matrix.kron.

The kunneth command calls one of them, the determinant of tau.  The tests
read the three forms against their dense oracles, SmithForm.Uinv and .Vinv
(the full inverses of criterion 01) invert a transform by _column_reduce,
and the benchmark's tracer wraps rref and hnf_columns by name.  Each form
reads linalg._echelon, whose rows over Q are fraction-free, and divides
them by their pivots.
"""

from fractions import Fraction
from math import lcm, prod

from .linalg import QQ, ZZ, _echelon, _integral, _reduced_columns
from .maps import _nonzero_columns
from .matrix import Matrix


def _column_reduce(A):
    """_reduced_columns of A as Matrices (H, T, K): A*T = H, and K is a
    basis of ker(A); over Q each reduced column is divided by its pivot, the
    first entry of its H part, or of its T part in K."""
    m, ring = A.rows, A.ring
    head, tail, image = _reduced_columns(ring, _nonzero_columns(A), m)
    if ring == QQ:
        pivots = [h[min(h)] for h in head] + [t[min(t)] for t in tail[image:]]
        head = [{i: Fraction(x, p) for i, x in h.items()} for h, p in zip(head, pivots)]
        tail = [{i: Fraction(x, p) for i, x in t.items()} for t, p in zip(tail, pivots)]
    return (Matrix.from_sparse(ring, head, m),
            Matrix.from_sparse(ring, tail[:image], A.cols),
            Matrix.from_sparse(ring, tail[image:], A.cols))


def rref(A):
    """Reduced row echelon form over Q: returns (R, pivot_columns), R with
    Fraction entries and its zero rows last.  The rows are scaled to
    integers and reduced by _echelon."""
    pivots, basis = _echelon(_integral(_nonzero_columns(A.transpose())), QQ)
    rows = [[Fraction(r.get(j, 0), r[c]) for j in range(A.cols)] for c, r in zip(pivots, basis)]
    rows += [[Fraction(0)] * A.cols] * (A.rows - len(rows))
    return Matrix(QQ, rows, A.rows, A.cols), tuple(pivots)


def hnf_columns(A):
    """Canonical (column-style Hermite) basis of the column lattice over Z.

    Columns are ordered by pivot row; pivots positive; entries of earlier
    columns in a pivot row reduced into [0, pivot).  Zero columns dropped.
    """
    if A.ring != ZZ:
        raise ValueError("hnf_columns requires an integer matrix")
    return Matrix.from_sparse(ZZ, _echelon(_nonzero_columns(A), ZZ)[1], A.rows)


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


def kron(A, B):
    """Matrix.kron: the Kronecker product of A and B, row-major flattening
    of tensor indices."""
    if A.ring != B.ring:
        raise ValueError("ring mismatch in kron")
    ocols = B.cols
    width = A.cols * ocols
    zero_row = (0,) * width
    out = []
    for i in range(A.rows):
        arow = A.data[i]
        if not any(arow):
            out.extend([zero_row] * B.rows)
            continue
        for r in range(B.rows):
            brow = B.data[r]
            acc = [0] * width
            for j, a in enumerate(arow):
                if a:
                    base = j * ocols
                    for s, b in enumerate(brow):
                        if b:
                            acc[base + s] = a * b
            out.append(acc)
    return Matrix(A.ring, out, A.rows * B.rows, width)
