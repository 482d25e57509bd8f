"""Independent brute-force oracles used only by the test suite.

Everything here is deliberately written against the naive textbook
definitions, sharing no code path with the package: gcd-pivot diagonal
reduction without transform tracking, elementary divisors via minor gcds,
boundary matrices rebuilt from scratch, a dense commutant solver with its
own elimination, and finite enumeration over Z/p.  A few keep a dense path
the package replaced or dropped: the echelon column basis over Q read off
dense_rref, the dense row-substitution solver, End structure
constants from dense block products solved by it, the product of
truncations solved against the dense Kronecker basis of End (x) End, and
every bialgebra and comodule tensor identity as a product of dense
Kronecker matrices (the package contracts them with maps._tensor_apply).
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import gcd, lcm


# -- Smith normal form oracles ---------------------------------------------

def naive_diagonal(mat):
    """Diagonal of a Smith form by blind row/column gcd reduction.

    `mat` is a list of lists of ints.  No transforms, no pivot strategy
    beyond scanning order; returns the invariant factors (nonzero diagonal,
    divisibility enforced)."""
    a = [list(r) for r in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    k = 0
    while k < min(m, n):
        # find any nonzero entry
        found = None
        for i in range(k, m):
            for j in range(k, n):
                if a[i][j] != 0:
                    found = (i, j)
                    break
            if found:
                break
        if not found:
            break
        i, j = found
        a[k], a[i] = a[i], a[k]
        for r in range(m):
            a[r][k], a[r][j] = a[r][j], a[r][k]
        while True:
            for i in range(k + 1, m):
                while a[i][k] != 0:
                    if abs(a[i][k]) < abs(a[k][k]):
                        a[k], a[i] = a[i], a[k]
                    q = a[i][k] // a[k][k]
                    for j in range(n):
                        a[i][j] -= q * a[k][j]
            for j in range(k + 1, n):
                while a[k][j] != 0:
                    if abs(a[k][j]) < abs(a[k][k]):
                        for r in range(m):
                            a[r][k], a[r][j] = a[r][j], a[r][k]
                    q = a[k][j] // a[k][k]
                    for r in range(m):
                        a[r][j] -= q * a[r][k]
            if all(a[i][k] == 0 for i in range(k + 1, m)) and \
               all(a[k][j] == 0 for j in range(k + 1, n)):
                break
        k += 1
    diag = [abs(a[i][i]) for i in range(min(m, n)) if a[i][i] != 0]
    # enforce divisibility by gcd/lcm swaps
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            if diag[i + 1] % diag[i] != 0:
                g = gcd(diag[i], diag[i + 1])
                l = diag[i] * diag[i + 1] // g
                diag[i], diag[i + 1] = g, l
                changed = True
    return diag


def minor_gcd_divisors(mat):
    """Elementary divisors via gcds of k x k minors (small matrices only)."""
    m = len(mat)
    n = len(mat[0]) if m else 0

    def minor_det(rows, cols):
        k = len(rows)
        if k == 0:
            return 1
        if k == 1:
            return mat[rows[0]][cols[0]]
        det = 0
        for idx, c in enumerate(cols):
            sub = minor_det(rows[1:], cols[:idx] + cols[idx + 1:])
            term = mat[rows[0]][c] * sub
            det += term if idx % 2 == 0 else -term
        return det

    dks = [1]
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                g = gcd(g, minor_det(rows, cols))
        dks.append(g)
        if g == 0:
            break
    divisors = []
    for k in range(1, len(dks)):
        if dks[k] == 0:
            break
        divisors.append(dks[k] // dks[k - 1])
    return divisors


# -- homology oracle ---------------------------------------------------------

def face_closure(maximal):
    """Every nonempty face of the given simplices, as sorted tuples."""
    simplices = set()
    for s in maximal:
        s = tuple(sorted(set(s)))
        for k in range(1, len(s) + 1):
            simplices.update(combinations(s, k))
    return simplices


def pairwise_maximal(simplices):
    """The simplices that no other one strictly contains, by testing every
    pair (quadratic)."""
    return [s for s in simplices if not any(set(s) < set(t) for t in simplices)]


def staircase_product(max_x, max_y):
    """The simplices of the staircase triangulation of X x Y from its
    definition: the nonempty chains of the product order on sigma x tau, over
    maximal simplices sigma of X and tau of Y given as sorted tuples."""
    out = set()
    for s in max_x:
        for t in max_y:
            grid = sorted(product(s, t))
            for k in range(1, len(s) + len(t)):
                for c in combinations(grid, k):
                    if all(a[0] <= b[0] and a[1] <= b[1] for a, b in zip(c, c[1:])):
                        out.add(c)
    return out


def boundary_matrices(maximal):
    """Chain data of the closure of `maximal`: per-dim simplex lists plus
    boundary matrices written directly from the alternating-face formula."""
    by_dim = {}
    for s in face_closure(maximal):
        by_dim.setdefault(len(s) - 1, []).append(s)
    for d in by_dim:
        by_dim[d].sort()
    top = max(by_dim) if by_dim else -1
    mats = {}
    for d in range(1, top + 1):
        rows = {s: i for i, s in enumerate(by_dim.get(d - 1, []))}
        cols = by_dim.get(d, [])
        mat = [[0] * len(cols) for _ in rows]
        for j, s in enumerate(cols):
            for i in range(len(s)):
                face = s[:i] + s[i + 1:]
                mat[rows[face]][j] += (-1) ** i
        mats[d] = mat
    return by_dim, mats


def homology_groups(maximal, relative_to=()):
    """Integral homology of closure(maximal) rel closure(relative_to).

    Returns {degree: (betti, [torsion coefficients])}, computed with the
    naive diagonal reduction above; independent of the package code."""
    sub = set()
    for s in relative_to:
        s = tuple(sorted(s))
        for k in range(1, len(s) + 1):
            sub.update(combinations(s, k))
    by_dim, mats = boundary_matrices(maximal)
    keep = {d: [i for i, s in enumerate(by_dim.get(d, [])) if s not in sub]
            for d in by_dim}
    out = {}
    top = max(by_dim) if by_dim else -1
    for d in range(0, top + 1):
        cols_d = keep.get(d, [])
        nd = len(cols_d)
        # boundary from degree d to d-1, restricted to non-sub simplices
        if d in mats and d - 1 in keep:
            rows = keep[d - 1]
            mat_out = [[mats[d][i][j] for j in cols_d] for i in rows]
        else:
            mat_out = [[0] * nd for _ in range(0)]
        if d + 1 in mats:
            rows = cols_d
            cols_up = keep.get(d + 1, [])
            mat_in = [[mats[d + 1][i][j] for j in cols_up] for i in rows]
        else:
            mat_in = [[0] * 0 for _ in range(nd)]
        rank_out = _rank(mat_out)
        diag_in = naive_diagonal(mat_in) if nd else []
        rank_in = len(diag_in)
        betti = nd - rank_out - rank_in
        torsion = [t for t in diag_in if t > 1]
        out[d] = (betti, sorted(torsion))
    return out


def _rank(mat):
    a = [[Fraction(x) for x in row] for row in mat]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if a[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c] / a[r][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def dense_rref(mat):
    """Reduced row echelon form by dense Fraction Gauss-Jordan: the textbook
    elimination, first nonzero entry of each column as pivot.  `mat` is a
    list of rows of ints or Fractions; returns (rows of Fractions, pivots)."""
    a = [[Fraction(x) for x in row] for row in mat]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pr = None
        for i in range(r, rows):
            if a[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, tuple(pivots)


def echelon_columns(A):
    """Canonical column basis of the column span of a tannakit matrix A over
    Q: the nonzero rows of the reduced row echelon form of A^T, by
    dense_rref, as the columns of a tannakit matrix."""
    from tannakit.linalg import QQ
    from tannakit.matrix import Matrix
    rows, pivots = dense_rref([list(col) for col in zip(*A.data)])
    return Matrix.from_columns(QQ, rows[:len(pivots)], rows=A.rows)


def dense_hnf_columns(mat):
    """Column-style Hermite basis of the column lattice of `mat` (a list of
    rows of ints) by dense Euclid steps, one pivot row at a time: columns
    ordered by pivot row, pivots positive, entries of earlier columns in a
    pivot row reduced into [0, pivot), zero columns dropped.  Returns the
    basis columns as lists."""
    m = len(mat)
    active = [list(col) for col in zip(*mat)]
    result = []
    for r in range(m):
        work = [c for c in active if c[r] != 0]
        rest = [c for c in active if c[r] == 0]
        if not work:
            active = rest
            continue
        while len(work) > 1:
            work.sort(key=lambda c: abs(c[r]))
            c0 = work[0]
            newwork = [c0]
            for c in work[1:]:
                q = c[r] // c0[r]
                nc = [x - q * y for x, y in zip(c, c0)]
                if nc[r] != 0:
                    newwork.append(nc)
                else:
                    rest.append(nc)
            work = newwork
        piv = work[0]
        if piv[r] < 0:
            piv = [-x for x in piv]
        for prev in result:
            if prev[r] != 0:
                q = prev[r] // piv[r]
                if q:
                    for i in range(m):
                        prev[i] -= q * piv[i]
        result.append(piv)
        active = rest
    return result


def dense_smith_normal_form(A):
    """(U, D, V, Uinv, Vinv) with U*A*V = D for a tannakit integer matrix A,
    by the package's pivot rules on four separate dense transforms: every
    row and column operation is applied to a, to U or V, and inversely to
    Uinv or Vinv.  The transforms are not unique, so the package's Smith
    form must take exactly these steps to give the same ones."""
    from tannakit.linalg import ZZ
    from tannakit.matrix import Matrix
    m, n = A.rows, A.cols
    a = [list(r) for r in A.data]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    Ui = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    Vi = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        U[i], U[j] = U[j], U[i]
        for r in range(m):
            Ui[r][i], Ui[r][j] = Ui[r][j], Ui[r][i]

    def swap_cols(i, j):
        for r in range(m):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(n):
            V[r][i], V[r][j] = V[r][j], V[r][i]
        Vi[i], Vi[j] = Vi[j], Vi[i]

    def addmul_row(dst, src, q):
        # row_dst -= q * row_src
        for j in range(n):
            a[dst][j] -= q * a[src][j]
        for j in range(m):
            U[dst][j] -= q * U[src][j]
        for r in range(m):
            Ui[r][src] += q * Ui[r][dst]

    def addmul_col(dst, src, q):
        # col_dst -= q * col_src
        for r in range(m):
            a[r][dst] -= q * a[r][src]
        for r in range(n):
            V[r][dst] -= q * V[r][src]
        for j in range(n):
            Vi[src][j] += q * Vi[dst][j]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        U[i] = [-x for x in U[i]]
        for r in range(m):
            Ui[r][i] = -Ui[r][i]

    def smallest(entries):
        # first (i, j) of least nonzero absolute value, or None
        best = None
        for i, j in entries:
            if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                best = (i, j)
        return best

    def clear_position(k):
        while True:
            # bring the smallest entry of row/col k (from index k on) to (k,k)
            piv = smallest([(i, k) for i in range(k, m)] + [(k, j) for j in range(k, n)])
            if piv is None:
                return
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
                    done = done and a[i][k] == 0
            for j in range(k + 1, n):
                if a[k][j] != 0:
                    q = a[k][j] // p
                    if q:
                        addmul_col(j, k, q)
                    done = done and a[k][j] == 0
            if done:
                return

    k = 0
    while k < min(m, n):
        # move the smallest entry of the working square to (k, k) unless
        # a[k][k] is nonzero and no larger; a unit ends the scan early
        piv = None
        for i in range(k, m):
            for j in range(k, n):
                if a[i][j] != 0 and (piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
            if piv is not None and abs(a[piv[0]][piv[1]]) == 1:
                break
        if piv is None:
            break
        if a[k][k] == 0 or abs(a[piv[0]][piv[1]]) < abs(a[k][k]):
            if piv[0] != k:
                swap_rows(piv[0], k)
            if piv[1] != k:
                swap_cols(piv[1], k)
        clear_position(k)
        k += 1

    # enforce the divisibility chain
    changed = True
    while changed:
        changed = False
        for i in range(k - 1):
            if a[i + 1][i + 1] % a[i][i] != 0:
                addmul_col(i, i + 1, -1)  # col_i += col_{i+1}
                clear_position(i)
                changed = True
    for i in range(k):
        if a[i][i] < 0:
            negate_row(i)
    return (Matrix(ZZ, U, m, m), Matrix(ZZ, a, m, n), Matrix(ZZ, V, n, n),
            Matrix(ZZ, Ui, m, m), Matrix(ZZ, Vi, n, n))


# -- Smith-form kernel and solvability ---------------------------------------
# These two take tannakit integer matrices and reuse the package's
# smith_normal_form (and hnf_columns): they check the Hermite reduction of
# kernel and _Solver against a different elimination, not independent
# arithmetic.

def snf_kernel(A):
    """Hermite basis of ker(A) over Z through the Smith form U A V = D: the
    columns of V past the rank, put in Hermite form."""
    from tannakit.forms import hnf_columns
    from tannakit.linalg import ZZ
    from tannakit.matrix import Matrix
    from tannakit.smith import smith_normal_form
    if A.cols == 0:
        return Matrix.zeros(ZZ, 0, 0)
    form = smith_normal_form(A)
    cols = [form.V.col(j) for j in range(form.rank, A.cols)]
    if not cols:
        return Matrix.zeros(ZZ, A.cols, 0)
    return hnf_columns(Matrix.from_columns(ZZ, cols, rows=A.cols))


def snf_solvable(A, b):
    """Whether A x = b has an integer solution: with U A V = D, entry i of
    U b is divisible by d_i within the rank and zero past it."""
    from tannakit.smith import smith_normal_form
    form = smith_normal_form(A)
    y = form.U.apply(b)
    d = form.invariant_factors
    return all(y[i] % d[i] == 0 if i < len(d) else y[i] == 0
               for i in range(A.rows))


# -- commutant oracle --------------------------------------------------------

def brute_commutant(ranks, edges):
    """Nullspace basis of the edge-compatibility system, own elimination.

    ranks: {vertex: rank}; edges: list of (src, dst, matrix rows-list).
    Unknowns are the entries of one square matrix per vertex, row-major,
    vertices in sorted order.  Returns a list of solution vectors (tuples of
    Fractions), in reduced row echelon form.
    """
    order = sorted(ranks)
    offset = {}
    pos = 0
    for v in order:
        offset[v] = pos
        pos += ranks[v] * ranks[v]
    nvars = pos
    rows = []
    for src, dst, mat in edges:
        rs, rd = ranks[src], ranks[dst]
        # mat is rd x rs;  constraint: mat*phi_src - phi_dst*mat = 0
        for i in range(rd):
            for j in range(rs):
                row = [Fraction(0)] * nvars
                # (mat*phi_src)[i][j] = sum_k mat[i][k] phi_src[k][j]
                for k in range(rs):
                    row[offset[src] + k * rs + j] += Fraction(mat[i][k])
                # (phi_dst*mat)[i][j] = sum_k phi_dst[i][k] mat[k][j]
                for k in range(rd):
                    row[offset[dst] + i * rd + k] -= Fraction(mat[k][j])
                rows.append(row)
    # eliminate
    a = rows
    pivots = []
    r = 0
    for c in range(nvars):
        piv = None
        for i in range(r, len(a)):
            if a[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        f = a[r][c]
        a[r] = [x / f for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                g = a[i][c]
                a[i] = [x - g * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(nvars) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * nvars
        v[fc] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -a[i][fc]
        basis.append(tuple(v))
    return basis


# -- Z/p subquotient oracle --------------------------------------------------

def oracle_column_reduce(A):
    """(H, T, K) read from the dense oracle's reduction of A stacked on the
    identity: dense_hnf_columns over Z, dense_rref of the transpose over Q.
    A*T = H, H is the canonical image basis and K a kernel basis."""
    from tannakit.linalg import ZZ
    from tannakit.matrix import Matrix
    m, n, ring = A.rows, A.cols, A.ring
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    if ring == ZZ:
        cols = dense_hnf_columns([list(row) for row in A.data] + eye)
    else:
        R, pivots = dense_rref([list(A.col(j)) + eye[j] for j in range(n)])
        cols = R[:len(pivots)]
    image = [c for c in cols if any(c[:m])]
    kern = [c[m:] for c in cols if not any(c[:m])]
    return (Matrix.from_columns(ring, [c[:m] for c in image], rows=m),
            Matrix.from_columns(ring, [c[m:] for c in image], rows=n),
            Matrix.from_columns(ring, kern, rows=n))


class DenseSolver:
    """Exact solver for A x = b with fixed A, by dense forward substitution.

    When every column j has a pivot row, nonzero in column j and zero in all
    later columns, x is found by substitution on those rows and checked on
    every row.  Any other A is replaced by the image columns H of
    oracle_column_reduce, and the solution y of H y = b is returned as T y.
    """

    def __init__(self, A):
        from tannakit.linalg import QQ
        self.field = A.ring == QQ
        self.T = None
        if not self._load_rows(A):
            H, self.T, _ = oracle_column_reduce(A)
            self._load_rows(H)

    def _load_rows(self, A):
        self.rows = [[(j, x) for j, x in enumerate(row) if x] for row in A.data]
        pivot_rows = {}
        for i, row in enumerate(self.rows):
            if row:
                pivot_rows.setdefault(row[-1][0], i)
        self.pivot_rows = [pivot_rows.get(j) for j in range(A.cols)]
        return None not in self.pivot_rows

    def solve(self, b):
        x = []
        b = [Fraction(y) if self.field else int(y) for y in b]
        for i in self.pivot_rows:
            row = self.rows[i]
            s = b[i] - sum(a * x[j] for j, a in row[:-1] if x[j])
            x.append(s / row[-1][1] if self.field else s // row[-1][1])
        # every row, pivot rows too: over Z a floor division that was not
        # exact leaves a residual in its own pivot row
        for row, y in zip(self.rows, b):
            if sum(a * x[j] for j, a in row if x[j]) != y:
                return None
        return tuple(x) if self.T is None else self.T.apply(x)


def dense_structure_constants(E):
    """c[i][j] = coordinate tuple of e_i * e_j for a tannakit EndAlgebra E:
    every pair of basis families multiplied as dense vertex blocks, each
    product solved against the whole basis by DenseSolver, with no use of
    the basis shape."""
    solver = DenseSolver(E.basis)
    rows = [[E.component(i, v).data for v in E.order] for i in range(E.dim)]
    cols = [[tuple(zip(*block)) for block in fam] for fam in rows]
    table = []
    for x in rows:
        row = []
        for y in cols:
            flat = [sum(p * q for p, q in zip(xa, yb))
                    for xv, yv in zip(x, y) for xa in xv for yb in yv]
            coords = solver.solve(tuple(flat))
            assert coords is not None, "a product escapes the span"
            row.append(coords)
        table.append(row)
    return table


def dense_product_on_truncations(ctx, subF, subG, subH):
    """The matrix of mu: A_F (x) A_G -> A_H, or None when a family escapes:
    each family of End(T|H), conjugated by tau at every v x w, solved by
    DenseSolver against the columns kron(e_i at v, f_j at w) flattened over
    the pairs (v, w), one column per pair (i, j) of basis families."""
    from tannakit.matrix import Matrix
    EF, EG, EH = ctx.end(subF), ctx.end(subG), ctx.end(subH)
    pairs = [(v, w) for v in subF.vertices for w in subG.vertices]
    gens = []
    for i in range(EF.dim):
        for j in range(EG.dim):
            flat = []
            for v, w in pairs:
                kr = EF.component(i, v).kron(EG.component(j, w))
                flat.extend(x for r in range(kr.rows) for x in kr.row(r))
            gens.append(tuple(flat))
    solver = DenseSolver(Matrix.from_columns(ctx.ring, gens,
                                             rows=len(gens[0]) if gens else 0))
    rows = []
    for k in range(EH.dim):
        flat = []
        for v, w in pairs:
            t = ctx.tau(v, w)
            m = t.matrix * EH.component(k, ctx.product_vertex(v, w)) * t.inverse
            flat.extend(x for r in range(m.rows) for x in m.row(r))
        sol = solver.solve(tuple(flat))
        if sol is None:
            return None
        rows.append(sol)
    return Matrix(ctx.ring, rows, EH.dim, EF.dim * EG.dim)


def modp_subquotient_size(p, gens_b, rel_b, m_in, m_out, rel_c):
    """|ker(d_out)/im(d_in)| over Z/p by full enumeration.

    All matrices given as lists of lists of ints; gens_b is the number of
    generators of the middle module, rel_b its relation columns, rel_c the
    relation columns of the target.
    """
    def matvec(mat, vec, rows):
        return tuple(sum(mat[i][j] * vec[j] for j in range(len(vec))) % p
                     for i in range(rows))

    def span(vectors, dim):
        seen = {tuple([0] * dim)}
        frontier = [tuple([0] * dim)]
        while frontier:
            base = frontier.pop()
            for v in vectors:
                nxt = tuple((a + b) % p for a, b in zip(base, v))
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen

    nb = gens_b
    nc = len(m_out) if m_out else 0
    rel_c_span = span([tuple(col) for col in zip(*rel_c)] if rel_c and rel_c[0] else [],
                      nc) if nc else {()}
    kernel = []
    for vec in product(range(p), repeat=nb):
        img = matvec(m_out, vec, nc) if nc else ()
        if img in rel_c_span:
            kernel.append(vec)
    boundaries = []
    if m_in and m_in[0]:
        for col in zip(*m_in):
            boundaries.append(tuple(x % p for x in col))
    if rel_b and rel_b[0]:
        for col in zip(*rel_b):
            boundaries.append(tuple(x % p for x in col))
    bspan = span(boundaries, nb)
    return len(kernel) // len(bspan)


# -- tensor products by dense block assembly -------------------------------

def middle_swap_matrix(a, b, c, d):
    """Permutation matrix P of (i, j, k, l) -> (i, k, j, l) on row-major
    flattened indices of shape (a, b, c, d), entry by entry."""
    size = a * b * c * d
    data = [[0] * size for _ in range(size)]
    for i in range(a):
        for j in range(b):
            for k in range(c):
                for l in range(d):
                    src = ((i * b + j) * c + k) * d + l
                    dst = ((i * c + k) * b + j) * d + l
                    data[dst][src] = 1
    return data


def _kron(x, y):
    return [[a * b for a in xr for b in yr] for xr in x for yr in y]


def _eye(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def tensor_complex_dense(ranks_a, diffs_a, ranks_b, diffs_b):
    """Tensor product of two free complexes assembled from dense kron blocks.

    ranks_x maps degree -> rank; diffs_x maps degree d to the rank(d-1) x
    rank(d) differential as a list of lists (absent means zero).  The
    generators of degree n are the blocks p = 0..n ascending, each in kron
    order, and d(x (x) y) = dx (x) y + (-1)^p x (x) dy.  Returns (ranks,
    diffs) of the same form, with zero terms and zero maps left out.
    """
    top = max(ranks_a, default=-1) + max(ranks_b, default=-1)
    ranks, offsets = {}, {}
    for n in range(top + 1):
        off = 0
        for p in range(n + 1):
            offsets[(p, n - p)] = off
            off += ranks_a.get(p, 0) * ranks_b.get(n - p, 0)
        if off:
            ranks[n] = off
    diffs = {}
    for n in range(1, top + 1):
        if not ranks.get(n) or not ranks.get(n - 1):
            continue
        data = [[0] * ranks[n] for _ in range(ranks[n - 1])]
        for p in range(n + 1):
            q = n - p
            col = offsets[(p, q)]
            blocks = []
            if p > 0 and p in diffs_a:
                blocks.append(((p - 1, q), _kron(diffs_a[p], _eye(ranks_b.get(q, 0)))))
            if q > 0 and q in diffs_b:
                sign = (-1) ** p
                blocks.append(((p, q - 1), [[sign * x for x in row] for row in
                                            _kron(_eye(ranks_a.get(p, 0)), diffs_b[q])]))
            for key, block in blocks:
                row = offsets[key]
                for i, brow in enumerate(block):
                    for j, x in enumerate(brow):
                        data[row + i][col + j] += x
        diffs[n] = data
    return ranks, diffs


# -- comodule identities through dense Kronecker products --------------------
# The package contracts these over nonzeros (tannaka.Comodule.axioms and
# tannaka._intertwines); here each side is a dense product with Matrix.kron.

def dense_equal_mod(m1, m2, orders):
    """Entrywise equality of two matrices, modulo orders[row] (0: exact)."""
    return all((x - y) % t == 0 if t else x == y
               for row1, row2, t in zip(m1.data, m2.data, orders)
               for x, y in zip(row1, row2))


def dense_comodule_failures(m):
    """check_comodule_axioms' failures through delta.kron(eye) products."""
    from tannakit.matrix import Matrix
    A = m.coalgebra
    eye_v = Matrix.identity(A.ring, m.ngens)
    left = A.delta.kron(eye_v) * m.rho
    right = Matrix.identity(A.ring, A.rank).kron(m.rho) * m.rho
    failures = []
    if not dense_equal_mod(left, right, list(m.gen_orders) * A.rank ** 2):
        failures.append("coassociativity: (Delta (x) id) rho != (id (x) rho) rho")
    if not dense_equal_mod(A.counit.kron(eye_v) * m.rho, eye_v, m.gen_orders):
        failures.append("counit: (eps (x) id) rho != id")
    return tuple(failures)


def dense_is_morphism(src, dst, f):
    """rho_dst f == (id (x) f) rho_src modulo dst's orders, through a kron."""
    from tannakit.matrix import Matrix
    right = Matrix.identity(f.ring, src.coalgebra.rank).kron(f) * src.rho
    return dense_equal_mod(dst.rho * f, right,
                           list(dst.gen_orders) * src.coalgebra.rank)


def dense_transition_coaction(t, rho_f, rho_g):
    """(t (x) id) rho_F == rho_G for a transition matrix t, through a kron."""
    from tannakit.matrix import Matrix
    return t.kron(Matrix.identity(t.ring, rho_f.cols)) * rho_f == rho_g


# -- bialgebra and tensor identities through dense Kronecker products -------
# The package reads each of these over nonzeros with maps._tensor_apply;
# here each side is built as a dense matrix.

def _swap_rows(rows, a, b, c, d):
    """rows (i, j, k, l) of shape (a, b, c, d) reordered to (i, k, j, l)."""
    return [rows[((i * b + j) * c + k) * d + l]
            for i in range(a) for k in range(c) for j in range(b) for l in range(d)]


def _integer_data(m):
    """(rows of m scaled to integers, the scale): the lcm of its denominators."""
    d = lcm(*(x.denominator for row in m.data for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in m.data], d


@lru_cache(maxsize=16)
def _integer_coalgebra(A):
    """_integer_data of the comultiplication, then of the counit, of A."""
    return _integer_data(A.delta) + _integer_data(A.counit)


def _matmul(x, y):
    """x y for dense rows, skipping the zero entries of x."""
    out = []
    for row in x:
        acc = [0] * (len(y[0]) if y else 0)
        for a, yrow in zip(row, y):
            if a:
                for j, b in enumerate(yrow):
                    acc[j] += a * b
        out.append(acc)
    return out


def dense_fragment_bialgebra(mu, AF, AG, AH):
    """(Delta_H mu == (mu (x) mu)(1 swap 1)(Delta_F (x) Delta_G),
    eps_H mu == eps_F (x) eps_G) for the matrix mu: A_F (x) A_G -> A_H.

    Every matrix is dense and scaled to integers, each side by the other's
    scales.  (1 swap 1)(Delta_F (x) Delta_G) is a dense Kronecker product
    with its rows reordered; mu (x) mu is applied to it from the definition
    of the Kronecker product: its column (x, y) is the outer product of
    columns x and y of mu."""
    M, s = _integer_data(mu)
    (DH, sh, EH, eh), (DF, sf, EF, ef), (DG, sg, EG, eg) = map(_integer_coalgebra, (AH, AF, AG))
    rf, rg, rh, cols = AF.rank, AG.rank, len(M), list(zip(*M))
    swapped = _swap_rows(_kron(DF, DG), rf, rf, rg, rg)
    rhs = []
    for k in range(rf * rg):
        acc = [0] * (rh * rh)
        for xy, row in enumerate(swapped):
            if row[k]:
                x, y = divmod(xy, rf * rg)
                for i, a in enumerate(cols[x]):
                    if a:
                        for j, b in enumerate(cols[y]):
                            acc[i * rh + j] += row[k] * a * b
        rhs.append([x * sh for x in acc])
    lhs = [[x * s * sf * sg for x in col] for col in zip(*_matmul(DH, M))]
    counit = ([[x * ef * eg for x in row] for row in _matmul(EH, M)]
              == [[x * eh * s for x in row] for row in _kron(EF, EG)])
    return lhs == rhs, counit


def dense_tensor_rho(m, n, mu):
    """(mu (x) 1)(1 swap 1)(rho_m (x) rho_n), before reduction mod the orders."""
    from tannakit.matrix import Matrix
    rf, rg, km, kn = m.coalgebra.rank, n.coalgebra.rank, m.ngens, n.ngens
    swapped = Matrix(m.rho.ring, _swap_rows(m.rho.kron(n.rho).data, rf, km, rg, kn))
    return mu.matrix.kron(Matrix.identity(mu.matrix.ring, km * kn)) * swapped


def dense_associativity(mu_fg, mu_fg_k, mu_gk, mu_f_gk, t_left, t_right):
    """t_l mu_(fg)k (mu_fg (x) 1) == t_r mu_f(gk) (1 (x) mu_gk)."""
    from tannakit.matrix import Matrix
    ring = mu_fg.matrix.ring
    left = t_left.matrix * mu_fg_k.matrix * mu_fg.matrix.kron(
        Matrix.identity(ring, mu_gk.EG.dim))
    right = t_right.matrix * mu_f_gk.matrix * Matrix.identity(
        ring, mu_fg.EF.dim).kron(mu_gk.matrix)
    return left == right


def dense_tau_associativity(ctx, v, w, x):
    """(tau_vw (x) 1) tau_(vw)x == (1 (x) tau_wx) tau_v(wx) alpha_*."""
    from tannakit.maps import induced_map_on_homology
    from tannakit.matrix import Matrix
    from tannakit.structures import SimplicialMap
    vw, wx = ctx.product_vertex(v, w), ctx.product_vertex(w, x)
    vw_x, v_wx = ctx.product_vertex(vw, x), ctx.product_vertex(v, wx)
    (p_l, n_l), (p_r, _) = ctx.diagram.payloads[vw_x], ctx.diagram.payloads[v_wx]
    alpha = SimplicialMap(p_l.X, p_r.X,
                          {t: (t[0][0], (t[0][1], t[1])) for t in p_l.X.vertices})
    alpha_star = induced_map_on_homology(alpha, p_l, p_r, n_l, ctx.ring).matrix
    eye = lambda u: Matrix.identity(ctx.ring, ctx.rep.rank(u))  # noqa: E731
    return (ctx.tau(v, w).matrix.kron(eye(x)) * ctx.tau(vw, x).matrix
            == eye(v).kron(ctx.tau(w, x).matrix) * ctx.tau(v, wx).matrix * alpha_star)


def dense_sigma_step(mu, sigma_coords):
    """mu (1 (x) sigma): A_F -> A_F' for mu: A_F (x) A_C -> A_F'."""
    from tannakit.matrix import Matrix
    ring = mu.matrix.ring
    return mu.matrix * Matrix.identity(ring, mu.EF.dim).kron(Matrix.column(ring, sigma_coords))


def dense_module_tensor(a, b):
    """a (x) b from its dense presentation: the columns of ra (x) 1 and
    1 (x) rb, for the diagonal relation matrices ra and rb built here from
    the torsion orders, with its invariant factors read by naive_diagonal."""
    from tannakit.linalg import FgModule
    from tannakit.matrix import Matrix

    def relations(m):
        return Matrix(m.ring, [[t if i == j else 0 for j, t in enumerate(m.torsion)]
                               for i in range(m.ngens)], m.ngens, len(m.torsion))
    ia, ib = Matrix.identity(a.ring, a.ngens), Matrix.identity(b.ring, b.ngens)
    R = relations(a).kron(ib).hstack(ia.kron(relations(b)))
    factors = naive_diagonal([list(row) for row in R.data])
    return FgModule(a.ring, R.rows - len(factors), [e for e in factors if e > 1])
