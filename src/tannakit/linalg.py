"""Exact linear algebra over Z and Q.

Matrices carry arbitrary-precision entries (python ints over Z,
fractions.Fraction over Q); nothing here ever rounds or overflows.  Maps are
kept as sparse columns {row: entry} wherever they are computed, and Matrix
is the dense view.  One reduction, _echelon, does all row reduction on
sparse integer rows (the Hermite form over Z, the reduced echelon form over
Q); kernel reads it on sparse columns (over Z through _reduced_columns, A
stacked on the identity), and so do Q module_from_relations and image
bases.  One reader, _Solver, reads every coordinate, in integers, at the
pivots of a canonical basis, or of _reduced_columns's image basis for any
other A.  Invariant factors alone come from a sparse elimination of unit
pivots, _unit_pivots, with Smith normal form (Z) or _echelon (Q) on what is
left; tannakit.reduction reads a chain-level reduction off the same pivots.
Every tensor identity and construction applies A (x) B to sparse columns by
one helper, _tensor_apply, beside _compose; no module calls Matrix.kron.
Smith normal form, the determinant, the dense forms rref and hnf_columns
and the dense _column_reduce live in tannakit.smith, imported only where a
Smith form is needed and served here through a module __getattr__ (PEP 562).
A homology module of a free complex is eager and its cycle basis lazy:
Subquotient.free reads the module from elementary divisors, and on the
first class_of or lift builds the cycle basis from the sparse kernel of the
complex's own boundary columns.
"""

from collections import Counter
from fractions import Fraction
from math import gcd, lcm

from .errors import CompositionNonzero, TorsionPresent

ZZ = "z"
QQ = "q"

RINGS = (ZZ, QQ)

_SMITH = ("SmithForm", "smith_normal_form", "determinant", "rref", "hnf_columns",
          "_column_reduce")


def __getattr__(name):
    if name not in _SMITH:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from . import smith
    return getattr(smith, name)


def _coerce(ring, x):
    t = type(x)    # isinstance(x, Fraction) goes through the slow ABC check
    if ring == QQ:
        return x if t is Fraction else Fraction(x)
    if t is int:
        return x
    if isinstance(x, Fraction) and x.denominator != 1:
        raise ValueError("non-integer entry %r in an integer matrix" % (x,))
    return int(x)


class Matrix:
    """Immutable dense matrix over Z or Q."""

    __slots__ = ("ring", "rows", "cols", "data", "_hash")

    def __init__(self, ring, data, rows=None, cols=None):
        if ring not in RINGS:
            raise ValueError("unknown ring %r" % (ring,))
        data = tuple(tuple(_coerce(ring, x) for x in row) for row in data)
        if rows is None:
            rows = len(data)
        if cols is None:
            cols = len(data[0]) if data else 0
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("ragged or mis-sized matrix data")
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.data = data
        self._hash = None

    # -- constructors -------------------------------------------------
    @classmethod
    def zeros(cls, ring, rows, cols):
        zero = 0 if ring == ZZ else Fraction(0)
        return cls(ring, tuple((zero,) * cols for _ in range(rows)), rows, cols)

    @classmethod
    def identity(cls, ring, n):
        one, zero = _coerce(ring, 1), _coerce(ring, 0)
        return cls(ring, tuple(tuple(one if i == j else zero for j in range(n))
                               for i in range(n)), n, n)

    @classmethod
    def column(cls, ring, vec):
        return cls(ring, tuple((x,) for x in vec), len(vec), 1)

    @classmethod
    def from_sparse(cls, ring, columns, rows):
        """Dense matrix of sparse columns {row: entry}."""
        zero = 0 if ring == ZZ else Fraction(0)
        data = [[zero] * len(columns) for _ in range(rows)]
        for j, col in enumerate(columns):
            for i, x in col.items():
                data[i][j] = x
        return cls(ring, data, rows, len(columns))

    @classmethod
    def from_columns(cls, ring, columns, rows=None):
        if not columns:
            return cls.zeros(ring, rows or 0, 0)
        nrows = len(columns[0]) if rows is None else rows
        return cls(ring, tuple(tuple(col[i] for col in columns) for i in range(nrows)),
                   nrows, len(columns))

    # -- basic ops ----------------------------------------------------
    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.ring == other.ring
                and self.rows == other.rows and self.cols == other.cols
                and self.data == other.data)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, self.rows, self.cols, self.data))
        return self._hash

    def __repr__(self):
        return "Matrix(%s, %d x %d)" % (self.ring, self.rows, self.cols)

    def __getitem__(self, key):
        i, j = key
        return self.data[i][j]

    def row(self, i):
        return self.data[i]

    def col(self, j):
        return tuple(row[j] for row in self.data)

    def is_zero(self):
        return not any(map(any, self.data))

    def transpose(self):
        return Matrix(self.ring, list(zip(*self.data)) or [()] * self.cols,
                      self.cols, self.rows)

    def to_ring(self, ring):
        if ring == self.ring:
            return self
        return Matrix(ring, self.data, self.rows, self.cols)

    def __neg__(self):
        return Matrix(self.ring, tuple(tuple(-x for x in row) for row in self.data),
                      self.rows, self.cols)

    def __add__(self, other):
        self._compat(other)
        return Matrix(self.ring,
                      tuple(tuple(a + b for a, b in zip(r1, r2))
                            for r1, r2 in zip(self.data, other.data)),
                      self.rows, self.cols)

    def __sub__(self, other):
        return self + (-other)

    def _compat(self, other):
        if self.ring != other.ring or self.rows != other.rows or self.cols != other.cols:
            raise ValueError("matrix shape/ring mismatch")

    def scale(self, c):
        c = _coerce(self.ring, c)
        return Matrix(self.ring, tuple(tuple(c * x for x in row) for row in self.data),
                      self.rows, self.cols)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return self.scale(other)
        if self.ring != other.ring:
            raise ValueError("ring mismatch in product")
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product: %dx%d by %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        if self.cols == 0 or self.rows == 0 or other.cols == 0:
            return Matrix.zeros(self.ring, self.rows, other.cols)
        # skip zero entries
        ncols = other.cols
        bd = other.data
        out = []
        for arow in self.data:
            acc = [0] * ncols
            for k, a in enumerate(arow):
                if a:
                    brow = bd[k]
                    for j, b in enumerate(brow):
                        if b:
                            acc[j] += a * b
            out.append(acc)
        return Matrix(self.ring, out, self.rows, other.cols)

    def apply(self, vec):
        """Matrix times column vector (a tuple)."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        ring = self.ring
        zero = 0 if ring == ZZ else Fraction(0)
        # each nonzero entry coerced once; zero products are never formed
        nz = [(j, _coerce(ring, b)) for j, b in enumerate(vec) if b]
        return tuple(sum((row[j] * b for j, b in nz if row[j]), zero)
                     for row in self.data)

    def kron(self, other):
        """Kronecker product, row-major flattening of tensor indices."""
        if self.ring != other.ring:
            raise ValueError("ring mismatch in kron")
        ocols = other.cols
        width = self.cols * ocols
        zero_row = (0,) * width
        out = []
        for i in range(self.rows):
            arow = self.data[i]
            if not any(arow):
                out.extend([zero_row] * other.rows)
                continue
            for r in range(other.rows):
                brow = other.data[r]
                acc = [0] * width
                for j, a in enumerate(arow):
                    if a:
                        base = j * ocols
                        for s, b in enumerate(brow):
                            if b:
                                acc[base + s] = a * b
                out.append(acc)
        return Matrix(self.ring, out, self.rows * other.rows, width)

    def hstack(self, other):
        if self.rows != other.rows or self.ring != other.ring:
            raise ValueError("hstack mismatch")
        return Matrix(self.ring,
                      tuple(r1 + r2 for r1, r2 in zip(self.data, other.data)),
                      self.rows, self.cols + other.cols)

    def take_rows(self, indices):
        return Matrix(self.ring, tuple(self.data[i] for i in indices),
                      len(indices), self.cols)

    def take_cols(self, indices):
        return Matrix(self.ring,
                      tuple(tuple(row[j] for j in indices) for row in self.data),
                      self.rows, len(indices))


def tensor_swap(a, b, c, d):
    """Row order taking (i, j, k, l) to (i, k, j, l) on row-major flattened
    tensor indices of shape (a, b, c, d): M.take_rows(order) is P M for the
    permutation P swapping the middle factors, and M.take_cols(order) is
    M P^-1."""
    return [((i * b + j) * c + k) * d + l
            for i in range(a) for k in range(c) for j in range(b) for l in range(d)]


# ---------------------------------------------------------------------------
# Canonical bases, kernels, solving
# ---------------------------------------------------------------------------

def _nonzero_columns(m):
    """Column j of m as {row: entry} over its nonzero entries."""
    cols = [{} for _ in range(m.cols)]
    for i, row in enumerate(m.data):
        for j, x in enumerate(row):
            if x:
                cols[j][i] = x
    return cols


def _integral(vectors):
    """Sparse vectors {index: int or Fraction}, each scaled by the lcm of its
    denominators to {index: int}.  A vector of ints is passed through as a
    copy, not rebuilt entry by entry: no caller's dict is shared with the
    result."""
    out = []
    for v in vectors:
        if all(type(x) is int for x in v.values()):
            out.append(dict(v))
            continue
        m = lcm(*(x.denominator for x in v.values()))
        out.append({j: x.numerator * (m // x.denominator) for j, x in v.items()})
    return out


def _integer_rows(A):
    """Rows of A as sparse {col: int}, each scaled by the lcm of its
    denominators."""
    return _integral({j: x for j, x in enumerate(row) if x} for row in A.data)


def _reduce(row, piv, c, ring):
    """Sparse row {col: int} with its entry in column c reduced by the pivot
    row piv.  Over Z a Euclid step, row - q * piv with q = row[c] // piv[c]:
    unimodular, and it leaves row[c] mod piv[c].  Over Q the fraction-free
    combination that clears column c, divided by the gcd of its entries."""
    a, p = row[c], piv[c]
    if ring == ZZ:
        t, out = a // p, dict(row)
    else:
        g = gcd(a, p)
        t, out = a // g, {j: p // g * x for j, x in row.items()}
    for j, y in piv.items():
        v = out.get(j, 0) - t * y
        if v:
            out[j] = v
        else:
            out.pop(j, None)
    if ring == QQ:
        g = gcd(*out.values())
        if g > 1:
            out = {j: x // g for j, x in out.items()}
    return out


def _echelon(rows, ring):
    """Echelon basis of the sparse integer rows {col: int}: (pivots, basis),
    one basis row per pivot column, pivots ascending, zero rows dropped.

    Over Z the basis is the Hermite form of the row lattice: each pivot
    column is cleared by Euclid steps, the pivot is made positive, and the
    entries above it are reduced into [0, pivot).  Over Q it is the reduced
    row echelon form, rows {col: Fraction} with pivot entries 1: the
    shortest candidate row is the pivot, combinations stay fraction-free,
    and rows are divided by their pivots only at the end.  Both forms are
    unique, so the order of the steps cannot change the result (Cohen,
    GTM 138, 2.4).  The input rows are left unchanged.
    """
    work = [r for r in rows if r]
    pivots, basis = [], []
    for c in sorted({j for r in work for j in r}):
        cand = [r for r in work if c in r]
        if not cand:
            continue
        work = [r for r in work if c not in r]
        while len(cand) > 1:
            cand.sort(key=(lambda r: (abs(r[c]), len(r))) if ring == ZZ else len)
            rest = [_reduce(r, cand[0], c, ring) for r in cand[1:]]
            work += [r for r in rest if r and c not in r]
            cand = cand[:1] + [r for r in rest if c in r]
        piv = cand[0]
        pivots.append(c)
        basis.append(piv if piv[c] > 0 else {j: -x for j, x in piv.items()})
    # above the pivots: a pivot row is zero at earlier pivot columns, so over
    # Z, first pivot first, it keeps the entries reduced there; over Q, last
    # pivot first, it is already zero at later ones, and combinations stay short
    order = range(1, len(basis)) if ring == ZZ else range(len(basis) - 1, 0, -1)
    for k in order:
        c, piv = pivots[k], basis[k]
        for i in range(k):
            if c in basis[i]:
                basis[i] = _reduce(basis[i], piv, c, ring)
    if ring == QQ:
        basis = [{j: Fraction(x, r[c]) for j, x in r.items()}
                 for c, r in zip(pivots, basis)]
    return pivots, basis


def elementary_divisors(A):
    """Nonzero invariant factors of A in divisibility order; (1,) * rank over
    Q, whose rows are scaled to integers first."""
    return _sparse_divisors(_integer_rows(A), A.ring)


def _sparse_divisors(start, ring):
    """Nonzero invariant factors of the matrix with the sparse integer rows
    start ({col: int} each, left unchanged), over ring.

    Sparse elimination (Dumas, Saunders and Villard, JSC 2001): _unit_pivots
    eliminates the unit pivots, and only what is left goes to
    smith_normal_form (Z) or _echelon (Q).  The elimination is re-checked
    exactly: the matrix is the sum of the pivots' rank-one terms plus the
    residual.
    """
    rows = {i: dict(r) for i, r in enumerate(start) if r}
    terms = _unit_pivots(rows)
    # A == the sum of the rank-one terms column * prow, plus the residual
    total = {(i, j): x for i, r in rows.items() for j, x in r.items()}
    for _, _, column, prow in terms:
        for k, a in column.items():
            for c, y in prow.items():
                total[k, c] = total.get((k, c), 0) + a * y
    if ({key: x for key, x in total.items() if x}
            != {(i, j): x for i, r in enumerate(start) for j, x in r.items()}):
        raise AssertionError("sparse elimination does not reproduce the matrix")
    if ring == QQ:
        return (1,) * (len(terms) + len(_echelon(rows.values(), QQ)[0]))
    if not rows:
        return (1,) * len(terms)
    from .smith import smith_normal_form
    left = sorted({c for r in rows.values() for c in r})
    residual = Matrix(ZZ, [[r.get(c, 0) for c in left] for r in rows.values()],
                      len(rows), len(left))
    return (1,) * len(terms) + smith_normal_form(residual).invariant_factors


def _unit_pivots(rows):
    """Eliminate unit pivots from the sparse integer rows {i: {col: int}}, in
    place, as Schur complements; rows is left holding the residual, without
    the rows that became zero.

    Each round takes the unit entries by Markowitz cost (r - 1)(c - 1); an
    entry whose row or column a pivot of the round changed waits for the
    next round, so the column index built at the start of the round stays
    valid.  Returns the pivots in elimination order as (i, j, column, prow):
    pivot row i was prow then, with prow[j] = +-1, and column {k: a_kj / a_ij}
    holds the multiple of prow taken from each row k, column[i] = 1.
    """
    terms = []
    while True:
        cols = {}
        for i, r in rows.items():
            for j in r:
                cols.setdefault(j, []).append(i)
        cand = sorted(((len(r) - 1) * (len(cols[j]) - 1), i, j)
                      for i, r in rows.items() for j, x in r.items() if x == 1 or x == -1)
        if not cand:
            break
        dirty_rows, dirty_cols = set(), set()
        for _, i, j in cand:
            if i in dirty_rows or j in dirty_cols:
                continue
            prow = rows.pop(i)
            p = prow[j]
            column = {k: rows[k][j] * p for k in cols[j] if k != i}   # a_kj / p
            for k, f in column.items():
                row = rows[k]
                for c, y in prow.items():
                    row[c] = row.get(c, 0) - f * y
                    if not row[c]:
                        del row[c]
                if not row:
                    del rows[k]
            column[i] = 1
            terms.append((i, j, column, prow))
            dirty_rows.update(column)
            dirty_cols.update(prow)
    return terms


def _reduced_columns(ring, columns, m):
    """Canonical column reduction of the m-row matrix A with these sparse
    columns, stacked on the identity: Hermite over Z, echelon over Q (Cohen,
    GTM 138, 2.4), as _echelon of the rows col_j(A) (+) s e_j, where s
    clears the denominators of col_j(A).  Returns (H, T and K, rank of H) as
    sparse columns: the reduced rows with a nonzero A part give H (that
    part) and T (their identity part), so A*T = H; the others give K, a
    basis of ker(A), which over Z is the Hermite basis of the kernel
    lattice."""
    pivots, basis = _echelon(_integral({**col, m + j: 1} for j, col in enumerate(columns)), ring)
    image = sum(c < m for c in pivots)      # pivots ascend: these come first
    return ([{i: x for i, x in r.items() if i < m} for r in basis[:image]],
            [{i - m: x for i, x in r.items() if i >= m} for r in basis], image)


def kernel(ring, columns, rows):
    """Canonical basis of the kernel of the rows x len(columns) matrix with
    these sparse columns (nonzeros {row: entry}), as sparse columns: Hermite,
    hence saturated, over Z; the free-column basis of the reduced echelon
    form over Q, read off the matrix's rows."""
    if ring == ZZ:
        _, tail, image = _reduced_columns(ZZ, columns, rows)
        return tail[image:]
    return _null_vectors(*_echelon(_integral(_transpose(columns, rows)), QQ), len(columns))[1]


def _null_vectors(pivots, rows, n):
    """Free columns of a reduced echelon form on n columns (pivots and rows
    from _echelon over Q) and the kernel vector {index: Fraction} of each:
    1 at its own free column, 0 at the others."""
    free = sorted(set(range(n)).difference(pivots))
    basis = {f: {f: Fraction(1)} for f in free}
    for c, row in zip(pivots, rows):
        for j, x in row.items():
            if j != c:
                basis[j][c] = -x
    return free, list(basis.values())


class _Solver:
    """Coordinates in the columns of a fixed A: the one exact reader.

    Columns are kept as integers {row: int}, column k times the lcm s_k of
    its denominators, each with its own pivot row.  Over Z that is its first
    nonzero row (the Hermite shape of kernel and hnf_columns), and a vector
    is read by exact divmod steps at the smallest nonzero residual row.
    Over Q it is a row where no other column is nonzero (echelon columns,
    the free-column kernel, the identity): the coordinate is the entry
    there, and one integer residual checks them all.  Any other A is
    replaced by the image H of _reduced_columns, and read (sparse vectors)
    and solve (dense tuples) return T y.  A is a Matrix, or sparse columns
    given to from_sparse.
    """

    def __init__(self, A):
        self._put(A.ring, _nonzero_columns(A), A.rows)

    @classmethod
    def from_sparse(cls, ring, columns, rows):
        """The solver of the matrix with these columns {row: entry}."""
        solver = cls.__new__(cls)
        solver._put(ring, [dict(sorted((i, x) for i, x in c.items() if x)) for c in columns], rows)
        return solver

    def _put(self, ring, columns, rows):
        self.ring, self.rows, self.size, self.T = ring, rows, len(columns), None
        self.zero = _coerce(ring, 0)
        if not self._load(columns):
            head, tail, image = _reduced_columns(ring, columns, rows)
            self.T = tail[:image]                    # sparse columns of T
            self._load([dict(sorted(c.items())) for c in head])

    def _load(self, cols):
        """Keep the columns (nonzeros, rows ascending), their scales and
        pivots; False if one lacks its own."""
        self.scales = [lcm(*(x.denominator for x in c.values())) for c in cols]
        self.columns = cols = _integral(cols)
        # Z: a column's first row; Q: its first row that no other column meets
        count = Counter(i for c in cols for i in c) if self.ring == QQ else {}
        self.pivots = {next((i for i in c if count.get(i, 1) == 1), None): k
                       for k, c in enumerate(cols)}
        self.lift = lcm(*(cols[k][p] for p, k in self.pivots.items() if p is not None))
        return None not in self.pivots and len(self.pivots) == len(cols)

    def coordinates(self, vec, denom=1):
        """{k: x_k != 0} with sum_k x_k col_k = vec / denom, for integer
        nonzeros vec {row: int}, or None; in H's columns when T is set."""
        x, cols, pivots = {}, self.columns, self.pivots
        if self.ring == QQ:
            res = {i: self.lift * y for i, y in vec.items()}
            for c, y in vec.items():       # only the pivots that vec reaches
                k = pivots.get(c)
                if k is not None:
                    x[k] = Fraction(y * self.scales[k], denom * cols[k][c])
                    f = y * (self.lift // cols[k][c])
                    for i, w in cols[k].items():
                        res[i] = res.get(i, 0) - f * w
            return None if any(res.values()) else x
        res = dict(vec)
        while res:
            c = min(res)
            k = pivots.get(c)
            if k is None:
                return None
            x[k], rem = divmod(res[c], denom * cols[k][c])
            if rem:
                return None
            f = x[k] * denom
            for i, w in cols[k].items():
                res[i] = res.get(i, 0) - f * w
            res = {i: v for i, v in res.items() if v}
        return x

    def read(self, b):
        """{j: x_j != 0} with A x = b, for b given by its nonzeros {row: int
        or Fraction}, or None."""
        d = lcm(*(y.denominator for y in b.values()))
        x = self.coordinates({i: y.numerator * (d // y.denominator) for i, y in b.items()}, d)
        return x if x is None or self.T is None else _compose(self.T, [x])[0]

    def solve(self, b):
        """One exact x with A x = b, a tuple over A's ring, or None."""
        if len(b) != self.rows:
            raise ValueError("rhs length mismatch")
        x = self.read({i: _coerce(self.ring, y) for i, y in enumerate(b) if y})
        if x is not None:
            return tuple(x.get(k, self.zero) for k in range(self.size))


def solve(A, b):
    """One exact x with A x = b over A's ring (over Z, in the lattice), or None."""
    return _Solver(A).solve(b)


# ---------------------------------------------------------------------------
# Finitely generated modules
# ---------------------------------------------------------------------------

class FgModule:
    """F.g. module over Z or Q: free rank plus invariant-factor torsion.

    The normalized presentation has len(torsion) + free_rank generators:
    torsion generators first (orders forming a divisibility chain), then the
    free ones.  Equality of modules is equality of (ring, free_rank, torsion).
    """

    __slots__ = ("ring", "free_rank", "torsion")

    def __init__(self, ring, free_rank, torsion=()):
        if ring not in RINGS:
            raise ValueError("unknown ring %r" % (ring,))
        torsion = tuple(int(t) for t in torsion)
        if ring == QQ and torsion:
            raise ValueError("modules over Q cannot have torsion")
        if any(t <= 1 for t in torsion):
            raise ValueError("torsion coefficients must exceed 1")
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion list must be a divisibility chain")
        self.ring = ring
        self.free_rank = int(free_rank)
        self.torsion = torsion

    @classmethod
    def free(cls, ring, n):
        return cls(ring, n)

    @classmethod
    def zero(cls, ring):
        return cls(ring, 0)

    @property
    def ngens(self):
        return len(self.torsion) + self.free_rank

    def is_free(self):
        return not self.torsion

    def is_zero(self):
        return self.free_rank == 0 and not self.torsion

    def relations(self):
        """Relations matrix of the normalized presentation (ngens x #torsion)."""
        return _order_relations(self.torsion + (0,) * self.free_rank, self.ring)

    def normalize_vector(self, vec):
        """Reduce generator coordinates to the canonical representative."""
        vec = tuple(vec)
        if len(vec) != self.ngens:
            raise ValueError("coordinate length mismatch")
        out = list(vec)
        for i, t in enumerate(self.torsion):
            out[i] = out[i] % t
        return tuple(out)

    def tensor(self, other):
        """The module presented by the columns of ra (x) 1 and 1 (x) rb."""
        if self.ring != other.ring:
            raise ValueError("ring mismatch in tensor")
        ra, rb = _nonzero_columns(self.relations()), _nonzero_columns(other.relations())
        na, nb = self.ngens, other.ngens
        cols = ([_tensor_apply(ra, None, nb, nb, {x: 1}) for x in range(len(ra) * nb)]
                + [_tensor_apply(None, rb, nb, len(rb), {x: 1}) for x in range(na * len(rb))])
        return FgModule.cokernel(Matrix.from_sparse(self.ring, cols, na * nb))

    @classmethod
    def cokernel(cls, relations):
        """The module presented by the columns of relations, from its
        elementary divisors."""
        divisors = elementary_divisors(relations)
        return cls(relations.ring, relations.rows - len(divisors),
                   [e for e in divisors if e > 1])

    def __eq__(self, other):
        return (isinstance(other, FgModule) and self.ring == other.ring
                and self.free_rank == other.free_rank and self.torsion == other.torsion)

    def __hash__(self):
        return hash((self.ring, self.free_rank, self.torsion))

    def __repr__(self):
        ring = "Z" if self.ring == ZZ else "Q"
        parts = ["%s/%d" % (ring, t) for t in self.torsion]
        if self.free_rank:
            parts.append("%s^%d" % (ring, self.free_rank))
        return " + ".join(parts) if parts else "0"

    def describe(self):
        return repr(self)


def _order_relations(orders, ring=ZZ):
    """Relation columns t e_i, one for each generator i of order t > 0."""
    n = len(orders)
    return Matrix.from_columns(ring, [[t if j == i else 0 for j in range(n)]
                                      for i, t in enumerate(orders) if t], rows=n)


def module_from_relations(ring, ngens, relations):
    """Normalize Z^ngens / im(relations) (or Q^ngens likewise).

    Returns (module, to_normal, from_normal): to_normal maps old generator
    coordinates to normalized ones (reduce with module.normalize_vector);
    from_normal lifts normalized generators to old coordinates.
    """
    if relations.rows != ngens:
        raise ValueError("relations row count != generator count")
    if ring == ZZ:
        if relations.cols == 0:
            mod = FgModule(ZZ, ngens)
            eye = Matrix.identity(ZZ, ngens)
            return mod, eye, eye
        from .smith import smith_normal_form
        form = smith_normal_form(relations)
        diag = [form.D[i, i] if i < relations.cols else 0 for i in range(ngens)]
        keep = [i for i, d in enumerate(diag) if d != 1]
        torsion = [d for d in diag if d > 1]
        mod = FgModule(ZZ, len(keep) - len(torsion), torsion)
        to_normal = form.U.take_rows(keep)
        from_normal = form.Uinv.take_cols(keep)
        return mod, to_normal, from_normal
    # over Q: quotient by the span; a coordinate vector reduces to its free
    # coordinates by subtracting the echelon rows at the pivots
    free, to_normal = _null_vectors(
        *_echelon(_integral(_nonzero_columns(relations)), QQ), ngens)
    zero = Fraction(0)
    return (FgModule(QQ, len(free)),
            Matrix(QQ, [[v.get(j, zero) for j in range(ngens)] for v in to_normal],
                   len(free), ngens),
            Matrix.identity(QQ, ngens).take_cols(free))


class ModuleMap:
    """Map between f.g. modules, as a matrix on normalized generators.

    Well-definedness on torsion (relations map into relations) is checked at
    construction; entries over torsion rows are stored reduced.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source, target, matrix):
        if source.ring != target.ring or matrix.ring != source.ring:
            raise ValueError("ring mismatch in module map")
        if matrix.rows != target.ngens or matrix.cols != source.ngens:
            raise ValueError("matrix shape does not fit the presentations")
        tt = len(target.torsion)
        for i, t in enumerate(source.torsion):
            for j in range(target.ngens):
                w = t * matrix[j, i]
                if j < tt:
                    if w % target.torsion[j] != 0:
                        raise ValueError("map not well defined on torsion generator %d" % i)
                elif w != 0:
                    raise ValueError("map not well defined on torsion generator %d" % i)
        if tt:
            data = [list(r) for r in matrix.data]
            for j in range(tt):
                tj = target.torsion[j]
                data[j] = [x % tj for x in data[j]]
            matrix = Matrix(matrix.ring, data, matrix.rows, matrix.cols)
        self.source = source
        self.target = target
        self.matrix = matrix

    @classmethod
    def identity(cls, mod):
        return cls(mod, mod, Matrix.identity(mod.ring, mod.ngens))

    @classmethod
    def zero(cls, source, target):
        return cls(source, target, Matrix.zeros(source.ring, target.ngens, source.ngens))

    def compose(self, other):
        """self after other."""
        if other.target != self.source:
            raise ValueError("composition mismatch")
        return ModuleMap(other.source, self.target, self.matrix * other.matrix)

    def is_zero_map(self):
        return self.matrix.is_zero()

    def __eq__(self, other):
        return (isinstance(other, ModuleMap) and self.source == other.source
                and self.target == other.target and self.matrix == other.matrix)

    def __hash__(self):
        return hash((self.source, self.target, self.matrix))

    def __repr__(self):
        return "ModuleMap(%r -> %r)" % (self.source, self.target)


def dual_map(f):
    """Transpose of a map between free modules, in the dual bases."""
    if not (f.source.is_free() and f.target.is_free()):
        raise TorsionPresent("dual_map requires free source and target")
    return ModuleMap(f.target, f.source, f.matrix.transpose())


class Subquotient:
    """ker(d_out)/im(d_in) with change-of-basis data retained.

    class_of maps a cycle (coordinates in the middle module's generators) to
    coordinates on the normalized generators of the subquotient; lift does
    the reverse for a generator index.  The cycle basis is kept as sparse
    columns, with the one _Solver that read the boundary coordinates in it
    and reads every class_of.  The module is always known.  When it comes
    from elementary divisors (Subquotient.free), the cycle basis and its
    transforms are built on the first class_of or lift, which must
    reproduce the same module.
    """

    __slots__ = ("module", "_build", "_cycles", "_solver", "_to_normal", "_from_normal")

    def __init__(self, module, cycles=None, solver=None, to_normal=None, from_normal=None,
                 build=None):
        self.module, self._build, self._cycles, self._solver = module, build, cycles, solver
        self._to_normal, self._from_normal = to_normal, from_normal

    @classmethod
    def free(cls, ring, rank, div_in, div_out, boundaries):
        """ker d_out / im d_in at a free middle module of the given rank,
        from the nonzero elementary divisors of d_in and d_out: Z^(rank -
        rk d_out - rk d_in) plus Z/e for the divisors e > 1 of d_in.
        boundaries() returns the sparse columns of d_in and d_out and the
        row count of d_out; it is called on the first class_of or lift,
        which builds the cycle basis."""
        module = FgModule(ring, rank - len(div_out) - len(div_in),
                          [e for e in div_in if e > 1])

        def build():
            into, out, rows = boundaries()
            return _subquotient(ring, into, out, rank, rows)
        return cls(module, build=build)

    def _basis(self):
        if self._build is not None:
            eager = self._build()
            if eager.module != self.module:
                raise AssertionError("cycle basis gives %r, elementary divisors %r"
                                     % (eager.module, self.module))
            self._cycles, self._solver, self._to_normal, self._from_normal = (
                eager._cycles, eager._solver, eager._to_normal, eager._from_normal)
            self._build = None
        return self._cycles

    def class_of(self, vec):
        self._basis()
        c = self._solver.solve(vec)
        if c is None:
            raise ValueError("vector is not a cycle (or not in the cycle submodule)")
        return self.module.normalize_vector(self._to_normal.apply(c))

    def lift(self, j):
        return _apply(self._basis(), self._from_normal.col(j), self._solver.rows)


def subquotient(d_in, d_out):
    """Homology at the middle of  A --d_in--> B --d_out--> C.

    Raises CompositionNonzero unless d_out o d_in = 0.
    """
    if d_in.target != d_out.source:
        raise ValueError("d_in target differs from d_out source")
    return presented_subquotient(d_in.matrix, d_in.target.relations(),
                                 d_out.matrix, d_out.target.relations())


def presented_subquotient(m_in, rel_b, m_out, rel_c):
    """ker/im in B for matrices m_in into and m_out out of B, where B and the
    target of m_out are presented by the relation columns rel_b and rel_c,
    normalized or not.  Raises CompositionNonzero when an image column or a
    relation of B is not a cycle."""
    return _subquotient(m_out.ring, _nonzero_columns(m_in) + _nonzero_columns(rel_b),
                        _nonzero_columns(m_out) + _nonzero_columns(rel_c), m_out.cols, m_out.rows)


def _subquotient(ring, into, out, n, rows):
    """presented_subquotient on sparse columns, as _cycle_coordinates takes them."""
    cycles, solver, coeff = _cycle_coordinates(ring, into, out, n, rows)
    mod, to_normal, from_normal = module_from_relations(ring, len(cycles), coeff)
    return Subquotient(mod, cycles, solver, to_normal, from_normal)


def _cycle_coordinates(ring, into, out, n, rows):
    """(cycles, solver, coeff) at B = ring^n, for the sparse columns into
    (the map into B, then B's relations) and out (the map out of B, then
    the relations of its target, on rows rows): a basis of the cycles of B
    as sparse columns, the _Solver on them, and the coordinates in it of
    the columns of into, as a Matrix."""
    cycles = [{i: x for i, x in c.items() if i < n} for c in kernel(ring, out, rows)]
    solver = _Solver.from_sparse(ring, cycles, n)
    coeff = [solver.read(col) for col in into]
    if None in coeff:
        raise CompositionNonzero("boundary does not lie in the cycle submodule")
    return cycles, solver, Matrix.from_sparse(ring, coeff, len(cycles))


def _compose(outer, inner):
    """Sparse columns {row: coeff} of outer * inner, both given as sparse
    columns; outer None is the zero map."""
    out = []
    for col in inner:
        acc = {}
        if outer is not None:
            for k, x in col.items():
                for i, y in outer[k].items():
                    acc[i] = acc.get(i, 0) + x * y
        out.append({i: v for i, v in acc.items() if v})
    return out


def _transpose(cols, n):
    """The sparse columns of the transpose of an n-row map's columns."""
    out = [{} for _ in range(n)]
    for j, col in enumerate(cols):
        for i, x in col.items():
            out[i][j] = x
    return out


def _composes_to_zero(outer, inner):
    """outer * inner == 0, for maps given as sparse columns."""
    return not any(_compose(outer, inner))


def _apply(cols, vec, size):
    """The vector of length size that the sparse columns cols map vec to."""
    out = [0] * size
    for col, x in zip(cols, vec):
        if x:
            for i, y in col.items():
                out[i] += x * y
    return tuple(out)


def _tensor_apply(a, b, nb, mb, col, scale=1, out=None):
    """out plus scale (A (x) B) col, for a sparse column col {index: x} and
    A, B sparse columns {row: entry}, one of them None for an identity: B is
    nb x mb, and index j * mb + l goes to the rows i * nb + k.  out (a new
    dict when None) is updated in place, may keep zeros, and is returned.
    With B None and nb = mb = 1 this is the plain product A col."""
    out = {} if out is None else out
    get = out.get
    for jl, x in col.items():
        j, l = divmod(jl, mb) if mb != 1 else (jl, 0)
        x *= scale
        if b is None:
            for i, y in a[j].items():
                out[i * nb + l] = get(i * nb + l, 0) + x * y
        elif a is None:
            base = j * nb
            for k, z in b[l].items():
                out[base + k] = get(base + k, 0) + x * z
        else:
            bl = b[l]
            for i, y in a[j].items():
                base, xy = i * nb, x * y
                for k, z in bl.items():
                    out[base + k] = get(base + k, 0) + xy * z
    return out


def _swapped_tensor(X, Y, a, b, c, d):
    """The columns of (1 swap 1)(X (x) Y), column x * len(Y) + y for X[x]
    (x) Y[y], for sparse columns X on rows (i, j) of shape (a, b) and Y on
    rows (k, l) of shape (c, d): row (i, j, k, l) moves to (i, k, j, l), the
    order of tensor_swap."""
    to = {old: new for new, old in enumerate(tensor_swap(a, b, c, d))}
    m = len(Y)
    return [{to[r]: x for r, x in _tensor_apply(X, Y, c * d, m, {xy: 1}).items()}
            for xy in range(len(X) * m)]
