"""The dense matrix view: Matrix, an immutable dense matrix over Z or Q.

Every map, presentation and coordinate vector the library computes is kept
sparse, maps as columns {row: entry}; Matrix is the view that certificates
print and that tests and oracles build.  A ModuleMap or a Comodule reads
one given to its constructor once, a corpus comodule's rho is validated
through one, the dense forms of tannakit.forms work on it, and the Smith
form of tannakit.smith reads its input from one and offers views in it.
The entry coercion _coerce of Matrix, maps._Solver and the Tannaka layers
is here too.  jscalar, jvector and jmatrix encode exact scalars, vectors
and matrices for the command handlers' certificates.  The Kronecker
product, which no command runs (every tensor identity contracts sparse
columns by maps._tensor_apply), is in tannakit.forms.
"""

from fractions import Fraction

from . import _deferred
from .linalg import QQ, RINGS, ZZ


def _coerce(ring, x):
    """x as an entry over ring: a Fraction over Q, an int over Z, where a
    non-integer Fraction raises ValueError."""
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

    kron = _deferred("forms", "kron")

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


# -- certificate encoders -----------------------------------------------------

def jscalar(x):
    """An exact scalar (int or Fraction) as an int, or "p/q" when it is not
    an integer."""
    return int(x) if x.denominator == 1 else "%d/%d" % (x.numerator, x.denominator)


def jmatrix(m):
    return [[jscalar(x) for x in m.row(i)] for i in range(m.rows)]


def jvector(v):
    return [jscalar(x) for x in v]
