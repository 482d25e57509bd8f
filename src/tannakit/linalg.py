"""Exact linear algebra over Z and Q: the part a homology module needs.

Entries are arbitrary-precision (python ints over Z, fractions.Fraction over
Q); nothing here ever rounds or overflows.  Maps are kept as sparse columns
{row: entry} wherever they are computed.  This module holds FgModule,
Subquotient and the sparse eliminations behind them, all in integers: it
never builds a Fraction, and does not import fractions.  One reduction,
_echelon, does all row reduction on sparse integer rows (the Hermite form
over Z, the fraction-free reduced echelon form over Q, which the readers of
a normalized basis in tannakit.maps and tannakit.smith divide by its
pivots), and _reduced_columns reads it on A stacked on the identity.
Invariant factors alone come from a sparse elimination of unit pivots,
_unit_pivots, with sparse Euclid steps (_residual_divisors, Z) or _echelon
(Q) on what is left; tannakit.reduction reads a chain-level reduction off
the same pivots.  A Subquotient's module is read from elementary divisors
when it is built.
"""

from math import gcd, lcm

from . import _deferred, _lazy

ZZ = "z"
QQ = "q"

RINGS = (ZZ, QQ)

# the names of later layers that bench/ reads through this module
__getattr__ = _lazy(__name__, {
    "matrix": "Matrix",
    "maps": "ModuleMap _Solver kernel subquotient module_from_relations",
    "smith": "smith_normal_form",
    "forms": "rref hnf_columns",
})


# ---------------------------------------------------------------------------
# Sparse eliminations
# ---------------------------------------------------------------------------

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
    row echelon form kept fraction-free: the shortest candidate row is the
    pivot, and each basis row is the primitive integer multiple, with a
    positive pivot, of the row of the reduced form, which a reader of a
    normalized basis gets by dividing it by its pivot.  Both forms are
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
        for k, r in enumerate(basis):
            g = gcd(*r.values())
            if g > 1:
                basis[k] = {j: x // g for j, x in r.items()}
    return pivots, basis


def _sparse_divisors(start, ring):
    """Nonzero invariant factors of the matrix with the sparse integer rows
    start ({col: int} each, left unchanged), over ring.

    Sparse elimination (Dumas, Saunders and Villard, JSC 2001): _unit_pivots
    eliminates the unit pivots, and only what is left goes to
    _residual_divisors (Z) or _echelon (Q).  The elimination is re-checked
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
    return (1,) * len(terms) + _residual_divisors(rows.values())


def _residual_divisors(rows):
    """Nonzero invariant factors over Z of the matrix with the sparse integer
    rows {col: int} (left unchanged), in divisibility order; no transforms.

    Sparse Euclid steps: the entry of smallest absolute value is the pivot;
    its column is cleared by row steps (_reduce) from the smallest entry
    there, then the pivot row is reduced modulo the pivot by column steps,
    which touch that row only, since the pivot is alone in its column.  A
    nonzero remainder is smaller than the pivot and becomes the next one, so
    each pivot ends alone in its row and column and leaves the diagonal.
    The diagonal is put in divisibility order by replacing each pair with
    its gcd and lcm, which keeps every prime's exponents.
    """
    work = [dict(r) for r in rows if r]
    diagonal = []
    while work:
        _, j = min((abs(x), j) for r in work for j, x in r.items())
        while True:
            cand = [r for r in work if j in r]
            work = [r for r in work if j not in r]
            while len(cand) > 1:
                cand.sort(key=lambda r: (abs(r[j]), len(r)))
                rest = [_reduce(r, cand[0], j, ZZ) for r in cand[1:]]
                work += [r for r in rest if r and j not in r]
                cand = cand[:1] + [r for r in rest if j in r]
            p = cand[0][j]
            rest = {c: x % p for c, x in cand[0].items() if c != j and x % p}
            if not rest:
                diagonal.append(abs(p))
                break
            work.append({j: p, **rest})
            j = min(rest, key=lambda c: abs(rest[c]))
    for a in range(len(diagonal)):
        for b in range(a + 1, len(diagonal)):
            x, y = diagonal[a], diagonal[b]
            diagonal[a], diagonal[b] = gcd(x, y), lcm(x, y)
    return tuple(diagonal)


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
    lattice.  Over Q each column is an integer multiple of the reduced
    form's, as _echelon keeps its rows."""
    pivots, basis = _echelon(_integral({**col, m + j: 1} for j, col in enumerate(columns)), ring)
    image = sum(c < m for c in pivots)      # pivots ascend: these come first
    return ([{i: x for i, x in r.items() if i < m} for r in basis[:image]],
            [{i - m: x for i, x in r.items() if i >= m} for r in basis], image)


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

    # the presentation and its coordinates: tannakit.maps
    relations = _deferred("maps", "module_relations")
    normalize_vector = _deferred("maps", "normalize_vector")
    tensor = _deferred("kunneth", "module_tensor")
    cokernel = classmethod(_deferred("maps", "cokernel"))

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


class Subquotient:
    """ker(d_out)/im(d_in), its module known when it is built, with the
    change-of-basis data built on the first class_of or lift.

    class_of maps a cycle (coordinates in the middle module's generators) to
    coordinates on the normalized generators of the subquotient; lift does
    the reverse for a generator index.  Both are tannakit.maps functions.
    build() returns what maps._cycle_coordinates does: the cycle basis as
    sparse columns, the _Solver on it that reads every class_of, and the
    coordinates in it of the boundaries and relations, from which
    module_from_relations builds the transforms and a module that must be
    the one this was built with.
    """

    __slots__ = ("module", "_build", "_cycles", "_solver", "_to_normal", "_from_normal")

    def __init__(self, module, build):
        self.module, self._build = module, build

    @classmethod
    def free(cls, ring, rank, div_in, div_out, boundaries):
        """ker d_out / im d_in at a free middle module of the given rank,
        from the nonzero elementary divisors of d_in and d_out: Z^(rank -
        rk d_out - rk d_in) plus Z/e for the divisors e > 1 of d_in.
        boundaries() returns the sparse columns of d_in and d_out and the
        row count of d_out; it is called on the first class_of or lift."""
        return cls(FgModule(ring, rank - len(div_out) - len(div_in),
                            [e for e in div_in if e > 1]),
                   lambda: _cycle_coordinates(ring, rank, *boundaries()))

    class_of = _deferred("maps", "class_of")
    lift = _deferred("maps", "lift")


_cycle_coordinates = _deferred("maps", "_cycle_coordinates")


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
