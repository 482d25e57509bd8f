"""Coordinates and module maps: what maps between homology modules.

Kernels, presentations and subquotients with their transforms, the class
coordinates of a linalg.Subquotient (class_of and lift, with the cycle
basis and Smith transforms they build on the first call), the methods of
FgModule that read or build a presentation (relations, normalize_vector,
cokernel), the readers of a dense matrix (_nonzero_columns, _integer_rows,
elementary_divisors), chain maps and the maps induced on homology.

kernel reads _echelon on sparse columns (over Z through _reduced_columns, A
stacked on the identity), and so do Q module_from_relations and image
bases, each dividing the fraction-free rows of _echelon over Q by their
pivots.  One reader, _Solver, reads every coordinate, in integers, at the
pivots of a canonical basis, or of _reduced_columns's image basis for any
other A.  Every tensor identity and construction applies A (x) B to sparse
columns by one helper, _tensor_apply; no module calls Matrix.kron.  Maps on
homology (induced_map_on_homology, triple_boundary, with the handler of
the triple-boundary command) read classes in the Hermite cycle basis of
ChainComplex.homology.
"""
from collections import Counter
from fractions import Fraction
from functools import cache
from math import lcm

from .errors import CompositionNonzero, NotNested, NotPairMap, TorsionPresent
from .linalg import (
    QQ, ZZ, FgModule, Subquotient, _compose, _echelon, _integral, _reduced_columns,
    _sparse_divisors, _transpose,
)
from .matrix import Matrix, _coerce, jmatrix
from .simplicial import SimplicialPair, _chain_image, _faces, _sparse_columns, pair_homology


# ---------------------------------------------------------------------------
# Kernels and coordinates
# ---------------------------------------------------------------------------

def _nonzero_columns(m):
    """Column j of a dense matrix m (any object with its cols and data) as
    {row: entry} over its nonzero entries."""
    cols = [{} for _ in range(m.cols)]
    for i, row in enumerate(m.data):
        for j, x in enumerate(row):
            if x:
                cols[j][i] = x
    return cols


def _integer_rows(A):
    """Rows of a dense A as sparse {col: int}, each scaled by the lcm of its
    denominators."""
    return _integral({j: x for j, x in enumerate(row) if x} for row in A.data)


def _apply(cols, vec, size):
    """The vector of length size that the sparse columns cols map vec to."""
    out = [0] * size
    for col, x in zip(cols, vec):
        if x:
            for i, y in col.items():
                out[i] += x * y
    return tuple(out)


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
    """Free columns of a reduced echelon form on n columns (pivots and the
    fraction-free rows of _echelon over Q, each divided here by its pivot)
    and the kernel vector {index: Fraction} of each: 1 at its own free
    column, 0 at the others."""
    free = sorted(set(range(n)).difference(pivots))
    basis = {f: {f: Fraction(1)} for f in free}
    for c, row in zip(pivots, rows):
        for j, x in row.items():
            if j != c:
                basis[j][c] = Fraction(-x, row[c])
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
        self.scales = [1 if all(type(x) is int for x in c.values())    # as in _integral
                       else lcm(*(x.denominator for x in c.values())) for c in cols]
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
# Presentations and module maps
# ---------------------------------------------------------------------------

def elementary_divisors(A):
    """Nonzero invariant factors of a dense A in divisibility order; (1,) *
    rank over Q, whose rows are scaled to integers first."""
    return _sparse_divisors(_integer_rows(A), A.ring)


def cokernel(cls, relations):
    """FgModule.cokernel: the module presented by the columns of relations,
    from its elementary divisors."""
    divisors = elementary_divisors(relations)
    return cls(relations.ring, relations.rows - len(divisors), [e for e in divisors if e > 1])


def module_relations(module):
    """FgModule.relations: the relations matrix of the normalized
    presentation (ngens x #torsion)."""
    return _order_relations(module.torsion + (0,) * module.free_rank, module.ring)


def normalize_vector(module, vec):
    """FgModule.normalize_vector: generator coordinates reduced to the
    canonical representative."""
    out = list(vec)
    if len(out) != module.ngens:
        raise ValueError("coordinate length mismatch")
    for i, t in enumerate(module.torsion):
        out[i] %= t
    return tuple(out)


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
            eye = Matrix.identity(ZZ, ngens)
            return FgModule(ZZ, ngens), eye, eye
        from .smith import smith_normal_form
        form = smith_normal_form(relations)
        diag = [form.D[i, i] if i < relations.cols else 0 for i in range(ngens)]
        keep = [i for i, d in enumerate(diag) if d != 1]
        torsion = [d for d in diag if d > 1]
        return (FgModule(ZZ, len(keep) - len(torsion), torsion), form.U.take_rows(keep),
                form.inverse_columns(keep))
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
        tt = target.torsion
        for i, t in enumerate(source.torsion):
            for j in range(target.ngens):
                w = t * matrix[j, i]
                if w % tt[j] if j < len(tt) else w:
                    raise ValueError("map not well defined on torsion generator %d" % i)
        if tt:
            matrix = Matrix(matrix.ring, [[x % tt[j] for x in r] if j < len(tt) else r
                                          for j, r in enumerate(matrix.data)],
                            matrix.rows, matrix.cols)
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


# ---------------------------------------------------------------------------
# Subquotients
# ---------------------------------------------------------------------------

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
    relation of B is not a cycle.  The module is the cokernel of the cycle
    coordinates of the image and of B's relations, read from elementary
    divisors; module_from_relations (over Z a Smith form with its
    transforms) runs on the first class_of or lift."""
    cycles, solver, coeff = _cycle_coordinates(
        m_out.ring, m_out.cols, _nonzero_columns(m_in) + _nonzero_columns(rel_b),
        _nonzero_columns(m_out) + _nonzero_columns(rel_c), m_out.rows)
    return Subquotient(FgModule.cokernel(coeff), lambda: (cycles, solver, coeff))


def _cycle_coordinates(ring, n, into, out, rows):
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


def _cycle_basis(sq):
    """The cycle basis of a Subquotient, with its solver and transforms
    built on the first call: sq._build() gives the cycles and the
    coordinates of the boundaries and relations in them, whose
    module_from_relations must give the module sq was built with."""
    if sq._build is not None:
        sq._cycles, sq._solver, coeff = sq._build()
        module, sq._to_normal, sq._from_normal = module_from_relations(
            sq.module.ring, len(sq._cycles), coeff)
        if module != sq.module:
            raise AssertionError("cycle basis gives %r, elementary divisors %r"
                                 % (module, sq.module))
        sq._build = None
    return sq._cycles


def class_of(sq, vec):
    """Subquotient.class_of: the normalized coordinates of the class of a
    cycle, given by its coordinates in the middle module's generators."""
    _cycle_basis(sq)
    c = sq._solver.solve(vec)
    if c is None:
        raise ValueError("vector is not a cycle (or not in the cycle submodule)")
    return sq.module.normalize_vector(sq._to_normal.apply(c))


def lift(sq, j):
    """Subquotient.lift: a cycle representing normalized generator j."""
    return _apply(_cycle_basis(sq), sq._from_normal.col(j), sq._solver.rows)


# ---------------------------------------------------------------------------
# Tensors
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Chain maps and induced maps on homology
# ---------------------------------------------------------------------------

class ChainMap:
    """Chain map given by image(d, label) -> (target label, coeff) pairs,
    kept as sparse columns per degree; commutation with the boundaries is
    checked once, at construction."""

    __slots__ = ("source", "target", "_cols")

    def __init__(self, source, target, image):
        self.source = source
        self.target = target
        self._cols = {d: _sparse_columns(image, d, source.labels(d), target._index.get(d, {}))
                      for d in source.degrees}
        for d in source.degrees:
            left = _compose(target._cols.get(d), self._cols[d])
            right = _compose(self._cols.get(d - 1), source._cols.get(d, [{}] * source.rank(d)))
            if left != right:
                raise AssertionError("chain map fails to commute at degree %d" % d)

    def component(self, d):
        """The dense view of degree d."""
        return Matrix.from_sparse(self.source.ring, self._cols.get(d, ()), self.target.rank(d))

    def apply(self, d, vec):
        """The image of a chain of degree d, given by its coordinates."""
        return _apply(self._cols.get(d, ()), vec, self.target.rank(d))


def _induced_chain_map(f, pair_src, pair_tgt, ring):
    """The chain map induced by f on relative chains."""
    def image(_d, s):
        sign, img = f.oriented_image(s)
        return ((img, sign),) if sign else ()
    return ChainMap(pair_homology(pair_src, ring), pair_homology(pair_tgt, ring), image)


def induced_map_on_homology(f, pair_src, pair_tgt, n, ring=ZZ) -> ModuleMap:
    """h_n(f): h_n(X,Z) -> h_n(X',Z') for a map of pairs."""
    if not pair_src.X.is_subcomplex_of(f.source):
        raise NotPairMap("f is not defined on X")
    if not f.image(pair_src.X).is_subcomplex_of(pair_tgt.X):
        raise NotPairMap("f does not map X into X'")
    if not f.is_pair_map(pair_src, pair_tgt):
        raise NotPairMap("f does not map Z into Z'")
    fmap = cache(lambda: _induced_chain_map(f, pair_src, pair_tgt, ring))
    return _homology_map(pair_homology(pair_src, ring).homology(n),
                         pair_homology(pair_tgt, ring).homology(n),
                         lambda vec: fmap().apply(n, vec))


def triple_boundary(X, Z, W, n, ring=ZZ) -> ModuleMap:
    """Boundary h_n(X,Z) -> h_{n-1}(Z,W) of the homology sequence of a triple."""
    if not (W.is_subcomplex_of(Z) and Z.is_subcomplex_of(X)):
        raise NotNested("need W <= Z <= X")
    top = pair_homology(SimplicialPair(X, Z), ring)
    bot = pair_homology(SimplicialPair(Z, W), ring)
    return _homology_map(top.homology(n), bot.homology(n - 1),
                         _boundary_image(top, bot, Z, n))


def _homology_map(hs, ht, image) -> ModuleMap:
    """The module map taking generator j of hs to the class in ht of
    image(hs.lift(j)), for the ChainComplex.homology of one degree each;
    image is called only when both modules are nonzero."""
    src, tgt = hs.module, ht.module
    if src.is_zero() or tgt.is_zero():
        return ModuleMap.zero(src, tgt)
    cols = [ht.class_of(image(hs.lift(j))) for j in range(src.ngens)]
    return ModuleMap(src, tgt, Matrix.from_columns(src.ring, cols, rows=tgt.ngens))


def _boundary_image(top, bot, Z, n):
    """The connecting map on chains: a relative n-chain of top, whose
    boundary in X lies in Z, to that boundary in bot's labels."""
    zset = Z.all_simplices()

    def image(vec):
        out = _chain_image(_faces, n, zip(top.labels(n), vec))
        if any(face not in zset for face in out):
            raise AssertionError("lifted boundary not supported on Z")
        return tuple(out.get(s, 0) for s in bot.labels(n - 1))
    return image


def cmd_triple_boundary(corpus, ring, args):
    """The triple-boundary command: the boundary h_n(X,Z) -> h_{n-1}(Z,W)
    of three subcomplex expressions."""
    X = corpus.expr(args.X)
    Z = corpus.expr(args.Z)
    W = corpus.expr(args.W)
    m = triple_boundary(X, Z, W, args.degree, ring)
    return {"degree": args.degree, "source": m.source.describe(),
            "target": m.target.describe(), "matrix": jmatrix(m.matrix)}, True
