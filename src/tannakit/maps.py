"""Coordinates, module maps and tensors: what maps between homology modules.

tannakit.linalg and tannakit.simplicial compute a homology module and stop
there; everything that reads coordinates in a basis, or maps one module to
another, lives here and loads on first use, so a command that only prints
homology never compiles it.  linalg, simplicial and the package serve these
names through their module __getattr__ (PEP 562).

kernel reads _echelon on sparse columns (over Z through _reduced_columns, A
stacked on the identity), and so do Q module_from_relations and image
bases.  One reader, _Solver, reads every coordinate, in integers, at the
pivots of a canonical basis, or of _reduced_columns's image basis for any
other A.  Every tensor identity and construction applies A (x) B to sparse
columns by one helper, _tensor_apply; no module calls Matrix.kron.  Maps on
homology (induced_map_on_homology, triple_boundary) read classes in the
Hermite cycle basis of ChainComplex.homology, and the Eilenberg-Zilber and
Alexander-Whitney chain maps compare a product's chains with the tensor
complex.
"""

from collections import Counter
from fractions import Fraction
from functools import cache
from math import lcm

from .errors import CompositionNonzero, NotNested, NotPairMap, TorsionPresent
from .linalg import (
    QQ, ZZ, FgModule, Subquotient, _apply, _coerce, _compose, _echelon, _integral,
    _nonzero_columns, _reduced_columns, _transpose,
)
from .matrix import Matrix
from .simplicial import (
    ChainComplex, SimplicialPair, _chain_image, _faces, _shuffle_paths, _sparse_columns,
    pair_homology, product_complex, product_pair, relative_chain_complex,
)


# ---------------------------------------------------------------------------
# Kernels and coordinates
# ---------------------------------------------------------------------------

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
                form.Uinv.take_cols(keep))
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
        m_out.ring, _nonzero_columns(m_in) + _nonzero_columns(rel_b),
        _nonzero_columns(m_out) + _nonzero_columns(rel_c), m_out.cols, m_out.rows)
    return Subquotient(FgModule.cokernel(coeff), lambda: (cycles, solver, coeff))


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


# ---------------------------------------------------------------------------
# Tensors
# ---------------------------------------------------------------------------

def tensor_swap(a, b, c, d):
    """Row order taking (i, j, k, l) to (i, k, j, l) on row-major flattened
    tensor indices of shape (a, b, c, d): M.take_rows(order) is P M for the
    permutation P swapping the middle factors, and M.take_cols(order) is
    M P^-1."""
    return [((i * b + j) * c + k) * d + l
            for i in range(a) for k in range(c) for j in range(b) for l in range(d)]


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
    order of tensor_swap.  Each nonzero moves by divmod arithmetic, with no
    permutation of all a b c d rows built: the flat index of (i, k, j, l) is
    (i c b + j) d, read off X's row i b + j, plus k b d + l, off Y's k d + l."""
    xs = [[(r // b * c * b * d + r % b * d, x) for r, x in col.items()] for col in X]
    ys = [[(r // d * b * d + r % d, y) for r, y in col.items()] for col in Y]
    return [{p + q: x * y for p, x in xc for q, y in yc} for xc in xs for yc in ys]


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


def tensor_complex(cx, cy):
    """Tensor product complex; basis labels (p, sigma, tau), p ascending."""
    if cx.ring != cy.ring:
        raise ValueError("ring mismatch")
    labels = {}
    for n in range(0, cx.top_degree + cy.top_degree + 1):
        labels[n] = tuple((p, s, t) for p in range(0, n + 1)
                          for s in cx.labels(p) for t in cy.labels(n - p))

    def faces(n, label):
        p, s, t = label
        for s2, c in cx.faces(p, s):
            yield (p - 1, s2, t), c
        sign = -1 if p & 1 else 1
        for t2, c in cy.faces(n - p, t):
            yield (p, s, t2), sign * c
    return ChainComplex(cx.ring, labels, faces)


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


# ---------------------------------------------------------------------------
# Eilenberg-Zilber, Alexander-Whitney
# ---------------------------------------------------------------------------

def _shuffle_sign(positions, total):
    """The sign of the shuffle: -1 to the number of steps t < s with s in
    positions and t not."""
    return (-1) ** sum(t < s for s in positions for t in range(total) if t not in positions)


def _ez(n, label):
    """Eilenberg-Zilber: sigma (x) tau to the signed sum of its shuffle paths."""
    _p, s, t = label
    for positions, path in _shuffle_paths(s, t):
        yield path, _shuffle_sign(positions, n)


def _aw(n, simplex):
    """Alexander-Whitney: a product simplex to its front (x) back faces."""
    xs = [v[0] for v in simplex]
    ys = [v[1] for v in simplex]
    for i in range(n + 1):
        front = tuple(xs[:i + 1])
        back = tuple(ys[i:])
        if len(set(front)) == len(front) and len(set(back)) == len(back):
            yield (i, front, back), 1


def ez_matrixes(cx, cy, cxy, tensor=None):
    """(EZ, AW) as ChainMaps between tensor(cx,cy) and cxy.

    Works for absolute and relative labeled complexes alike: path or face
    labels missing from a target basis are dropped (the quotient map).
    """
    if tensor is None:
        tensor = tensor_complex(cx, cy)
    return ChainMap(tensor, cxy, _ez), ChainMap(cxy, tensor, _aw)


def _assert_aw_ez_identity(ez, aw, tensor, what):
    for n in tensor.degrees:
        if _compose(aw._cols.get(n), ez._cols[n]) != [{j: 1} for j in range(tensor.rank(n))]:
            raise AssertionError("%s != id in degree %d" % (what, n))


def ez_aw_maps(X, Y, ring=ZZ):
    """Absolute Eilenberg-Zilber and Alexander-Whitney maps for X, Y.

    Asserts AW o EZ = id on the tensor complex.
    """
    cx = relative_chain_complex(SimplicialPair(X), ring)
    cy = relative_chain_complex(SimplicialPair(Y), ring)
    XY = product_complex(X, Y)
    cxy = relative_chain_complex(SimplicialPair(XY), ring)
    tensor = tensor_complex(cx, cy)
    ez, aw = ez_matrixes(cx, cy, cxy, tensor)
    _assert_aw_ez_identity(ez, aw, tensor, "AW o EZ")
    return ez, aw, tensor, cxy


def ez_aw_relative(p1, p2, ring=ZZ):
    """Relative EZ/AW between tensor of relative chains and chains of the
    product pair; AW o EZ = id is asserted."""
    c1, c2 = pair_homology(p1, ring), pair_homology(p2, ring)
    pp = product_pair(p1, p2)
    cp = pair_homology(pp, ring)
    tensor = tensor_complex(c1, c2)
    ez, aw = ez_matrixes(c1, c2, cp, tensor)
    _assert_aw_ez_identity(ez, aw, tensor, "relative AW o EZ")
    return pp, ez, aw, tensor
