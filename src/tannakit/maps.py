"""Coordinates and module maps: what maps between homology modules.

Kernels, presentations and subquotients with their transforms, the class
coordinates of a linalg.Subquotient (class_of and lift, with the cycle
basis and Smith transforms they build on the first call), the methods of
FgModule that read or build a presentation (relations, normalize_vector,
cokernel), elementary divisors, chain maps and the maps induced on
homology.

Every map, presentation and coordinate vector here is sparse: a map is its
columns {row: entry} over the nonzeros with a row count, a vector its
nonzeros {index: entry}.  A ModuleMap keeps its columns, and its dense
Matrix is a view built when a certificate or a test reads it; the
constructor also takes a dense Matrix, read once.  kernel reads _echelon on
sparse columns (over Z through _reduced_columns, A stacked on the
identity), and so do Q module_from_relations and image bases, each dividing
the fraction-free rows of _echelon over Q by their pivots.  One reader,
_Solver, reads every coordinate, in integers, at the pivots of a canonical
basis, or of _reduced_columns's image basis for any other A.  Every tensor
identity and construction applies A (x) B to sparse columns by one helper,
_tensor_apply; no module calls Matrix.kron.  Maps on homology
(induced_map_on_homology, triple_boundary, with the handler of the
triple-boundary command) read classes in the Hermite cycle basis of
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
    and solve (dense tuples) return T y.
    """

    def __init__(self, ring, columns, rows):
        """The solver of the rows-row matrix with these columns {row: entry}."""
        self.ring, self.rows, self.size, self.T = ring, rows, len(columns), None
        self.zero = _coerce(ring, 0)
        columns = [dict(sorted((i, x) for i, x in c.items() if x)) for c in columns]
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


# ---------------------------------------------------------------------------
# Presentations and module maps
# ---------------------------------------------------------------------------

def elementary_divisors(ring, columns):
    """Nonzero invariant factors, in divisibility order, of the matrix with
    these sparse columns, read as the rows of its transpose, which has the
    same ones; (1,) * rank over Q, whose columns are scaled to integers
    first."""
    return _sparse_divisors(_integral(columns), ring)


def cokernel(cls, ring, columns, rows):
    """FgModule.cokernel: the module ring^rows / the span of these sparse
    relation columns, from their elementary divisors."""
    divisors = elementary_divisors(ring, columns)
    return cls(ring, rows - len(divisors), [e for e in divisors if e > 1])


def module_relations(module):
    """FgModule.relations: the relation columns of the normalized
    presentation, one t e_i for each torsion generator i of order t."""
    return _order_relations(module.torsion)


def normalize_vector(module, vec):
    """FgModule.normalize_vector: generator coordinates {i: x} reduced to
    the canonical representative, over its nonzeros."""
    tt, n = module.torsion, len(module.torsion)
    out = {i: x % tt[i] if i < n else x for i, x in vec.items()}
    return {i: x for i, x in out.items() if x}


def _order_relations(orders):
    """Relation columns t e_i, one for each generator i of order t > 0."""
    return [{i: t} for i, t in enumerate(orders) if t]


def module_from_relations(ring, ngens, columns):
    """Normalize ring^ngens / the span of the sparse relation columns.

    Returns (module, to_normal, from_normal) as sparse columns: to_normal
    maps old generator coordinates to normalized ones (reduce with
    module.normalize_vector); from_normal lifts normalized generators to old
    coordinates.  Over Z the transforms are the Smith form's, whose dense
    input is built here, once.
    """
    if ring == ZZ:
        if not columns:
            eye = [{i: 1} for i in range(ngens)]
            return FgModule(ZZ, ngens), eye, eye
        from .smith import smith_normal_form
        form = smith_normal_form(Matrix.from_sparse(ZZ, columns, ngens))
        diag = [form.D[i, i] if i < len(columns) else 0 for i in range(ngens)]
        keep = [i for i, d in enumerate(diag) if d != 1]
        torsion = [d for d in diag if d > 1]
        kept = [form.U.row(i) for i in keep]
        return (FgModule(ZZ, len(keep) - len(torsion), torsion),
                [{r: row[j] for r, row in enumerate(kept) if row[j]} for j in range(ngens)],
                form.inverse_columns(keep))
    # over Q: quotient by the span; a coordinate vector reduces to its free
    # coordinates by subtracting the echelon rows at the pivots
    free, to_normal = _null_vectors(*_echelon(_integral(columns), QQ), ngens)
    return (FgModule(QQ, len(free)), _transpose(to_normal, ngens),
            [{f: Fraction(1)} for f in free])


class ModuleMap:
    """Map between f.g. modules on normalized generators, kept as its
    sparse columns {row: entry} over the nonzeros, one per source generator.

    The constructor takes those columns, or a dense Matrix, which it reads
    once.  Well-definedness on torsion (relations map into relations) is
    checked at construction; entries over torsion rows are stored reduced.
    .matrix is the dense view, built on first read.
    """

    __slots__ = ("source", "target", "columns", "_matrix")

    def __init__(self, source, target, columns):
        if source.ring != target.ring:
            raise ValueError("ring mismatch in module map")
        if isinstance(columns, Matrix):
            if columns.ring != source.ring:
                raise ValueError("ring mismatch in module map")
            if columns.rows != target.ngens:
                raise ValueError("matrix shape does not fit the presentations")
            columns = _nonzero_columns(columns)
        if len(columns) != source.ngens:
            raise ValueError("matrix shape does not fit the presentations")
        tt = target.torsion
        for i, t in enumerate(source.torsion):
            for j, x in columns[i].items():
                w = t * x
                if w % tt[j] if j < len(tt) else w:
                    raise ValueError("map not well defined on torsion generator %d" % i)
        if tt:
            reduced = ({j: x % tt[j] if j < len(tt) else x for j, x in c.items()}
                       for c in columns)
            columns = [{j: x for j, x in c.items() if x} for c in reduced]
        self.source, self.target, self.columns, self._matrix = source, target, columns, None

    @property
    def matrix(self) -> Matrix:
        """The dense target.ngens x source.ngens matrix."""
        if self._matrix is None:
            self._matrix = Matrix.from_sparse(self.source.ring, self.columns,
                                              self.target.ngens)
        return self._matrix

    @classmethod
    def identity(cls, mod):
        return cls(mod, mod, [{i: 1} for i in range(mod.ngens)])

    @classmethod
    def zero(cls, source, target):
        return cls(source, target, [{} for _ in range(source.ngens)])

    def compose(self, other):
        """self after other."""
        if other.target != self.source:
            raise ValueError("composition mismatch")
        return ModuleMap(other.source, self.target, _compose(self.columns, other.columns))

    def is_zero_map(self):
        return not any(self.columns)

    def __eq__(self, other):
        return (isinstance(other, ModuleMap) and self.source == other.source
                and self.target == other.target and self.columns == other.columns)

    def __hash__(self):
        return hash((self.source, self.target,
                     tuple(frozenset(c.items()) for c in self.columns)))

    def __repr__(self):
        return "ModuleMap(%r -> %r)" % (self.source, self.target)


def dual_map(f):
    """Transpose of a map between free modules, in the dual bases."""
    if not (f.source.is_free() and f.target.is_free()):
        raise TorsionPresent("dual_map requires free source and target")
    return ModuleMap(f.target, f.source, _transpose(f.columns, f.target.ngens))


# ---------------------------------------------------------------------------
# Subquotients
# ---------------------------------------------------------------------------

def subquotient(d_in, d_out):
    """Homology at the middle of  A --d_in--> B --d_out--> C.

    Raises CompositionNonzero unless d_out o d_in = 0.
    """
    if d_in.target != d_out.source:
        raise ValueError("d_in target differs from d_out source")
    B, C = d_in.target, d_out.target
    return presented_subquotient(B.ring, B.ngens, d_in.columns + B.relations(),
                                 d_out.columns + C.relations(), C.ngens)


def presented_subquotient(ring, n, into, out, rows):
    """ker/im in B = ring^n, the arguments those of _cycle_coordinates: into
    is the sparse columns of the map into B, then B's relations; out those
    of the map out of B, then the relations of its target, on rows rows;
    either presentation normalized or not.  Raises CompositionNonzero when a
    column of into is not a cycle.  The module is the cokernel of the cycle
    coordinates of into, read from elementary divisors;
    module_from_relations (over Z a Smith form with its transforms) runs on
    the first class_of or lift."""
    cycles, solver, coeff = _cycle_coordinates(ring, n, into, out, rows)
    return Subquotient(FgModule.cokernel(ring, coeff, len(cycles)),
                       lambda: (cycles, solver, coeff))


def _cycle_coordinates(ring, n, into, out, rows):
    """(cycles, solver, coeff) at B = ring^n, for the sparse columns into
    (the map into B, then B's relations) and out (the map out of B, then
    the relations of its target, on rows rows): a basis of the cycles of B
    as sparse columns, the _Solver on them, and the coordinates in it of
    the columns of into, as sparse columns."""
    cycles = [{i: x for i, x in c.items() if i < n} for c in kernel(ring, out, rows)]
    solver = _Solver(ring, cycles, n)
    coeff = [solver.read(col) for col in into]
    if None in coeff:
        raise CompositionNonzero("boundary does not lie in the cycle submodule")
    return cycles, solver, coeff


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
    """Subquotient.class_of: the normalized coordinates {i: x} of the class
    of a cycle, given by its nonzero coordinates {i: x} in the middle
    module's generators."""
    _cycle_basis(sq)
    c = sq._solver.read(vec)
    if c is None:
        raise ValueError("vector is not a cycle (or not in the cycle submodule)")
    return sq.module.normalize_vector(_compose(sq._to_normal, [c])[0])


def lift(sq, j):
    """Subquotient.lift: a cycle {i: x} representing normalized generator j."""
    return _compose(_cycle_basis(sq), [sq._from_normal[j]])[0]


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
        """The image {i: x} of a chain of degree d, given by its nonzero
        coordinates {i: x}."""
        return _compose(self._cols.get(d), [vec])[0]


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
    return ModuleMap(src, tgt, [ht.class_of(image(hs.lift(j))) for j in range(src.ngens)])


def _boundary_image(top, bot, Z, n):
    """The connecting map on chains: a relative n-chain {i: x} of top, whose
    boundary in X lies in Z, to that boundary {i: x} in bot's labels."""
    zset, labels = Z.all_simplices(), top.labels(n)

    def image(vec):
        out = _chain_image(_faces, n, ((labels[i], x) for i, x in vec.items()))
        if any(face not in zset for face in out):
            raise AssertionError("lifted boundary not supported on Z")
        return {k: x for k, x in ((bot.index(n - 1, s), x) for s, x in out.items())
                if k is not None}
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
