"""Tensor products and the Kunneth isomorphism: the tensor product of two
modules and of two chain complexes, the Eilenberg-Zilber and
Alexander-Whitney chain maps between the tensor complex and a product's
chains, the Kunneth isomorphism tau on good pairs, and the kunneth command.

Every map and presentation here is sparse columns {row: entry}.  tau reads
the Alexander-Whitney images in the sparse classes z_i (x) w_j, outer
products of the sparse cycles lift returns, modulo the tensor complex's
boundaries, and its Eilenberg-Zilber inverse, read off the sparse cycle
classes class_of returns, is checked on both sides by _compose; both are
square sparse columns, which the kunneth command prints, with the
determinant of tau's one dense Matrix.  The tensor product of two modules
is the cokernel of the sparse relation columns of each tensored with the
other's generators.
"""

from .errors import NotGoodPair
from .linalg import ZZ, FgModule, _compose
from .maps import ChainMap, _Solver, _tensor_apply
from .matrix import Matrix, jmatrix, jscalar
from .simplicial import (
    ChainComplex, SimplicialPair, _shuffle_paths, pair_homology, product_complex, product_pair,
    relative_chain_complex,
)
from .tannaka import PairsContext, vertex_payload


# ---------------------------------------------------------------------------
# Tensors
# ---------------------------------------------------------------------------

def tensor_swap(a, b, c, d):
    """Row order taking (i, j, k, l) to (i, k, j, l) on row-major flattened
    tensor indices of shape (a, b, c, d): the rows of M in this order are
    P M for the permutation P swapping the middle factors, and its columns
    in this order M P^-1."""
    return [((i * b + j) * c + k) * d + l
            for i in range(a) for k in range(c) for j in range(b) for l in range(d)]


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


def module_tensor(a, b):
    """FgModule.tensor: the module presented by the columns of ra (x) 1 and
    1 (x) rb."""
    if a.ring != b.ring:
        raise ValueError("ring mismatch in tensor")
    ra, rb = a.relations(), b.relations()
    na, nb = a.ngens, b.ngens
    cols = ([_tensor_apply(ra, None, nb, nb, {x: 1}) for x in range(len(ra) * nb)]
            + [_tensor_apply(None, rb, nb, len(rb), {x: 1}) for x in range(na * len(rb))])
    return FgModule.cokernel(a.ring, cols, na * nb)


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


# ---------------------------------------------------------------------------
# The Kunneth isomorphism on good pairs
# ---------------------------------------------------------------------------

def is_good_vertex(pair, n):
    """Free Z homology supported only in degree n (the zero module is allowed)."""
    cx = pair_homology(pair, ZZ)
    return all(not cx.homology_module(d).torsion if d == n else cx.homology_module(d).is_zero()
               for d in range(pair.X.dim + 1))


class TauIso:
    """Invertible h(v x w) -> h(v) (x) h(w) induced by Alexander-Whitney,
    and its inverse, as square sparse columns."""

    __slots__ = ("v", "w", "vw", "ring", "columns", "inverse_columns")

    def __init__(self, v, w, vw, ring, columns, inverse_columns):
        self.v, self.w, self.vw, self.ring = v, w, vw, ring
        self.columns, self.inverse_columns = columns, inverse_columns


def kunneth_tau(ctx: PairsContext, v, w) -> TauIso:
    """Kunneth isomorphism on good pairs, via relative AW with EZ inverse."""
    dia, ring = ctx.diagram, ctx.ring
    pv, nv = vertex_payload(dia.payloads, v)
    pw, nw = vertex_payload(dia.payloads, w)
    vw = ctx.product_vertex(v, w)
    pvw, nvw = dia.payloads[vw]
    for (name, p, n) in ((v, pv, nv), (w, pw, nw), (vw, pvw, nvw)):
        if not is_good_vertex(p, n):
            raise NotGoodPair("vertex %r is not a good pair" % (name,))
    c1, c2, cp = (pair_homology(p, ring) for p in (pv, pw, pvw))
    hv, hw, hvw = c1.homology(nv), c2.homology(nw), cp.homology(nvw)
    rv, rw, rvw = hv.module.free_rank, hw.module.free_rank, hvw.module.free_rank
    if rvw != rv * rw:
        raise NotGoodPair("Kunneth rank mismatch at (%r, %r)" % (v, w))
    tensor = tensor_complex(c1, c2)
    ez, aw = ez_matrixes(c1, c2, cp, tensor)
    N, n = nvw, rv * rw

    # basis of H_N(tensor): the classes of z_i (x) w_j, sparse outer
    # products, read modulo the boundaries of degree N + 1
    l1, l2 = c1.labels(nv), c2.labels(nw)
    zs, ws = [hv.lift(i) for i in range(rv)], [hw.lift(j) for j in range(rw)]
    basis = [{tensor.index(N, (nv, l1[a], l2[b])): x * y
              for a, x in z.items() for b, y in w.items()} for z in zs for w in ws]
    solver = _Solver(ring, basis + tensor._cols.get(N + 1, []), tensor.rank(N))

    cols = []
    for k in range(rvw):
        sol = solver.read(_compose(aw._cols[N], [hvw.lift(k)])[0])
        if sol is None:
            raise NotGoodPair("AW image escapes the Kunneth basis at (%r, %r)" % (v, w))
        cols.append({i: x for i, x in sol.items() if i < n})
    inverse = [hvw.class_of(c) for c in _compose(ez._cols.get(N), basis)]
    if (_compose(cols, inverse) != [{j: 1} for j in range(n)]
            or _compose(inverse, cols) != [{j: 1} for j in range(rvw)]):
        raise NotGoodPair("tau and its EZ inverse fail to invert at (%r, %r)" % (v, w))
    return TauIso(v, w, vw, ring, cols, inverse)


def cmd_kunneth(corpus, ring, args):
    """The kunneth command: tau at (v, w) with its inverse, and its
    determinant when it is square."""
    ctx = corpus.context(args.diagram, ring)
    tau = ctx.tau(args.v, args.w)
    n = len(tau.columns)
    res = {"v": args.v, "w": args.w, "product_vertex": tau.vw,
           "matrix": jmatrix(tau.columns, n), "inverse": jmatrix(tau.inverse_columns, n)}
    if n:
        from .forms import determinant
        res["det"] = jscalar(determinant(Matrix.from_sparse(ring, tau.columns, n)))
    return res, True
