"""Exactness certificates of the long exact sequence of a pair.

    ... -> h_n(Z) -> h_n(X) -> h_n(X,Z) -> h_{n-1}(Z) -> ...

Every node is read off the residual complexes R_Z, R_X and R_Q of the
chain-level reductions of Z, X and Q = (X, Z) (tannakit.reduction), between
which the maps of the sequence are chain maps: i = f_X i g_Z, j = f_Q q g_X
and the connecting map f_Z b g_Q, where b takes a relative chain to the
Z-part of its boundary in X (b d = -d b).  At h_n(B), with phi: R_A -> R_B
coming in and psi: R_B,n -> R_C,k going out, ker psi_* / im phi_* is
ker(alpha) / L for alpha(x, y) = (dx, psi x - dy) on E = R_B,n + R_C,k+1 and
the lattice L of the (dw, +-psi w), the (0, z) for the cycles z and the
(phi a, y) with dy = psi phi a for the cycles a.  ker(alpha) is a direct
summand of E, so the defect is Z^(dim E - rk alpha - rk L) plus Z/e for the
elementary divisors e > 1 of L.  A node holds ranks over the fraction
field, an ok flag and that defect module, none of which depends on a basis.
Only the les command imports this module (simplicial and the package serve
les_exactness through their module __getattr__), so no other command
compiles it, and it loads neither coordinates nor a Smith form.
"""

from .linalg import (QQ, ZZ, FgModule, _compose, _integral, _reduced_columns, _sparse_divisors,
                     _transpose)
from .reduction import reduction
from .simplicial import SimplicialPair, _faces, _sparse_columns, pair_homology


class LesNode:
    __slots__ = ("degree", "position", "ok", "rank_in", "rank_ker", "defect")

    def __init__(self, degree, position, ok, rank_in, rank_ker, defect):
        self.degree = degree
        self.position = position
        self.ok = ok
        self.rank_in = rank_in
        self.rank_ker = rank_ker
        self.defect = defect

    def as_dict(self):
        return {"degree": self.degree, "position": self.position,
                "ok": self.ok, "rank_image_in": self.rank_in,
                "rank_kernel_out": self.rank_ker, "defect": self.defect}


class LesCertificate:
    __slots__ = ("ring", "nodes", "ok")

    def __init__(self, ring, nodes):
        self.ring = ring
        self.nodes = nodes
        self.ok = all(n.ok for n in nodes)

    def as_dict(self):
        return {"ring": self.ring, "ok": self.ok,
                "nodes": [n.as_dict() for n in self.nodes]}


def les_exactness(pair, ring=ZZ) -> LesCertificate:
    """Exactness report for ... -> h_n(Z) -> h_n(X) -> h_n(X,Z) -> h_{n-1}(Z) -> ...

    Each node reports rank(im of the incoming map) and rank(ker of the
    outgoing map) over the fraction field, plus the exact (torsion-aware)
    defect module ker/im; exactness over Z means the defect vanishes.
    """
    N = pair.X.dim
    i, j, b = les_maps(pair, ring)
    nodes = []
    for n in range(N + 1, -1, -1):
        if n <= N:
            nodes.append(_node(n, "h(Z)", b, i, ring))
        nodes.append(_node(n, "h(X)", i, j, ring))
        nodes.append(_node(n, "h(X,Z)", j, b, ring))
    return LesCertificate(ring, nodes)


def _same(d, s):
    return ((s, 1),)


def les_maps(pair, ring):
    """(i, j, boundary) of the pair's long exact sequence as chain maps
    between the residual complexes of Z, X and (X, Z): each (source,
    target, shift, {d: columns}), with one sparse column per cell of the
    source in degree d = 0 .. dim X + 2, in the target's degree d + shift."""
    cz, cx, cq = (pair_homology(p, ring)
                  for p in (SimplicialPair(pair.Z), SimplicialPair(pair.X), pair))
    maps = []
    for src, tgt, rule, shift in ((cz, cx, _same, 0), (cx, cq, _same, 0), (cq, cz, _faces, -1)):
        rs, rt, cols = reduction(src), reduction(tgt), {}
        for d in range(0, pair.X.dim + 3):
            chain = _sparse_columns(rule, d, src.labels(d), tgt._index.get(d + shift, {}))
            cols[d] = _compose(rt.f.get(d + shift), _compose(chain, rs.g.get(d, [])))
        maps.append((rs.residual, rt.residual, shift, cols))
    return maps


def _node(n, position, phi, psi, ring):
    """The node at h_n(B) of phi: R_A -> R_B coming in and psi: R_B -> R_C
    going out, both as les_maps gives them."""
    A, B, shift, phi_cols = phi
    _, C, out, psi_cols = psi
    m, k = n - shift, n + out                   # phi: A_m -> B_n, psi: B_n -> C_k
    sign = -1 if out else 1                     # the connecting map anticommutes with d
    b, c = B.rank(n), C.rank(k + 1)
    _, basis, rank = _reduced_columns(ring, A.columns(m), A.rank(m - 1))
    images = _compose(phi_cols[m], basis[rank:])          # phi of the cycles of A_m
    # the kernel of (e, y) -> dy - psi phi(e) on coordinates e of the cycles
    # and chains y of C_{k+1}: its vectors with e = 0 are the cycles z, the
    # others give (phi(e), y) in L, and every cycle lifts to some y when the
    # leading e-parts are the unit vectors (the Hermite basis of all e)
    q = len(images)
    _, T, r = _reduced_columns(ring, [{i: -x for i, x in v.items()}
                                      for v in _compose(psi_cols[n], images)]
                               + C.columns(k + 1), C.rank(k))
    lifted = [(min(t), t[min(t)]) for t in T[r:] if min(t) < q]
    lattice = [_sum(dw, {i: sign * x for i, x in pw.items()}, b)
               for dw, pw in zip(B.columns(n + 1), psi_cols[n + 1])]
    lattice += [_sum(_compose(images, [{a: x for a, x in t.items() if a < q}])[0],
                     {i - q: x for i, x in t.items() if i >= q}, b) for t in T[r:]]
    below = B.rank(n - 1)
    alpha = [_sum(dx, px, below) for dx, px in zip(B.columns(n), psi_cols[n])]
    alpha += [_sum({}, {i: -x for i, x in dy.items()}, below) for dy in C.columns(k + 1)]
    kernel = b + c - _rank(alpha)
    boundaries = len(B.divisors(n + 1))
    rank_in = _rank(B.columns(n + 1) + images) - boundaries
    rank_ker = kernel - (len(T) - r - len(lifted)) - boundaries
    if lifted != [(a, 1) for a in range(q)] or any(_compose(alpha, lattice)):
        return LesNode(n, position, False, rank_in, rank_ker, "composition nonzero")
    divisors = _sparse_divisors(_transpose(_integral(lattice), b + c), ring)
    defect = FgModule(ring, kernel - len(divisors), [e for e in divisors if e > 1])
    if defect.is_zero():
        return LesNode(n, position, True, rank_in, rank_ker, "0")
    return LesNode(n, position, False, rank_in, rank_ker, defect.describe())


def _sum(x, y, offset):
    """The sparse vector (x, y) of a direct sum whose first summand has
    offset coordinates."""
    return {**x, **{offset + i: v for i, v in y.items()}}


def _rank(rows):
    """Rank over the fraction field of the sparse rows {col: int or Fraction}."""
    return len(_sparse_divisors(_integral(rows), QQ))
