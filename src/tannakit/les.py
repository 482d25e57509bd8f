"""Exactness certificates of the long exact sequence of a pair.

    ... -> h_n(Z) -> h_n(X) -> h_n(X,Z) -> h_{n-1}(Z) -> ...

Every map of one certificate, i_*, j_* and the boundary, is read through
the chain-level reductions of Z, X and (X, Z) (tannakit.reduction), so all
of them use one basis.  A node holds ranks over the fraction field, an ok
flag and the isomorphism class of its defect module ker/im, the module of
maps.subquotient, none of which depends on that basis.  Only the les
command imports this module (simplicial and the package serve les_exactness
through their module __getattr__), so no other command compiles it.
"""

from .errors import CompositionNonzero
from .linalg import QQ, ZZ, FgModule, elementary_divisors
from .maps import ModuleMap, _boundary_image, _homology_map, subquotient
from .reduction import reduction
from .simplicial import SimplicialPair, pair_homology


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
    return LesCertificate(ring, les_nodes(les_maps(pair, ring, range(0, N + 2)), N, ring))


def les_maps(pair, ring, degrees):
    """{n: (i_*, j_*, boundary)} for the pair's long exact sequence, every
    map in the homology bases of the reductions of Z, X and (X, Z)."""
    Z = pair.Z
    cz, cx, cxz = (pair_homology(p, ring)
                   for p in (SimplicialPair(Z), SimplicialPair(pair.X), pair))
    hz, hx, hxz = reduction(cz), reduction(cx), reduction(cxz)
    return {n: (_homology_map(hz.homology(n), hx.homology(n), _relabel_image(cz, cx, n)),
                _homology_map(hx.homology(n), hxz.homology(n), _relabel_image(cx, cxz, n)),
                _homology_map(hxz.homology(n), hz.homology(n - 1),
                              _boundary_image(cxz, cz, Z, n)))
            for n in degrees}


def _relabel_image(src, tgt, n):
    """n-chains of src read in tgt's labels, the ones tgt lacks dropped: the
    chain map of the inclusion Z -> X and of the quotient X -> (X, Z), whose
    labels are the same ordered simplices."""
    index = [tgt.index(n, s) for s in src.labels(n)]

    def image(vec):
        out = [0] * tgt.rank(n)
        for k, x in zip(index, vec):
            if k is not None:
                out[k] += x
        return tuple(out)
    return image


def les_nodes(maps, N, ring):
    """The nodes of the sequence, top degree first, from {n: (i_n, j_n,
    boundary_n)} for n = 0 .. N + 1."""
    nodes = []
    for n in range(N + 1, -1, -1):
        i_n, j_n, b_n = maps[n]
        # at h_n(Z): incoming boundary from h_{n+1}(X,Z), outgoing i_n
        if n <= N:
            b_up = maps[n + 1][2]
            if b_up.target != i_n.source:
                b_up = ModuleMap.zero(FgModule.zero(ring), i_n.source)
            ok, defect = _exact_at(b_up, i_n)
            nodes.append(LesNode(n, "h(Z)", ok, _rank_of(b_up),
                                 _kernel_rank(i_n), defect))
        # at h_n(X): incoming i_n, outgoing j_n
        ok, defect = _exact_at(i_n, j_n)
        nodes.append(LesNode(n, "h(X)", ok, _rank_of(i_n),
                             _kernel_rank(j_n), defect))
        # at h_n(X,Z): incoming j_n, outgoing boundary
        ok, defect = _exact_at(j_n, b_n)
        nodes.append(LesNode(n, "h(X,Z)", ok, _rank_of(j_n),
                             _kernel_rank(b_n), defect))
    return nodes


def _exact_at(d_in, d_out):
    """(ok, defect): the defect is the module of ker d_out / im d_in, which
    subquotient reads from elementary divisors."""
    try:
        defect = subquotient(d_in, d_out).module
    except CompositionNonzero:
        return False, "composition nonzero"
    if defect.is_zero():
        return True, "0"
    return False, defect.describe()


def _rank_of(mm):
    """Rank over the fraction field: only free target rows and free source
    columns count (torsion generators come first and vanish there)."""
    m = mm.matrix.take_rows(range(len(mm.target.torsion), mm.target.ngens))
    m = m.take_cols(range(len(mm.source.torsion), mm.source.ngens))
    return len(elementary_divisors(m.to_ring(QQ)))


def _kernel_rank(mm):
    """Rank of the kernel of the map, over the fraction field."""
    return mm.source.free_rank - _rank_of(mm)
