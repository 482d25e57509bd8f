"""Monoidal layer over the truncation data: Kunneth isomorphisms on good
pairs, products of coalgebra truncations, bialgebra certificates, the
grouplike element attached to the circle-with-point vertex, and the
multiplication-by-sigma directed system standing in for localization.

The product of truncations is computed on the algebra side: restrict a
compatible family to the product vertices, conjugate through the Kunneth
isomorphisms, read the result inside End(V) (x) End(W), and solve its
coordinates in the subspace End(T|F) (x) End(T|G) by two solves, one in
each factor's basis, with the two End algebras' own solvers.  Failure of
that membership is reported as ProductEscape, never silently projected.
Every identity checked here and the sigma step contract sparse columns by
linalg._tensor_apply, with no Kronecker matrix: mu is checked as a
coalgebra morphism out of the tensor coalgebra A_F (x) A_G by
tannaka._coalgebra_morphism, the check every transition map passes.
PairsContext, the diagram context with its End-algebra and tau caches, is in
tannakit.tannaka, so that a command that takes no product never loads this
module; PairsContext.tau loads kunneth_tau from here on its first call.
"""

from .errors import (
    InputError, MissingProducts, NotGoodPair, ProductEscape, WrongRank,
)
from .linalg import (
    ZZ, Matrix, _compose, _nonzero_columns, _Solver, _swapped_tensor, _tensor_apply, tensor_swap,
)
from .simplicial import (
    SimplicialMap, SimplicialPair, induced_map_on_homology, pair_homology,
    product_pair, tensor_complex, ez_matrixes,
)
from .tannaka import (
    PairsContext, Subdiagram, _coalgebra_morphism, coaction, transition_map, vertex_payload,
)


def is_good_vertex(pair, n, ring=ZZ):
    """Free homology supported only in degree n (the zero module is allowed)."""
    ph = pair_homology(pair, ZZ)
    for d in range(0, pair.X.dim + 1):
        m = ph.module(d)
        if d != n and not m.is_zero():
            return False
        if d == n and m.torsion:
            return False
    return True


class TauIso:
    """Invertible h(v x w) -> h(v) (x) h(w) induced by Alexander-Whitney."""

    __slots__ = ("v", "w", "vw", "matrix", "inverse")

    def __init__(self, v, w, vw, matrix, inverse):
        self.v, self.w, self.vw, self.matrix, self.inverse = v, w, vw, matrix, inverse


def kunneth_tau(ctx: PairsContext, v, w) -> TauIso:
    """Kunneth isomorphism on good pairs, via relative AW with EZ inverse."""
    dia = ctx.diagram
    ring = ctx.ring
    pv, nv = vertex_payload(dia.payloads, v)
    pw, nw = vertex_payload(dia.payloads, w)
    vw = ctx.product_vertex(v, w)
    pvw, nvw = dia.payloads[vw]
    for (name, p, n) in ((v, pv, nv), (w, pw, nw), (vw, pvw, nvw)):
        if not is_good_vertex(p, n):
            raise NotGoodPair("vertex %r is not a good pair" % (name,))
    hv = pair_homology(pv, ring)
    hw = pair_homology(pw, ring)
    hvw = pair_homology(pvw, ring)
    rv, rw, rvw = (hv.module(nv).free_rank, hw.module(nw).free_rank,
                   hvw.module(nvw).free_rank)
    if rvw != rv * rw:
        raise NotGoodPair("Kunneth rank mismatch at (%r, %r)" % (v, w))
    c1, c2, cp = hv.complex, hw.complex, hvw.complex
    tensor = tensor_complex(c1, c2)
    ez, aw = ez_matrixes(c1, c2, cp, tensor)
    N = nvw

    # basis of H_N(tensor): classes of z_i (x) w_j
    tlabels = tensor.labels(N)
    tindex = {l: i for i, l in enumerate(tlabels)}
    basis_cols = []
    for i in range(rv):
        zi = hv.lift(nv, i)
        for j in range(rw):
            wj = hw.lift(nw, j)
            vec = [0] * len(tlabels)
            for ia, sa in enumerate(c1.labels(nv)):
                if zi[ia] == 0:
                    continue
                for ib, sb in enumerate(c2.labels(nw)):
                    if wj[ib] == 0:
                        continue
                    vec[tindex[(nv, sa, sb)]] += zi[ia] * wj[ib]
            basis_cols.append(tuple(vec))
    B = Matrix.from_columns(ring, basis_cols, rows=len(tlabels))
    bnd = tensor.boundary(N + 1)
    solver = _Solver(B.hstack(bnd) if bnd.cols else B)

    cols = []
    for k in range(rvw):
        g = hvw.lift(N, k)
        img = aw.apply(N, g)
        sol = solver.solve(img)
        if sol is None:
            raise NotGoodPair("AW image escapes the Kunneth basis at (%r, %r)" % (v, w))
        cols.append(tuple(sol[:rv * rw]))
    matrix = Matrix.from_columns(ring, cols, rows=rv * rw)

    inv_cols = [hvw.class_of(N, ez.apply(N, vec)) for vec in basis_cols]
    inverse = Matrix.from_columns(ring, inv_cols, rows=rvw)
    if matrix * inverse != Matrix.identity(ring, rv * rw) or \
       inverse * matrix != Matrix.identity(ring, rvw):
        raise NotGoodPair("tau and its EZ inverse fail to invert at (%r, %r)" % (v, w))
    return TauIso(v, w, vw, matrix, inverse)


# -- tau coherence checks ----------------------------------------------------

def _swap_map(p1, p2):
    XY = product_pair(p1, p2).X
    YX = product_pair(p2, p1).X
    return SimplicialMap(XY, YX, {v: (v[1], v[0]) for v in XY.vertices})


def check_tau_symmetry(ctx: PairsContext, v, w):
    """tau_{w,v} o swap_* = (-1)^{nm} flip o tau_{v,w} as matrices."""
    dia = ctx.diagram
    pv, nv = dia.payloads[v]
    pw, nw = dia.payloads[w]
    vw = ctx.product_vertex(v, w)
    wv = ctx.product_vertex(w, v)
    pvw, nvw = dia.payloads[vw]
    pwv, _ = dia.payloads[wv]
    s = _swap_map(pv, pw)
    s_star = induced_map_on_homology(s, pvw, pwv, nvw, ctx.ring)
    t_vw = ctx.tau(v, w)
    t_wv = ctx.tau(w, v)
    rv = ctx.rep.rank(v)
    rw = ctx.rep.rank(w)
    sign = (-1) ** (nv * nw)
    left = t_wv.matrix * s_star.matrix
    right = t_vw.matrix.take_rows(tensor_swap(1, rv, rw, 1)).scale(sign)
    return left == right


def check_tau_unit(ctx: PairsContext, u, v, left=True):
    """Unit coherence: tau_(u,v) composed with the unit identification equals
    the projection isomorphism h(u x v) -> h(v)."""
    dia = ctx.diagram
    pu, nu = dia.payloads[u]
    pv, nv = dia.payloads[v]
    if ctx.rep.rank(u) != 1 or nu != 0:
        raise WrongRank("unit vertex must carry a rank-1 module in degree 0")
    if left:
        uv = ctx.product_vertex(u, v)
        t = ctx.tau(u, v)
        puv, nuv = dia.payloads[uv]
        proj = SimplicialMap(puv.X, pv.X, {x: x[1] for x in puv.X.vertices})
    else:
        uv = ctx.product_vertex(v, u)
        t = ctx.tau(v, u)
        puv, nuv = dia.payloads[uv]
        proj = SimplicialMap(puv.X, pv.X, {x: x[0] for x in puv.X.vertices})
    proj_star = induced_map_on_homology(proj, puv, pv, nuv, ctx.ring)
    # with rank(u) = 1, h(u) (x) h(v) = h(v) on the nose in our bases
    return t.matrix == proj_star.matrix


def check_tau_associativity(ctx: PairsContext, v, w, x):
    """(tau_{v,w} (x) id) tau_{vw,x} = (id (x) tau_{w,x}) tau_{v,wx} alpha_*."""
    dia = ctx.diagram
    ring = ctx.ring
    vw = ctx.product_vertex(v, w)
    wx = ctx.product_vertex(w, x)
    vw_x = ctx.product_vertex(vw, x)
    v_wx = ctx.product_vertex(v, wx)
    p_l, n_l = dia.payloads[vw_x]
    p_r, _ = dia.payloads[v_wx]
    alpha = SimplicialMap(p_l.X, p_r.X,
                          {t: (t[0][0], (t[0][1], t[1])) for t in p_l.X.vertices})
    alpha_star = induced_map_on_homology(alpha, p_l, p_r, n_l, ring)
    rw, rx = ctx.rep.rank(w), ctx.rep.rank(x)
    t_vw, t_wx = _nonzero_columns(ctx.tau(v, w).matrix), _nonzero_columns(ctx.tau(w, x).matrix)
    right = _compose(_nonzero_columns(ctx.tau(v, wx).matrix), _nonzero_columns(alpha_star.matrix))
    return all(not any(_tensor_apply(None, t_wx, rw * rx, len(t_wx), r, -1,
                                     _tensor_apply(t_vw, None, rx, rx, l)).values())
               for l, r in zip(_nonzero_columns(ctx.tau(vw, x).matrix), right))


# -- products of truncations --------------------------------------------------

class MuFragment:
    """mu: A_F (x) A_G -> A_H, the dual of restriction-to-products."""

    __slots__ = ("EF", "EG", "EH", "matrix")

    def __init__(self, EF, EG, EH, matrix):
        self.EF, self.EG, self.EH, self.matrix = EF, EG, EH, matrix

    def apply(self, f_coords, g_coords):
        return self.matrix.apply(tuple(a * b for a in f_coords for b in g_coords))


def _tensor_coordinates(columns, SF, SG):
    """x with Y = B_F x B_G^T, for Y given by its columns, as the flat tuple
    of the x_ij (i * dim G + j), or None: the columns of Y are solved in B_F,
    then the rows of that in B_G, by the solvers SF and SG of the bases."""
    Z = [SF.solve(col) for col in columns]
    if None in Z:
        return None
    X = [SG.solve(row) for row in zip(*Z)]
    return None if None in X else tuple(x for row in X for x in row)


def product_on_truncations(ctx: PairsContext, subF, subG, subH) -> MuFragment:
    """Restriction-to-products read through the Kunneth isomorphisms, dualized.

    Every product vertex v x w (v in F, w in G) must be registered and lie in
    H; tau data is computed on demand.  Family k of End(T|H), conjugated by
    tau at each v x w, is a matrix Y with rows in End(T|F)'s flat layout
    (v, a, c) and columns in End(T|G)'s (w, b, d), and Y = B_F x B_G^T for
    the row k of mu, x.  ProductEscape reports a family with no such x.
    """
    rep = ctx.rep
    EF, EG, EH = ctx.end(subF), ctx.end(subG), ctx.end(subH)
    hvs = set(subH.vertices)
    conj = {v: [] for v in subF.vertices}    # (rank w, v x w, tau, tau^-1) over w in G
    for v in subF.vertices:
        for w in subG.vertices:
            vw = ctx.product_vertex(v, w)
            if vw not in hvs:
                raise MissingProducts("product vertex %r of (%r, %r) is outside H"
                                      % (vw, v, w))
            t = ctx.tau(v, w)
            conj[v].append((rep.rank(w), vw, t.matrix, t.inverse))
    mu = []
    for k in range(EH.dim):
        # row (v, a, c) of Y holds entry ((a, b), (c, d)) of each conjugated
        # block of family k at its column (w, b, d)
        Y = []
        for v in subF.vertices:
            blocks = [(rw, tm * EH.component(k, vw) * ti) for rw, vw, tm, ti in conj[v]]
            Y += [[m[a * rw + b, c * rw + d] for rw, m in blocks
                   for b in range(rw) for d in range(rw)]
                  for a in range(rep.rank(v)) for c in range(rep.rank(v))]
        columns = list(zip(*Y))
        sol = _tensor_coordinates(columns, EF._solver, EG._solver)
        if sol is None:
            raise ProductEscape("family %d of End(T|H) leaves End(T|F) (x) End(T|G)" % k)
        mu.append(sol)
    return MuFragment(EF, EG, EH, Matrix(ctx.ring, mu, EH.dim, EF.dim * EG.dim))


# -- bialgebra certificate -----------------------------------------------------

class BialgebraCert:
    __slots__ = ("checks", "violations")

    def __init__(self):
        self.checks = []
        self.violations = []

    def record(self, name, ok, detail=""):
        self.checks.append({"name": name, "ok": ok, "detail": detail})
        if not ok:
            self.violations.append(name)

    @property
    def ok(self):
        return not self.violations

    def as_dict(self):
        return {"ok": self.ok, "checks": self.checks}


def check_fragment_bialgebra(ctx, mu: MuFragment, cert=None, label=""):
    """Delta o mu = (mu (x) mu) (1 swap 1) (Delta (x) Delta); eps o mu = eps (x) eps.

    That is, mu is a coalgebra morphism out of the tensor coalgebra
    A_F (x) A_G, whose comultiplication (1 swap 1)(Delta_F (x) Delta_G) and
    counit eps_F (x) eps_G are built as sparse columns by _swapped_tensor;
    tannaka._coalgebra_morphism, which checks every transition, checks it.
    """
    AF, AG, AH = mu.EF.coalgebra(), mu.EG.coalgebra(), mu.EH.coalgebra()
    if cert is None:
        cert = BialgebraCert()
    rf, rg = AF.rank, AG.rank
    comultiplicative, counital = _coalgebra_morphism(
        mu.matrix, _swapped_tensor(AF.delta_columns, AG.delta_columns, rf, rf, rg, rg),
        _swapped_tensor(_nonzero_columns(AF.counit), _nonzero_columns(AG.counit), 1, 1, 1, 1),
        AH)
    cert.record("delta-mu%s" % label, comultiplicative)
    cert.record("epsilon-mu%s" % label, counital)
    return cert


def check_commutativity(ctx, muFG: MuFragment, muGF: MuFragment, cert=None,
                        label=""):
    """mu_{F,G} = mu_{G,F} o flip after landing in the same truncation."""
    if cert is None:
        cert = BialgebraCert()
    if muFG.EH is not muGF.EH and muFG.EH.sub.vertices != muGF.EH.sub.vertices:
        raise InputError("commutativity check needs a common target truncation")
    flip = tensor_swap(1, muFG.EG.dim, muFG.EF.dim, 1)
    cert.record("commutativity%s" % label, muFG.matrix == muGF.matrix.take_cols(flip))
    return cert


def check_associativity(ctx, mu_fg, mu_fg_k, mu_gk, mu_f_gk, t_left, t_right,
                        cert=None, label=""):
    """Compare mu(mu (x) 1) and mu(1 (x) mu) after transitions into a common
    truncation.  t_left, t_right are TransitionMaps from the two targets."""
    if cert is None:
        cert = BialgebraCert()
    rf, rg, rk = mu_fg.EF.dim, mu_fg.EG.dim, mu_gk.EG.dim
    fg, gk, n = _nonzero_columns(mu_fg.matrix), _nonzero_columns(mu_gk.matrix), rf * rg * rk
    left = _compose(_compose(_nonzero_columns(t_left.matrix), _nonzero_columns(mu_fg_k.matrix)),
                    [_tensor_apply(fg, None, rk, rk, {x: 1}) for x in range(n)])
    right = _compose(_compose(_nonzero_columns(t_right.matrix), _nonzero_columns(mu_f_gk.matrix)),
                     [_tensor_apply(None, gk, mu_gk.matrix.rows, rg * rk, {x: 1})
                      for x in range(n)])
    cert.record("associativity%s" % label, left == right)
    return cert


def check_unit_grouplike(ctx, unit_vertex, sub, cert=None, label=""):
    """The image of the canonical unit element is grouplike in A_sub."""
    if cert is None:
        cert = BialgebraCert()
    EU, Esub = ctx.end(Subdiagram(ctx.diagram, [unit_vertex])), ctx.end(sub)
    if EU.coalgebra().rank != 1:
        raise WrongRank("unit truncation must have rank 1")
    unit_img = transition_map(ctx.rep, EU, Esub).matrix.apply((1,))
    A = Esub.coalgebra()
    cert.record("unit-grouplike%s" % label, A.grouplike_defect(unit_img).is_zero())
    cert.record("unit-counit%s" % label, A.counit_of(unit_img) == 1)
    return cert


def bialgebra_axiom_check(ctx: PairsContext, tower, unit_vertex=None) -> BialgebraCert:
    """Run every bialgebra check the tower supports.

    tower: list of Subdiagrams ordered by inclusion.  For every ordered pair
    (F, G) from the tower whose products all land in some tower member H the
    fragment mu_{F,G->H} is computed and checked; mirrored pairs yield
    commutativity checks; the unit vertex (if given) grouplike checks.
    """
    cert = BialgebraCert()
    fragments = {}
    for i, F in enumerate(tower):
        for j, G in enumerate(tower):
            host = None
            try:
                needed = {ctx.product_vertex(v, w)
                          for v in F.vertices for w in G.vertices}
            except MissingProducts:
                continue
            for H in tower:
                if needed <= set(H.vertices):
                    host = H
                    break
            if host is None:
                continue
            mu = product_on_truncations(ctx, F, G, host)
            fragments[(i, j)] = mu
            check_fragment_bialgebra(ctx, mu, cert=cert,
                                     label="[F%d,F%d]" % (i, j))
    for (i, j), mu in fragments.items():
        mirror = fragments.get((j, i))
        if mirror is not None and \
           mirror.EH.sub.vertices == mu.EH.sub.vertices:
            check_commutativity(ctx, mu, mirror, cert=cert,
                                label="[F%d,F%d]" % (i, j))
    if unit_vertex is not None:
        for i, F in enumerate(tower):
            if unit_vertex in F.vertices:
                check_unit_grouplike(ctx, unit_vertex, F, cert=cert,
                                     label="[F%d]" % i)
    return cert


# -- sigma ---------------------------------------------------------------------

class SigmaElement:
    __slots__ = ("sub", "coords")

    def __init__(self, sub, coords):
        self.sub = sub
        self.coords = tuple(coords)


def sigma_element(ctx: PairsContext, sub) -> SigmaElement:
    """The coalgebra element with rho(g) = sigma (x) g at the circle vertex.

    Asserts the grouplike identities Delta sigma = sigma (x) sigma and
    eps(sigma) = 1.
    """
    c = ctx.circle
    if c is None or c not in sub.vertices:
        raise InputError("subdiagram does not contain the designated circle vertex")
    if ctx.rep.rank(c) != 1:
        raise WrongRank("circle vertex has rank %d, expected 1" % ctx.rep.rank(c))
    E = ctx.end(sub)
    A = ctx.coalgebra(sub)
    co = coaction(ctx.rep, sub, c, E, A)
    coords = tuple(co.rho[i, 0] for i in range(A.rank))
    if not A.grouplike_defect(coords).is_zero():
        raise AssertionError("sigma is not grouplike")
    if A.counit_of(coords) != 1:
        raise AssertionError("counit of sigma differs from 1")
    return SigmaElement(sub, coords)


class SigmaSystem:
    """Matrices of multiplication by sigma along a chain of truncations."""

    __slots__ = ("steps", "kernels", "ring")

    def __init__(self, steps, kernels, ring):
        self.steps = steps
        self.kernels = kernels
        self.ring = ring

    def as_dict(self):
        return {"steps": [{"shape": [m.rows, m.cols]} for m in self.steps],
                "kernels": self.kernels}


def sigma_directed_system(ctx: PairsContext, chain, depth) -> SigmaSystem:
    """Multiplication-by-sigma maps A_{F_k} -> A_{F_{k+1}} with kernel reports.

    chain: Subdiagrams F_0 <= F_1 <= ...; each F_k must contain the circle
    vertex and F_{k+1} all products v x circle for v in F_k.  depth bounds
    how many steps are materialized; kernel reports list, per starting
    truncation, the rank of the kernel of the composite to the end of the
    materialized chain (elements dying within the given depth).
    """
    if depth < 0:
        raise InputError("depth must be at least 0, got %d" % depth)
    c = ctx.circle
    if c is None:
        raise InputError("no circle vertex designated")
    steps = []
    nsteps = min(depth, len(chain) - 1)
    for k in range(nsteps):
        F, Fnext = chain[k], chain[k + 1]
        if c not in F.vertices:
            raise InputError("chain member %d misses the circle vertex" % k)
        C = Subdiagram(ctx.diagram, [c])
        sigma = sigma_element(ctx, C)
        mu = product_on_truncations(ctx, F, C, Fnext)
        # column i of mu (1 (x) sigma): mu applied to e_i (x) sigma
        sig, rc = [{j: x for j, x in enumerate(sigma.coords) if x}], len(sigma.coords)
        steps.append(Matrix.from_sparse(ctx.ring, _compose(
            _nonzero_columns(mu.matrix),
            [_tensor_apply(None, sig, rc, 1, {i: 1}) for i in range(ctx.end(F).dim)]),
            mu.matrix.rows))
    kernels = []
    from .linalg import kernel
    for k in range(len(steps)):
        comp = steps[k]
        for m in steps[k + 1:]:
            comp = m * comp
        ker = kernel(comp)
        kernels.append({"from": k, "kernel_rank": ker.cols})
    return SigmaSystem(steps, kernels, ctx.ring)
