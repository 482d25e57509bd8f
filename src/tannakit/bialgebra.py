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
PairsContext, the diagram context with its End-algebra and tau caches, is in
tannakit.tannaka, so that a command that takes no product never loads this
module; PairsContext.tau loads kunneth_tau from here on its first call.
"""

from .errors import (
    InputError, MissingProducts, NotGoodPair, ProductEscape, WrongRank,
)
from .linalg import (
    QQ, ZZ, Matrix, _Solver, tensor_swap,
)
from .simplicial import (
    SimplicialMap, SimplicialPair, induced_map_on_homology, pair_homology,
    product_pair, tensor_complex, ez_matrixes,
)
from .tannaka import (
    PairsContext, Subdiagram, coaction, transition_map, vertex_payload,
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
        self.v = v
        self.w = w
        self.vw = vw
        self.matrix = matrix
        self.inverse = inverse


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
    rv, rw, rx = ctx.rep.rank(v), ctx.rep.rank(w), ctx.rep.rank(x)
    left = ctx.tau(v, w).matrix.kron(Matrix.identity(ring, rx)) * ctx.tau(vw, x).matrix
    right = (Matrix.identity(ring, rv).kron(ctx.tau(w, x).matrix)
             * ctx.tau(v, wx).matrix * alpha_star.matrix)
    return left == right


# -- products of truncations --------------------------------------------------

class MuFragment:
    """mu: A_F (x) A_G -> A_H, the dual of restriction-to-products."""

    __slots__ = ("EF", "EG", "EH", "matrix")

    def __init__(self, EF, EG, EH, matrix):
        self.EF = EF
        self.EG = EG
        self.EH = EH
        self.matrix = matrix

    def apply(self, f_coords, g_coords):
        rg = self.EG.dim
        vec = [0] * (self.EF.dim * rg)
        for i, a in enumerate(f_coords):
            if a == 0:
                continue
            for j, b in enumerate(g_coords):
                if b == 0:
                    continue
                vec[i * rg + j] += a * b
        return self.matrix.apply(vec)


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
    the row k of mu, x.  ProductEscape (with an integral flag over Z, from
    the same two solves over Q) reports a family with no such x.
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
            integral = ctx.ring == ZZ and _tensor_coordinates(
                columns, *(_Solver(E.basis.to_ring(QQ)) for E in (EF, EG))) is not None
            raise ProductEscape(
                "family %d of End(T|H) leaves End(T|F) (x) End(T|G)" % k,
                integral=integral)
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


def check_fragment_bialgebra(ctx, mu: MuFragment, AF=None, AG=None, AH=None,
                             cert=None, label=""):
    """Delta o mu = (mu (x) mu) (1 swap 1) (Delta (x) Delta); eps o mu = eps (x) eps."""
    if AF is None:
        AF = ctx.coalgebra(mu.EF.sub)
    if AG is None:
        AG = ctx.coalgebra(mu.EG.sub)
    if AH is None:
        AH = ctx.coalgebra(mu.EH.sub)
    if cert is None:
        cert = BialgebraCert()
    rf, rg = AF.rank, AG.rank
    lhs = AH.delta * mu.matrix
    rhs = mu.matrix.kron(mu.matrix) * AF.delta.kron(AG.delta).take_rows(
        tensor_swap(rf, rf, rg, rg))
    cert.record("delta-mu%s" % label, lhs == rhs)
    cert.record("epsilon-mu%s" % label,
                AH.counit * mu.matrix == AF.counit.kron(AG.counit))
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
    ring = ctx.ring
    if cert is None:
        cert = BialgebraCert()
    rf, rg, rk = mu_fg.EF.dim, mu_fg.EG.dim, mu_gk.EG.dim
    left = t_left.matrix * mu_fg_k.matrix * mu_fg.matrix.kron(Matrix.identity(ring, rk))
    right = t_right.matrix * mu_f_gk.matrix * Matrix.identity(ring, rf).kron(mu_gk.matrix)
    cert.record("associativity%s" % label, left == right)
    return cert


def check_unit_grouplike(ctx, unit_vertex, sub, cert=None, label=""):
    """The image of the canonical unit element is grouplike in A_sub."""
    if cert is None:
        cert = BialgebraCert()
    U = Subdiagram(ctx.diagram, [unit_vertex])
    EU = ctx.end(U)
    AU = ctx.coalgebra(U)
    if AU.rank != 1:
        raise WrongRank("unit truncation must have rank 1")
    Esub = ctx.end(sub)
    t = transition_map(ctx.rep, EU, Esub, AU, ctx.coalgebra(sub))
    unit_img = t.matrix.apply((1,))
    A = ctx.coalgebra(sub)
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
        EF = ctx.end(F)
        sig_col = Matrix.column(ctx.ring, sigma.coords)
        step = mu.matrix * Matrix.identity(ctx.ring, EF.dim).kron(sig_col)
        steps.append(step)
    kernels = []
    from .linalg import kernel
    for k in range(len(steps)):
        comp = steps[k]
        for m in steps[k + 1:]:
            comp = m * comp
        ker = kernel(comp)
        kernels.append({"from": k, "kernel_rank": ker.cols})
    return SigmaSystem(steps, kernels, ctx.ring)
