"""Monoidal layer over the truncation data: Kunneth isomorphisms on good
pairs, products of coalgebra truncations, bialgebra certificates, the
grouplike element attached to the circle-with-point vertex, and the
multiplication-by-sigma directed system standing in for localization.

The product of truncations is computed on the algebra side.  Restriction
of a compatible family to the product vertices, conjugated through the
Kunneth isomorphisms, is one map of sparse columns from End(T|H) into
End(T|F) (x) End(T|G), built by _swapped_tensor from tau and tau^-1 and
applied to End(T|H)'s whole basis by one _compose; each image is read by
two sparse reads, one in each factor's basis, with the two End algebras'
own solvers.  Failure of that membership is reported as ProductEscape,
never silently projected.  tau reads the Alexander-Whitney images in the
sparse classes z_i (x) w_j modulo the tensor complex's boundaries, and its
Eilenberg-Zilber inverse, read off the cycle classes, is checked on both
sides by _compose.  tau, tau^-1 and mu are sparse columns {row: entry}, as
the End bases and transition maps are; .matrix and .inverse are dense
views, built when read.  Every identity checked here and the sigma step
contract those columns by maps._tensor_apply or _compose: mu is checked
as a coalgebra morphism out of the tensor coalgebra A_F (x) A_G by
tannaka._coalgebra_morphism, the check every transition map passes.
PairsContext, the diagram context with its End-algebra and tau caches, is in
tannakit.tannaka, so that a command that takes no product never loads this
module; PairsContext.tau loads kunneth_tau from here on its first call.
"""

from .errors import (
    InputError, MissingProducts, NotGoodPair, ProductEscape, WrongRank,
)
from .linalg import ZZ, _compose, _echelon, _integral, _transpose
from .maps import (
    _apply, _nonzero_columns, _Solver, _swapped_tensor, _tensor_apply, ez_matrixes,
    induced_map_on_homology, tensor_complex, tensor_swap,
)
from .matrix import Matrix, _coerce
from .simplicial import pair_homology
from .structures import SimplicialMap
from .tannaka import (
    PairsContext, Subdiagram, _coalgebra_morphism, transition_map, vertex_payload,
)


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

    @property
    def matrix(self) -> Matrix:
        return Matrix.from_sparse(self.ring, self.columns, len(self.columns))

    @property
    def inverse(self) -> Matrix:
        return Matrix.from_sparse(self.ring, self.inverse_columns, len(self.columns))


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
    zs = [{a: x for a, x in enumerate(hv.lift(i)) if x} for i in range(rv)]
    ws = [{b: y for b, y in enumerate(hw.lift(j)) if y} for j in range(rw)]
    basis = [{tensor.index(N, (nv, l1[a], l2[b])): x * y
              for a, x in z.items() for b, y in w.items()} for z in zs for w in ws]
    solver = _Solver.from_sparse(ring, basis + tensor._cols.get(N + 1, []), tensor.rank(N))

    cols = []
    for k in range(rvw):
        g = {i: x for i, x in enumerate(hvw.lift(k)) if x}
        sol = solver.read(_compose(aw._cols[N], [g])[0])
        if sol is None:
            raise NotGoodPair("AW image escapes the Kunneth basis at (%r, %r)" % (v, w))
        cols.append({i: x for i, x in sol.items() if i < n})
    inverse = [{i: x for i, x in enumerate(
                    hvw.class_of(tuple(c.get(i, 0) for i in range(cp.rank(N))))) if x}
               for c in _compose(ez._cols.get(N), basis)]
    if (_compose(cols, inverse) != [{j: 1} for j in range(n)]
            or _compose(inverse, cols) != [{j: 1} for j in range(rvw)]):
        raise NotGoodPair("tau and its EZ inverse fail to invert at (%r, %r)" % (v, w))
    return TauIso(v, w, vw, ring, cols, inverse)


def _induced(ctx, p, q, to, n):
    """The sparse columns of the map on H_n from pair p to pair q induced by
    the vertex map x -> to(x)."""
    f = SimplicialMap(p.X, q.X, {x: to(x) for x in p.X.vertices})
    return _nonzero_columns(induced_map_on_homology(f, p, q, n, ctx.ring).matrix)


# -- tau coherence checks ----------------------------------------------------

def check_tau_symmetry(ctx: PairsContext, v, w):
    """tau_{w,v} o swap_* = (-1)^{nm} flip o tau_{v,w} as maps."""
    dia, rv, rw = ctx.diagram, ctx.rep.rank(v), ctx.rep.rank(w)
    (pv, nv), (pw, nw) = dia.payloads[v], dia.payloads[w]
    pvw, nvw = dia.payloads[ctx.product_vertex(v, w)]
    pwv = dia.payloads[ctx.product_vertex(w, v)][0]
    s_star = _induced(ctx, pvw, pwv, lambda x: (x[1], x[0]), nvw)
    flip = {old: new for new, old in enumerate(tensor_swap(1, rv, rw, 1))}
    return _compose(ctx.tau(w, v).columns, s_star) == [
        {flip[i]: (-1) ** (nv * nw) * x for i, x in col.items()} for col in ctx.tau(v, w).columns]


def check_tau_unit(ctx: PairsContext, u, v, left=True):
    """Unit coherence: tau_(u,v) composed with the unit identification equals
    the projection isomorphism h(u x v) -> h(v)."""
    dia = ctx.diagram
    pu, nu = dia.payloads[u]
    pv, nv = dia.payloads[v]
    if ctx.rep.rank(u) != 1 or nu != 0:
        raise WrongRank("unit vertex must carry a rank-1 module in degree 0")
    pair = (u, v) if left else (v, u)
    puv, nuv = dia.payloads[ctx.product_vertex(*pair)]
    # with rank(u) = 1, h(u) (x) h(v) = h(v) on the nose in our bases
    return ctx.tau(*pair).columns == _induced(ctx, puv, pv, lambda x: x[1 if left else 0], nuv)


def check_tau_associativity(ctx: PairsContext, v, w, x):
    """(tau_{v,w} (x) id) tau_{vw,x} = (id (x) tau_{w,x}) tau_{v,wx} alpha_*."""
    dia = ctx.diagram
    vw = ctx.product_vertex(v, w)
    wx = ctx.product_vertex(w, x)
    p_l, n_l = dia.payloads[ctx.product_vertex(vw, x)]
    p_r, _ = dia.payloads[ctx.product_vertex(v, wx)]
    alpha_star = _induced(ctx, p_l, p_r, lambda t: (t[0][0], (t[0][1], t[1])), n_l)
    rw, rx = ctx.rep.rank(w), ctx.rep.rank(x)
    t_vw, t_wx = ctx.tau(v, w).columns, ctx.tau(w, x).columns
    right = _compose(ctx.tau(v, wx).columns, alpha_star)
    return all(not any(_tensor_apply(None, t_wx, rw * rx, len(t_wx), r, -1,
                                     _tensor_apply(t_vw, None, rx, rx, l)).values())
               for l, r in zip(ctx.tau(vw, x).columns, right))


# -- products of truncations --------------------------------------------------

class MuFragment:
    """mu: A_F (x) A_G -> A_H, the dual of restriction-to-products, as
    sparse columns (column f * dim G + g for e_f (x) e_g)."""

    __slots__ = ("EF", "EG", "EH", "columns")

    def __init__(self, EF, EG, EH, columns):
        self.EF, self.EG, self.EH, self.columns = EF, EG, EH, columns

    @property
    def matrix(self) -> Matrix:
        return Matrix.from_sparse(self.EH.ring, self.columns, self.EH.dim)

    def apply(self, f_coords, g_coords):
        return _apply(self.columns, [a * b for a in f_coords for b in g_coords], self.EH.dim)


def _tensor_coordinates(y, n, SF, SG):
    """x with Y = B_F x B_G^T, for Y given by its nonzeros {f * n + g: entry}
    (n columns), as the nonzeros {i * dim G + j: x_ij}, or None: the columns
    of Y are read in B_F, then the rows of that in B_G, by the solvers SF and
    SG of the bases."""
    columns, rows, x = {}, {}, {}
    for fg, e in y.items():
        f, g = divmod(fg, n)
        columns.setdefault(g, {})[f] = e
    for g, col in columns.items():
        z = SF.read(col)
        if z is None:
            return None
        for i, e in z.items():
            rows.setdefault(i, {})[g] = e
    for i, row in rows.items():
        xi = SG.read(row)
        if xi is None:
            return None
        x.update((i * SG.size + j, e) for j, e in xi.items())
    return x


def product_on_truncations(ctx: PairsContext, subF, subG, subH) -> MuFragment:
    """Restriction-to-products read through the Kunneth isomorphisms, dualized.

    Every product vertex v x w (v in F, w in G) must be registered and lie in
    H; tau data is computed on demand.  The restriction is one map of sparse
    columns from End(T|H)'s flat layout to pairs (F index, G index): the
    block B of a family at v x w goes to tau B tau^-1, and row-major
    vec(tau B tau^-1) = (tau (x) tau^-T) vec(B), whose rows (a, b, c, d)
    _swapped_tensor reorders to (a, c, b, d), End(T|F)'s flat index
    (v, a, c) and End(T|G)'s (w, b, d).  Family k so restricted is a matrix
    Y, and Y = B_F x B_G^T for the row k of mu, x; mu's sparse columns are
    read off those rows.  ProductEscape reports a family with no such x.
    """
    EF, EG, EH = ctx.end(subF), ctx.end(subG), ctx.end(subH)
    hvs, nG = set(subH.vertices), EG.total
    restrict = [{} for _ in range(EH.total)]
    for v in subF.vertices:
        for w in subG.vertices:
            vw = ctx.product_vertex(v, w)
            if vw not in hvs:
                raise MissingProducts("product vertex %r of (%r, %r) is outside H"
                                      % (vw, v, w))
            t, rv, rw = ctx.tau(v, w), ctx.rep.rank(v), ctx.rep.rank(w)
            f0, g0, h0 = EF.offsets[v], EG.offsets[w], EH.offsets[vw]
            for xy, col in enumerate(_swapped_tensor(
                    t.columns, _transpose(t.inverse_columns, rv * rw), rv, rw, rv, rw)):
                for i, y in col.items():
                    f, g = divmod(i, rw * rw)
                    restrict[h0 + xy][(f0 + f) * nG + g0 + g] = y
    rows = []
    for k, image in enumerate(_compose(restrict, EH.basis_columns)):
        x = _tensor_coordinates(image, nG, EF._solver, EG._solver)
        if x is None:
            raise ProductEscape("family %d of End(T|H) leaves End(T|F) (x) End(T|G)" % k)
        rows.append(x)
    return MuFragment(EF, EG, EH, _transpose(rows, EF.dim * EG.dim))


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
    cert = BialgebraCert() if cert is None else cert
    rf, rg = AF.rank, AG.rank
    comultiplicative, counital = _coalgebra_morphism(
        mu.columns, _swapped_tensor(AF.delta_columns, AG.delta_columns, rf, rf, rg, rg),
        _swapped_tensor(AF.counit_columns, AG.counit_columns, 1, 1, 1, 1), AH)
    cert.record("delta-mu%s" % label, comultiplicative)
    cert.record("epsilon-mu%s" % label, counital)
    return cert


def check_commutativity(ctx, muFG: MuFragment, muGF: MuFragment, cert=None,
                        label=""):
    """mu_{F,G} = mu_{G,F} o flip after landing in the same truncation."""
    cert = BialgebraCert() if cert is None else cert
    if muFG.EH is not muGF.EH and muFG.EH.sub.vertices != muGF.EH.sub.vertices:
        raise InputError("commutativity check needs a common target truncation")
    flip = tensor_swap(1, muFG.EG.dim, muFG.EF.dim, 1)
    cert.record("commutativity%s" % label, muFG.columns == [muGF.columns[j] for j in flip])
    return cert


def check_associativity(ctx, mu_fg, mu_fg_k, mu_gk, mu_f_gk, t_left, t_right,
                        cert=None, label=""):
    """Compare mu(mu (x) 1) and mu(1 (x) mu) after transitions into a common
    truncation.  t_left, t_right are TransitionMaps from the two targets."""
    cert = BialgebraCert() if cert is None else cert
    rf, rg, rk = mu_fg.EF.dim, mu_fg.EG.dim, mu_gk.EG.dim
    fg, gk, n = mu_fg.columns, mu_gk.columns, rf * rg * rk
    left = _compose(_compose(t_left.columns, mu_fg_k.columns),
                    [_tensor_apply(fg, None, rk, rk, {x: 1}) for x in range(n)])
    right = _compose(_compose(t_right.columns, mu_f_gk.columns),
                     [_tensor_apply(None, gk, mu_gk.EH.dim, rg * rk, {x: 1}) for x in range(n)])
    cert.record("associativity%s" % label, left == right)
    return cert


def check_unit_grouplike(ctx, unit_vertex, sub, cert=None, label=""):
    """The image of the canonical unit element is grouplike in A_sub."""
    cert = BialgebraCert() if cert is None else cert
    EU, Esub = ctx.end(Subdiagram(ctx.diagram, [unit_vertex])), ctx.end(sub)
    if EU.coalgebra().rank != 1:
        raise WrongRank("unit truncation must have rank 1")
    A = Esub.coalgebra()
    unit_img = _apply(transition_map(ctx.rep, EU, Esub).columns, (1,), A.rank)
    cert.record("unit-grouplike%s" % label, A.grouplike_defect(unit_img).is_zero())
    cert.record("unit-counit%s" % label, A.counit_of(unit_img) == 1)
    return cert


def bialgebra_axiom_check(ctx: PairsContext, tower, unit_vertex=None) -> BialgebraCert:
    """Run every bialgebra check the tower supports.

    tower: list of Subdiagrams ordered by inclusion.  For every ordered pair
    (F, G) from the tower whose products all land in some tower member H the
    fragment mu_{F,G->H} is computed and checked; mirrored pairs yield
    commutativity checks; the unit vertex (if given) grouplike checks.  A
    tower that supports none of these raises MissingProducts, so that no
    certificate is given for a tower that was never checked.
    """
    cert = BialgebraCert()
    fragments = {}
    for i, F in enumerate(tower):
        for j, G in enumerate(tower):
            try:
                needed = {ctx.product_vertex(v, w) for v in F.vertices for w in G.vertices}
            except MissingProducts:
                continue
            host = next((H for H in tower if needed <= set(H.vertices)), None)
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
    if not cert.checks:
        raise MissingProducts("no pair of truncations has its products in the tower, "
                              "and no truncation holds a unit vertex")
    return cert


# -- sigma ---------------------------------------------------------------------

class SigmaElement:
    __slots__ = ("coords",)

    def __init__(self, coords):
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
    co = ctx.end(sub).comodule(c)
    A, zero = co.coalgebra, _coerce(ctx.ring, 0)
    coords = tuple(co.columns[0].get(i, zero) for i in range(A.rank))
    if not A.grouplike_defect(coords).is_zero():
        raise AssertionError("sigma is not grouplike")
    if A.counit_of(coords) != 1:
        raise AssertionError("counit of sigma differs from 1")
    return SigmaElement(coords)


class SigmaSystem:
    """Matrices of multiplication by sigma along a chain of truncations."""

    __slots__ = ("steps", "kernels")

    def __init__(self, steps, kernels):
        self.steps, self.kernels = steps, kernels

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
    steps, sparse = [], []        # sparse: the steps as sparse columns
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
        sparse.append(_compose(
            mu.columns, [_tensor_apply(None, sig, rc, 1, {i: 1}) for i in range(ctx.end(F).dim)]))
        steps.append(Matrix.from_sparse(ctx.ring, sparse[-1], mu.EH.dim))
    # the composite from each start to the end of the chain has as kernel
    # rank its column count less its rank, the pivots of _echelon on its
    # columns taken as rows
    kernels, comp = [], None
    for k in reversed(range(len(sparse))):
        comp = sparse[k] if comp is None else _compose(comp, sparse[k])
        kernels.insert(0, {"from": k, "kernel_rank":
                           len(comp) - len(_echelon(_integral(comp), ctx.ring)[0])})
    return SigmaSystem(steps, kernels)
