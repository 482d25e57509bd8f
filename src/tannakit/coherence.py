"""Coherence checks of the monoidal structure: tau's symmetry with its
Koszul sign, its unit coherence and its associativity, and the
associativity of the products mu after transition maps.

No command runs them; the tests do.  Each check contracts sparse columns
by _compose or maps._tensor_apply, as the bialgebra certificate does.
"""

from .bialgebra import BialgebraCert
from .errors import WrongRank
from .kunneth import tensor_swap
from .linalg import _compose
from .maps import _tensor_apply, induced_map_on_homology
from .structures import SimplicialMap
from .tannaka import PairsContext


def _induced(ctx, p, q, to, n):
    """The sparse columns of the map on H_n from pair p to pair q induced by
    the vertex map x -> to(x)."""
    f = SimplicialMap(p.X, q.X, {x: to(x) for x in p.X.vertices})
    return induced_map_on_homology(f, p, q, n, ctx.ring).columns


# -- tau coherence checks -----------------------------------------------------

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


# -- associativity of the products of truncations -----------------------------

def check_associativity(mu_fg, mu_fg_k, mu_gk, mu_f_gk, t_left, t_right, cert=None,
                        label=""):
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
