"""Shared pairs-diagram context for the bialgebra/comodule tests.

Mirrors the bundled corpus: the unit point vertex u, the circle-with-point
vertex g, their pairwise products, a triple-edge pair, a double-cover edge
and a rank-2 marked-circle vertex p2 with its self-product; and W_r, a wedge
of r circles, with its self-product.
"""

from tannakit.bialgebra import PairsContext
from tannakit.maps import _apply, _nonzero_columns, _Solver
from tannakit.simplicial import SimplicialPair, product_pair
from tannakit.structures import SimplicialMap
from tannakit.tannaka import Subdiagram, build_pairs_diagram

from spaces import CIRCLE3, CIRCLE6, CIRCLE_POINT, EDGE, EDGE_ENDS, POINT, cx, pair, sub


def with_basis(E, basis):
    """End algebra E with its basis replaced by the columns of the Matrix
    basis, the solver that every coordinate is read through rebuilt on them,
    the unit read in them (None when they do not span it) and the
    structure, coalgebra and comodules left to be rebuilt on first use."""
    identity = _apply(E.basis_columns, E.unit, E.total)
    E.basis_columns = _nonzero_columns(basis)
    E._solver = _Solver(E.ring, E.basis_columns, E.total)
    E.unit = E.coordinates(identity)
    E._structure = E._coalgebra = None
    E._comodules = {}
    return E


def wedge_context(r, ring, s=None):
    """(ctx, F, G, H) for W_r, the wedge of r triangles at a taken relative
    to a, and W_s (W_r itself when s is None), with their product: F = [w]
    and G hold the two wedges, with End = M_r and M_s, and H their rank rs
    product vertex, so that mu: A_F (x) A_G -> A_H is r^2 s^2 x r^2 s^2."""
    def wedge(n):
        W = cx(*(e for c in range(n) for e in (("a", "b%d" % c), ("b%d" % c, "c%d" % c),
                                               ("a", "c%d" % c))))
        return SimplicialPair(W, sub(W, ("a",)))
    v = "w" if s is None else "v"
    pairs = {"w": (wedge(r), 1), v: (wedge(r if s is None else s), 1)}
    pairs["w" + v] = (product_pair(pairs["w"][0], pairs[v][0]), 2)
    dia, rep = build_pairs_diagram(ring, pairs)
    ctx = PairsContext(dia, rep, {("w", v): "w" + v})
    return ctx, Subdiagram(dia, ["w"]), Subdiagram(dia, [v]), Subdiagram(dia, ["w" + v])


def build_context(ring):
    pu = pair(POINT)
    pg = CIRCLE_POINT
    p_uu = product_pair(pu, pu)
    p_ug = product_pair(pu, pg)
    p_gu = product_pair(pg, pu)
    p_gg = product_pair(pg, pg)
    p_uuu_l = product_pair(p_uu, pu)
    p_uuu_r = product_pair(pu, p_uu)
    p2 = SimplicialPair(CIRCLE3, sub(CIRCLE3, ("a",), ("b",)))
    p22 = product_pair(p2, p2)
    pt_pair = SimplicialPair(EDGE, EDGE_ENDS)
    pw_pair = SimplicialPair(EDGE_ENDS, sub(EDGE_ENDS, ("a",)))
    hexp = pair(CIRCLE6)
    circp = pair(CIRCLE3)

    vertices = {
        "u": (pu, 0),
        "g": (pg, 1),
        "uu": (p_uu, 0),
        "ug": (p_ug, 1),
        "gu": (p_gu, 1),
        "gg": (p_gg, 2),
        "uuul": (p_uuu_l, 0),
        "uuur": (p_uuu_r, 0),
        "p2": (p2, 1),
        "p22": (p22, 2),
        "t": (pt_pair, 1),
        "w": (pw_pair, 0),
        "hex": (hexp, 1),
        "circ": (circp, 1),
    }

    proj_ug = SimplicialMap(p_ug.X, pg.X, {v: v[1] for v in p_ug.X.vertices})
    proj_gu = SimplicialMap(p_gu.X, pg.X, {v: v[0] for v in p_gu.X.vertices})
    proj_uu = SimplicialMap(p_uu.X, pu.X, {v: v[0] for v in p_uu.X.vertices})
    swap_gg = SimplicialMap(p_gg.X, p_gg.X, {v: (v[1], v[0]) for v in p_gg.X.vertices})
    incl_g_p2 = SimplicialMap(CIRCLE3, CIRCLE3, {v: v for v in CIRCLE3.vertices})
    wrap = SimplicialMap(CIRCLE6, CIRCLE3,
                         {"p": "a", "q": "b", "r": "c",
                          "s": "a", "t": "b", "u": "c"})
    assoc_uuu = SimplicialMap(p_uuu_l.X, p_uuu_r.X,
                              {v: (v[0][0], (v[0][1], v[1]))
                               for v in p_uuu_l.X.vertices})

    map_edges = [
        ("proj_ug", "ug", "g", proj_ug),
        ("proj_gu", "gu", "g", proj_gu),
        ("proj_uu", "uu", "u", proj_uu),
        ("swap_gg", "gg", "gg", swap_gg),
        ("incl_g_p2", "g", "p2", incl_g_p2),
        ("wrap", "hex", "circ", wrap),
        ("assoc_uuu", "uuul", "uuur", assoc_uuu),
    ]
    triple_edges = [("bnd_t", "t", "w")]

    dia, rep = build_pairs_diagram(ring, vertices, map_edges, triple_edges)
    products = {
        ("u", "u"): "uu",
        ("u", "g"): "ug",
        ("g", "u"): "gu",
        ("g", "g"): "gg",
        ("uu", "u"): "uuul",
        ("u", "uu"): "uuur",
        ("p2", "p2"): "p22",
    }
    ctx = PairsContext(dia, rep, products, circle="g")
    tower = [
        Subdiagram(dia, ["u"], name="F0"),
        Subdiagram(dia, ["u", "g"], name="F1"),
        Subdiagram(dia, ["u", "g", "uu", "ug", "gu", "gg"], name="F2"),
    ]
    return ctx, tower
