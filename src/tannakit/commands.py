"""The handlers of the CLI commands other than homology, product and les.

tannakit.cli keeps the three homology commands, the ones most runs make, and
reaches each handler here through a stub in cli.HANDLERS that imports this
module on its first call; so a homology command never compiles these.  Each
handler takes (corpus, ring, args) and returns (results dict, ok), the way
the ones in cli do, with its scalars, vectors and matrices encoded by the
j* helpers here.
"""

from .cli import _fail
from .linalg import ZZ
from .simplicial import SimplicialComplex
from .structures import Filtration


def jscalar(x):
    """An exact scalar (int or Fraction) as an int, or "p/q" when it is not
    an integer."""
    return int(x) if x.denominator == 1 else "%d/%d" % (x.numerator, x.denominator)


def jmatrix(m):
    return [[jscalar(x) for x in m.row(i)] for i in range(m.rows)]


def jvector(v):
    return [jscalar(x) for x in v]


def cmd_triple_boundary(corpus, ring, args):
    from .maps import triple_boundary
    X = corpus.expr(args.X)
    Z = corpus.expr(args.Z)
    W = corpus.expr(args.W)
    m = triple_boundary(X, Z, W, args.degree, ring)
    return {"degree": args.degree, "source": m.source.describe(),
            "target": m.target.describe(), "matrix": jmatrix(m.matrix)}, True


def cmd_kunneth(corpus, ring, args):
    ctx = corpus.context(args.diagram, ring)
    tau = ctx.tau(args.v, args.w)
    res = {"v": args.v, "w": args.w, "product_vertex": tau.vw,
           "matrix": jmatrix(tau.matrix), "inverse": jmatrix(tau.inverse)}
    if tau.columns:                 # tau is square
        from .smith import determinant
        res["det"] = jscalar(determinant(tau.matrix))
    return res, True


def cmd_cup(corpus, ring, args):
    from .cochains import relative_cup_product
    X = corpus.expr(args.X)
    Z1 = corpus.expr(args.Z1)
    Z2 = corpus.expr(args.Z2)
    cp = relative_cup_product(X, Z1, Z2, args.p, args.q, ring)
    pairing = [[jvector(c) for c in row] for row in cp.pairing]
    defects = cp.graded_commutativity_defects()
    res = {
        "H^p(X,Z1)": cp.cohomology_module(1, args.p).describe(),
        "H^q(X,Z2)": cp.cohomology_module(2, args.q).describe(),
        "H^{p+q}(X,Z1+Z2)": cp.cohomology_module(12, args.p + args.q).describe(),
        "pairing": pairing,
        "comparison_iso": cp.comparison_iso,
        "graded_commutativity_defects": len(defects),
    }
    return res, cp.comparison_iso and not defects


def cmd_cech(corpus, ring, args):
    from .cochains import cech_total_complex
    if args.cover not in corpus.covers:
        _fail("unknown cover %r" % args.cover)
    X, sets = corpus.covers[args.cover]
    comps = ()
    if args.divisors:
        if args.divisors not in corpus.divisors:
            _fail("unknown divisors %r" % args.divisors)
        Xd, comps = corpus.divisors[args.divisors]
        if Xd != X:
            _fail("cover and divisors live on different complexes")
    model = cech_total_complex(X, sets, comps, ring)
    cert = model.certificate()
    return {"cover": args.cover, "divisors": args.divisors or "",
            "certificate": cert}, cert["ok"]


def cmd_filtration(corpus, ring, args):
    from .filtration import filtration_complex, very_good_report
    F = _filtration(corpus, args.filtration)
    mc = filtration_complex(F, ring)
    rep = very_good_report(F)
    res = {"filtration": args.filtration, "very_good": rep.ok,
           "terms": {"degree %d" % i: mc.term(i).describe()
                     for i in range(0, F.length + 1)},
           "differentials": {"d%d" % i: jmatrix(mc.differential(i).matrix)
                             for i in range(1, F.length + 1)}}
    return res, True


def cmd_compare_filtration(corpus, ring, args):
    from .filtration import compare_filtration_homology
    F = _filtration(corpus, args.filtration)
    cert = compare_filtration_homology(F, ring)
    return {"filtration": args.filtration, "comparison": cert.as_dict()}, cert.ok


def cmd_very_good_search(corpus, ring, args):
    from .filtration import compare_filtration_homology, find_very_good_refinement
    X = corpus.expr(args.X)
    if args.base:
        F = _filtration(corpus, args.base)
    else:
        n = max(X.dim, 0)
        F = Filtration(X, [SimplicialComplex.empty()] * n + [X])
    G, report = find_very_good_refinement(X, F, args.budget)
    res = {"space": args.X, "report": report.as_dict()}
    if G is None:
        return res, False
    res["levels"] = [sorted(" ".join(s) for s in lvl.all_simplices())
                     for lvl in G.levels]
    comparison = compare_filtration_homology(G, ring)
    res["comparison"] = comparison.as_dict()
    return res, comparison.ok


def cmd_end_algebra(corpus, ring, args):
    ctx, sub = corpus.subdiagram(args.subdiagram, ring)
    E = ctx.end(sub)
    basis = []
    for i in range(E.dim):
        basis.append({v: jmatrix(E.component(i, v)) for v in E.order})
    res = {"subdiagram": args.subdiagram, "dimension": E.dim,
           "unit": jvector(E.unit), "basis": basis}
    if ring == ZZ:
        res["saturated"] = E.is_saturated()
        return res, res["saturated"]
    return res, True


def cmd_coalgebra(corpus, ring, args):
    ctx, sub = corpus.subdiagram(args.subdiagram, ring)
    A = ctx.coalgebra(sub)
    return {"subdiagram": args.subdiagram, "rank": A.rank,
            "delta": jmatrix(A.delta), "counit": jmatrix(A.counit),
            "axioms": "asserted at construction"}, True


def cmd_coaction(corpus, ring, args):
    from .tannaka import check_coaction_axioms, coaction
    ctx, sub = corpus.subdiagram(args.subdiagram, ring)
    co = coaction(ctx.rep, sub, args.vertex, ctx.end(sub), ctx.coalgebra(sub))
    coassoc, counit = check_coaction_axioms(co)
    return {"subdiagram": args.subdiagram, "vertex": args.vertex,
            "rho": jmatrix(co.rho), "coassociative": coassoc,
            "counital": counit}, coassoc and counit


def cmd_transition(corpus, ring, args):
    from .tannaka import transition_map
    ctx, subF = corpus.subdiagram(args.sub_small, ring)
    ctx2, subG = corpus.subdiagram(args.sub_big, ring)
    if ctx is not ctx2:
        _fail("subdiagrams live on different diagrams")
    t = transition_map(ctx.rep, ctx.end(subF), ctx.end(subG))
    return {"from": args.sub_small, "to": args.sub_big,
            "matrix": jmatrix(t.matrix),
            "checks": "coalgebra morphism and coaction compatibility asserted"}, True


def cmd_factorization_check(corpus, ring, args):
    from .tannaka import factorization_check
    ctx, sub = corpus.subdiagram(args.subdiagram, ring)
    cert = factorization_check(ctx.rep, sub, ctx.end(sub))
    return {"subdiagram": args.subdiagram, "certificate": cert.as_dict()}, cert.ok


def cmd_bialgebra_check(corpus, ring, args):
    from .bialgebra import bialgebra_axiom_check
    ctx, tower, unit = corpus.tower(args.tower, ring)
    cert = bialgebra_axiom_check(ctx, tower, unit_vertex=unit)
    return {"tower": args.tower, "certificate": cert.as_dict()}, cert.ok


def cmd_sigma(corpus, ring, args):
    from .bialgebra import sigma_element
    ctx, sub = corpus.subdiagram(args.subdiagram, ring)
    sig = sigma_element(ctx, sub)
    A = ctx.coalgebra(sub)
    return {"subdiagram": args.subdiagram, "sigma": jvector(sig.coords),
            "grouplike": A.grouplike_defect(sig.coords).is_zero(),
            "counit": jscalar(A.counit_of(sig.coords))}, True


def cmd_sigma_system(corpus, ring, args):
    from .bialgebra import sigma_directed_system
    ctx, tower, _unit = corpus.tower(args.tower, ring)
    system = sigma_directed_system(ctx, tower, args.depth)
    res = {"tower": args.tower, "depth": args.depth,
           "steps": [jmatrix(m) for m in system.steps],
           "kernels": system.kernels}
    ok = all(k["kernel_rank"] == 0 for k in system.kernels)
    return res, ok


def cmd_comodule_check(corpus, ring, args):
    from .comodule import check_comodule_axioms
    ctx, m = corpus.comodule(args.comodule, ring)
    cert = check_comodule_axioms(m)
    return {"comodule": args.comodule, "module": m.module.describe(),
            "certificate": cert.as_dict()}, cert.ok


def cmd_torsionfree_cover(corpus, ring, args):
    from .comodule import torsionfree_cover
    ctx, m = corpus.comodule(args.comodule, ZZ)
    cover = torsionfree_cover(m.coalgebra, m)
    return {"comodule": args.comodule,
            "source_module": m.module.describe(),
            "cover_module": cover.cover.module.describe(),
            "surjection": jmatrix(cover.surjection),
            "embedding": jmatrix(cover.embedding)}, True


def _filtration(corpus, name):
    if name not in corpus.filtrations:
        _fail("unknown filtration %r" % name)
    return corpus.filtrations[name]
