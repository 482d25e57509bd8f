"""Batch command-line front end.

Every subcommand maps onto one library operation, prints a human-readable
table on stdout and can write a canonical JSON certificate with --out.
Certificates are byte-identical across runs on identical inputs: keys are
sorted, no timestamps, exact scalars only.

Exit codes: 0 all checks passed, 1 invalid input, 2 a mathematical check
failed.  A failed check that raised (CheckFailed, BudgetExceeded) writes a
certificate with ok false, empty results and a failure message.
"""

import argparse
import hashlib
import json
import sys
from fractions import Fraction
from importlib import resources

from . import __version__
from .errors import BudgetExceeded, CheckFailed, InputError, TannakitError
from .linalg import QQ, ZZ
from .simplicial import (
    Filtration, SimplicialComplex, les_exactness, pair_homology, product_pair,
    triple_boundary,
)
from .corpus import Corpus

TOOL = "tannakit %s" % __version__

Z_COMMANDS = {"homology", "les", "triple-boundary", "product", "cup", "cech",
              "filtration", "compare-filtration", "very-good-search",
              "comodule-check", "torsionfree-cover"}


def jscalar(x):
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return "%d/%d" % (x.numerator, x.denominator)
    return int(x)


def jmatrix(m):
    return [[jscalar(x) for x in m.row(i)] for i in range(m.rows)]


def jvector(v):
    return [jscalar(x) for x in v]


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def render(obj, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for k in sorted(obj):
            v = obj[k]
            if isinstance(v, (dict, list)):
                lines.append("%s%s:" % (pad, k))
                lines.extend(render(v, indent + 1))
            else:
                lines.append("%s%s: %s" % (pad, k, v))
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                lines.extend(render(v, indent))
                lines.append("%s-" % pad)
            else:
                lines.append("%s- %s" % (pad, v))
    else:
        lines.append("%s%s" % (pad, obj))
    return lines


def homology_table(pair, ring, top=None):
    ph = pair_homology(pair, ring)
    top = pair.X.dim if top is None else top
    return {"n=%d" % n: ph.module(n).describe() for n in range(0, max(top, 0) + 1)}


# -- handlers; each returns (results dict, ok) --------------------------------

def cmd_homology(corpus, ring, args):
    pair = _pair(corpus, args.pair)
    return {"pair": args.pair, "homology": homology_table(pair, ring)}, True


def cmd_les(corpus, ring, args):
    pair = _pair(corpus, args.pair)
    cert = les_exactness(pair, ring)
    return {"pair": args.pair, "les": cert.as_dict()}, cert.ok


def cmd_triple_boundary(corpus, ring, args):
    X = corpus.expr(args.X)
    Z = corpus.expr(args.Z)
    W = corpus.expr(args.W)
    m = triple_boundary(X, Z, W, args.degree, ring)
    return {"degree": args.degree, "source": m.source.describe(),
            "target": m.target.describe(), "matrix": jmatrix(m.matrix)}, True


def cmd_product(corpus, ring, args):
    p1 = _pair(corpus, args.pair1)
    p2 = _pair(corpus, args.pair2)
    pp = product_pair(p1, p2)
    counts = {"dim %d" % d: len(pp.X.simplices(d)) for d in range(0, pp.X.dim + 1)}
    return {"pairs": [args.pair1, args.pair2], "simplices": counts,
            "homology": homology_table(pp, ring)}, True


def cmd_kunneth(corpus, ring, args):
    ctx = corpus.context(args.diagram, ring)
    tau = ctx.tau(args.v, args.w)
    res = {"v": args.v, "w": args.w, "product_vertex": tau.vw,
           "matrix": jmatrix(tau.matrix), "inverse": jmatrix(tau.inverse)}
    if tau.matrix.rows == tau.matrix.cols and tau.matrix.rows > 0:
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
    t = transition_map(ctx.rep, ctx.end(subF), ctx.end(subG),
                       ctx.coalgebra(subF), ctx.coalgebra(subG))
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


def _pair(corpus, name):
    if name not in corpus.pairs:
        _fail("unknown pair %r" % name)
    return corpus.pairs[name]


def _filtration(corpus, name):
    if name not in corpus.filtrations:
        _fail("unknown filtration %r" % name)
    return corpus.filtrations[name]


def _fail(message):
    raise InputError(message)


HANDLERS = {
    "homology": cmd_homology,
    "les": cmd_les,
    "triple-boundary": cmd_triple_boundary,
    "product": cmd_product,
    "kunneth": cmd_kunneth,
    "cup": cmd_cup,
    "cech": cmd_cech,
    "filtration": cmd_filtration,
    "compare-filtration": cmd_compare_filtration,
    "very-good-search": cmd_very_good_search,
    "end-algebra": cmd_end_algebra,
    "coalgebra": cmd_coalgebra,
    "coaction": cmd_coaction,
    "transition": cmd_transition,
    "factorization-check": cmd_factorization_check,
    "bialgebra-check": cmd_bialgebra_check,
    "sigma": cmd_sigma,
    "sigma-system": cmd_sigma_system,
    "comodule-check": cmd_comodule_check,
    "torsionfree-cover": cmd_torsionfree_cover,
}


# the arguments of each command: a name, or (name, add_argument keywords)
ARGUMENTS = {
    "homology": ["pair"],
    "les": ["pair"],
    "triple-boundary": ["X", "Z", "W", ("degree", {"type": int})],
    "product": ["pair1", "pair2"],
    "kunneth": ["diagram", "v", "w"],
    "cup": ["X", "Z1", "Z2", ("p", {"type": int}), ("q", {"type": int})],
    "cech": ["cover", ("divisors", {"nargs": "?"})],
    "filtration": ["filtration"],
    "compare-filtration": ["filtration"],
    "very-good-search": ["X", "--base", ("--budget", {"type": int, "default": 10000})],
    "end-algebra": ["subdiagram"],
    "coalgebra": ["subdiagram"],
    "coaction": ["subdiagram", "vertex"],
    "transition": ["sub_small", "sub_big"],
    "factorization-check": ["subdiagram"],
    "bialgebra-check": ["tower"],
    "sigma": ["subdiagram"],
    "sigma-system": ["tower", ("--depth", {"type": int, "default": 1})],
    "comodule-check": ["comodule"],
    "torsionfree-cover": ["comodule"],
}


def build_parser():
    """The global options and COMMAND; the arguments of the command are left
    in `rest` for parse_args."""
    parser = argparse.ArgumentParser(
        prog="tannakit",
        description="Exact relative simplicial homology, filtration and Cech "
                    "models, and diagram Tannaka duality with certificates.",
        epilog="`tannakit <command> --help` lists the arguments of that command.")
    parser.add_argument("--corpus", help="corpus file (default: bundled)")
    parser.add_argument("--ring", choices=[ZZ, QQ],
                        help="coefficients: z or q (default depends on the command)")
    parser.add_argument("--out", help="write the canonical JSON certificate here")
    parser.add_argument("command", choices=HANDLERS)
    parser.add_argument("rest", nargs=argparse.REMAINDER, metavar="ARGS",
                        help="the arguments of the command")
    return parser


def parse_args(argv=None):
    """Two-stage parse into one namespace: the global options and COMMAND,
    then the arguments of COMMAND with a parser built for that command only,
    not all twenty; exits 2 on bad usage."""
    args = build_parser().parse_args(argv)
    rest = args.rest
    del args.rest
    parser = argparse.ArgumentParser(prog="tannakit " + args.command)
    for arg in ARGUMENTS[args.command]:
        name, kwargs = (arg, {}) if isinstance(arg, str) else arg
        parser.add_argument(name, **kwargs)
    return parser.parse_args(rest, namespace=args)


def default_corpus_text():
    return resources.files("tannakit").joinpath("data/main.corpus").read_text("utf-8")


def main(argv=None):
    args = parse_args(argv)
    try:
        if args.corpus:
            with open(args.corpus, "r", encoding="utf-8") as fh:
                text = fh.read()
            source = args.corpus
        else:
            text = default_corpus_text()
            source = "<bundled>"
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        corpus = Corpus(text)
    except (OSError, InputError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 1
    ring = args.ring or corpus.ring or (ZZ if args.command in Z_COMMANDS else QQ)
    failure = None
    try:
        results, ok = HANDLERS[args.command](corpus, ring, args)
    except InputError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 1
    except BudgetExceeded as exc:
        results, ok, failure = {}, False, "budget exceeded: %s" % exc
    except CheckFailed as exc:
        results, ok, failure = {}, False, "check failed: %s" % exc
    except TannakitError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    cert = {
        "tool": TOOL,
        "command": args.command,
        "arguments": {k: v for k, v in sorted(vars(args).items())
                      if k not in ("corpus", "out") and v is not None},
        "corpus": source,
        "corpus_sha256": digest,
        "ring": ring,
        "ok": ok,
        "results": results,
    }
    if failure:
        cert["failure"] = failure
    for line in render({"command": args.command, "ring": ring, "ok": ok}):
        print(line)
    for line in render(results):
        print(line)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(canonical_json(cert))
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
