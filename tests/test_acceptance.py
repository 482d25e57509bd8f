"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All tolerances are exact; the only numeric bounds are wall-clock
budgets, asserted where the criterion states one.
"""

import json
import random
import time

import pytest

from tannakit.bialgebra import (
    bialgebra_axiom_check, product_on_truncations, sigma_element,
)
from tannakit.cech import cech_total_complex
from tannakit.cli import default_corpus_text, main
from tannakit.coalgebra import check_coaction_axioms, coaction, dual_coalgebra
from tannakit.comodule import Comodule, check_comodule_axioms
from tannakit.corpus import Corpus
from tannakit.errors import ProductEscape
from tannakit.filtration import Filtration, compare_filtration_homology, very_good_report
from tannakit.forms import determinant
from tannakit.kunneth import ez_aw_maps, tensor_complex
from tannakit.les import les_exactness
from tannakit.linalg import QQ, ZZ, FgModule
from tannakit.maps import ModuleMap
from tannakit.matrix import Matrix
from tannakit.search import find_very_good_refinement
from tannakit.simplicial import (
    SimplicialComplex, SimplicialPair, pair_homology, relative_chain_complex, relative_homology,
)
from tannakit.smith import smith_normal_form
from tannakit.tannaka import Subdiagram, end_algebra
from tannakit.transition import factorization_check, transition_map

from oracles import brute_commutant, homology_groups
from sparse_helpers import delta_matrix, mu_matrix, smith_views, transition_matrix


@pytest.fixture(scope="module")
def corpus():
    return Corpus(default_corpus_text())


def report(number, label, ok, elapsed=None):
    status = "PASS" if ok else "FAIL"
    suffix = "" if elapsed is None else " (%.2fs)" % elapsed
    print("criterion %2d %-28s %s%s" % (number, label, status, suffix))
    assert ok, "criterion %d (%s) failed" % (number, label)


def test_criterion_01_snf_suite():
    start = time.perf_counter()
    rng = random.Random(20260809)
    ok = True
    for _ in range(1000):
        r = rng.randint(1, 6)
        c = rng.randint(1, 6)
        A = Matrix(ZZ, [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)])
        form = smith_normal_form(A)
        U, D, V, _ = smith_views(form)
        if U * A * V != D:
            ok = False
            break
        if abs(determinant(U)) != 1 or abs(determinant(V)) != 1:
            ok = False
            break
        factors = form.invariant_factors
        if any(b % a != 0 for a, b in zip(factors, factors[1:])):
            ok = False
            break
    elapsed = time.perf_counter() - start
    report(1, "SNF suite", ok and elapsed < 5.0, elapsed)


GOLDEN = {
    "point": {0: (1, ())},
    "circle3": {0: (1, ()), 1: (1, ())},
    "sphere": {0: (1, ()), 1: (0, ()), 2: (1, ())},
    "rp2": {0: (1, ()), 1: (0, (2,)), 2: (0, ())},
    "klein": {0: (1, ()), 1: (1, (2,)), 2: (0, ())},
}


def test_criterion_02_homology_golden_set(corpus):
    start = time.perf_counter()
    ok = True
    spaces = dict(GOLDEN)
    torus = corpus.expr("circle3 * circle3")
    for name, table in spaces.items():
        X = corpus.complexes[name]
        maximal = [s for s in X.all_simplices()
                   if not any(set(s) < set(t) for t in X.all_simplices())]
        oracle = homology_groups(maximal)
        for n, (betti, torsion) in table.items():
            mod = relative_homology(SimplicialPair(X), n, ZZ)
            if mod.free_rank != betti or mod.torsion != tuple(torsion):
                ok = False
            ob, ot = oracle.get(n, (0, []))
            if mod.free_rank != ob or list(mod.torsion) != list(ot):
                ok = False
    expected_torus = {0: (1, ()), 1: (2, ()), 2: (1, ())}
    for n, (betti, torsion) in expected_torus.items():
        mod = relative_homology(SimplicialPair(torus), n, ZZ)
        if mod.free_rank != betti or mod.torsion != tuple(torsion):
            ok = False
    maximal = list(torus.simplices(2))
    oracle = homology_groups(maximal)
    for n in range(0, 3):
        mod = relative_homology(SimplicialPair(torus), n, ZZ)
        ob, ot = oracle[n]
        if mod.free_rank != ob or list(mod.torsion) != list(ot):
            ok = False
    elapsed = time.perf_counter() - start
    report(2, "homology golden set", ok and elapsed < 2.0, elapsed)


def test_criterion_03_circle_with_point(corpus):
    pair = corpus.pairs["p_circle_pt"]
    ok = (relative_homology(pair, 1, ZZ) == FgModule(ZZ, 1)
          and relative_homology(pair, 0, ZZ).is_zero())
    report(3, "circle-with-point pair", ok)


def test_criterion_04_les_twenty_pairs(corpus):
    start = time.perf_counter()
    names = sorted(corpus.pairs)
    assert len(names) >= 20
    ok = True
    for name in names:
        pair = corpus.pairs[name]
        for ring in (ZZ, QQ):
            cert = les_exactness(pair, ring)
            if not cert.ok:
                ok = False
    elapsed = time.perf_counter() - start
    report(4, "LES exactness (%d pairs)" % len(names), ok, elapsed)


SEARCH_SPACES = ["point", "two_points", "edge", "edge_plus_pt", "path2",
                 "circle3", "triangle", "rhombus", "wedge", "sphere"]


def test_criterion_05_filtration_suite(corpus):
    start = time.perf_counter()
    assert len(SEARCH_SPACES) >= 10
    ok = True
    for name in SEARCH_SPACES:
        X = corpus.complexes[name]
        n = max(X.dim, 0)
        base = Filtration(X, [SimplicialComplex.empty()] * n + [X])
        G, rep = find_very_good_refinement(X, base, budget=200000)
        if G is None or not very_good_report(G).ok:
            ok = False
            continue
        if not compare_filtration_homology(G, ZZ).ok:
            ok = False
    elapsed = time.perf_counter() - start
    report(5, "filtration search suite", ok and elapsed < 30.0, elapsed)


CECH_INSTANCES = [
    ("cov_path2", None),
    ("cov_circle", None),
    ("cov_triangle", "div_triangle"),
    ("cov_sphere", None),
    ("cov_torus", None),
    ("cov_edge", "div_edge"),
    ("cov_square", "div_square"),
    ("cov_mobius", "div_mobius"),
    ("cov_torus", "div_torus_merid"),
    ("cov_triangle", "div_tri_full"),
]


def test_criterion_06_cech_suite(corpus):
    start = time.perf_counter()
    assert len(CECH_INSTANCES) >= 8
    ok = True
    for cover_name, div_name in CECH_INSTANCES:
        X, sets = corpus.covers[cover_name]
        comps = ()
        if div_name:
            Xd, comps = corpus.divisors[div_name]
            assert Xd == X
        model = cech_total_complex(X, sets, comps, ZZ)
        if not model.certificate()["ok"]:
            ok = False
    elapsed = time.perf_counter() - start
    report(6, "Cech suite (%d instances)" % len(CECH_INSTANCES), ok, elapsed)


def test_criterion_07_tannaka_oracle():
    from tannakit.tannaka import Diagram, DiagramRep
    start = time.perf_counter()
    rng = random.Random(7041)
    ok = True
    for _ in range(200):
        nv = rng.randint(1, 3)
        names = ["v%d" % i for i in range(nv)]
        ranks = {v: rng.randint(1, 3) for v in names}
        edges = []
        for k in range(rng.randint(0, 3)):
            s = rng.choice(names)
            d = rng.choice(names)
            m = [[rng.randint(-2, 2) for _ in range(ranks[s])]
                 for _ in range(ranks[d])]
            edges.append(("e%d" % k, s, d, m))
        dia = Diagram(names, [(n, s, d, "map") for (n, s, d, _m) in edges])
        modules = {v: FgModule.free(QQ, r) for v, r in ranks.items()}
        maps = {n: ModuleMap(modules[s], modules[d], Matrix(QQ, m))
                for (n, s, d, m) in edges}
        rep = DiagramRep(dia, QQ, modules, maps)
        E = end_algebra(rep, Subdiagram(dia, names))
        oracle = brute_commutant(ranks, [(s, d, m) for (_n, s, d, m) in edges])
        if E.dim != len(oracle):
            ok = False
            break
        if any(E.coordinates(vec) is None for vec in oracle):
            ok = False
            break
    elapsed = time.perf_counter() - start
    report(7, "Tannaka oracle (200 runs)", ok and elapsed < 60.0, elapsed)


SUBDIAGRAMS = ["F0", "F1", "F2", "SIGC", "P2", "P22H", "TRIPLES", "WRAPD"]


def test_criterion_08_axiom_suite(corpus):
    start = time.perf_counter()
    ok = True
    for ring in (QQ, ZZ):
        for name in SUBDIAGRAMS:
            ctx, sub = corpus.subdiagram(name, ring)
            E = ctx.end(sub)
            A = ctx.coalgebra(sub)       # construction asserts the axioms
            eye = Matrix.identity(ring, A.rank)
            delta = delta_matrix(A)
            if delta.kron(eye) * delta != eye.kron(delta) * delta:
                ok = False
            for v in sub.vertices:
                co = coaction(ctx.rep, sub, v, E, A)
                coassoc, counit = check_coaction_axioms(co)
                if not (coassoc and counit):
                    ok = False
            cert = factorization_check(ctx.rep, sub, E)
            if not cert.ok:
                ok = False
    elapsed = time.perf_counter() - start
    report(8, "coalgebra/comodule axioms", ok, elapsed)


def test_criterion_09_bialgebra_suite(corpus):
    start = time.perf_counter()
    ctx, tower, unit = corpus.tower("main_tower", QQ)
    ok = True
    try:
        cert = bialgebra_axiom_check(ctx, tower, unit_vertex=unit)
        ok = cert.ok
    except ProductEscape:
        ok = False
    # transition compatibility: mu after transitions equals the smaller mu
    F0, F1, F2 = tower
    try:
        mu00 = product_on_truncations(ctx, F0, F0, F2)
        mu11 = product_on_truncations(ctx, F1, F1, F2)
        t01 = transition_map(ctx.rep, ctx.end(F0), ctx.end(F1))
        t = transition_matrix(t01)
        if mu_matrix(mu11) * t.kron(t) != mu_matrix(mu00):
            ok = False
    except ProductEscape:
        ok = False
    elapsed = time.perf_counter() - start
    report(9, "bialgebra suite", ok, elapsed)


def test_criterion_10_sigma_suite(corpus):
    start = time.perf_counter()
    ok = True
    for name in ("SIGC", "F1", "F2"):
        ctx, sub = corpus.subdiagram(name, QQ)
        sig = sigma_element(ctx, sub)    # sign independence: TestSigma.test_generator_sign_flip
        A = ctx.coalgebra(sub)
        if not A.grouplike_defect(sig.coords).is_zero():
            ok = False
        if A.counit_of(sig.coords) != 1:
            ok = False
    elapsed = time.perf_counter() - start
    report(10, "sigma suite", ok, elapsed)


EZ_AW_PRODUCTS = [("point", "point"), ("point", "circle3"), ("edge", "edge"),
                  ("circle3", "edge"), ("circle3", "circle3"),
                  ("triangle", "circle3")]


def test_criterion_11_ez_aw_suite(corpus):
    start = time.perf_counter()
    ok = True
    for a, b in EZ_AW_PRODUCTS:
        X = corpus.complexes[a]
        Y = corpus.complexes[b]
        assert X.dim + Y.dim <= 3
        ez, aw, tensor, cxy = ez_aw_maps(X, Y, ZZ)
        for n in range(0, tensor.top_degree + 1):
            # AW o EZ is the identity on every basis chain of the tensor complex
            if any(aw.apply(n, ez.apply(n, {j: 1})) != {j: 1} for j in range(tensor.rank(n))):
                ok = False
    # Kunneth rank identity for the torus over Q
    c3 = corpus.complexes["circle3"]
    left = tensor_complex(
        relative_chain_complex(SimplicialPair(c3), QQ),
        relative_chain_complex(SimplicialPair(c3), QQ))
    torus = corpus.expr("circle3 * circle3")
    ranks_circle = {n: relative_homology(SimplicialPair(c3), n, QQ).free_rank
                    for n in (0, 1)}
    for n in range(0, 3):
        expected = sum(ranks_circle.get(p, 0) * ranks_circle.get(n - p, 0)
                       for p in range(0, n + 1))
        if left.homology_module(n).free_rank != expected:
            ok = False
        if relative_homology(SimplicialPair(torus), n, QQ).free_rank != expected:
            ok = False
    elapsed = time.perf_counter() - start
    report(11, "EZ/AW suite", ok, elapsed)


DETERMINISM_COMMANDS = [
    ["homology", "p_circle_pt"],
    ["homology", "p_klein"],
    ["les", "p_mobius_bnd"],
    ["triple-boundary", "edge", "ends", "enda", "1"],
    ["product", "p_circle", "p_circle"],
    ["kunneth", "circle_diagram", "g", "g"],
    ["cup", "circle3*circle3", "empty", "empty", "1", "1"],
    ["cech", "cov_circle"],
    ["cech", "cov_triangle", "div_triangle"],
    ["filtration", "f_circle"],
    ["compare-filtration", "f_circle"],
    ["very-good-search", "circle3"],
    ["end-algebra", "F2"],
    ["coalgebra", "F1"],
    ["coaction", "F1", "g"],
    ["transition", "F1", "F2"],
    ["factorization-check", "F2"],
    ["bialgebra-check", "main_tower"],
    ["sigma", "F1"],
    ["sigma-system", "sigma_tower", "--depth", "1"],
    ["comodule-check", "com_z2"],
    ["torsionfree-cover", "com_z2"],
]


def test_criterion_12_determinism(tmp_path, capsys):
    start = time.perf_counter()
    ok = True
    for i, argv in enumerate(DETERMINISM_COMMANDS):
        outs = []
        for run in (0, 1):
            path = tmp_path / ("c%d_%d.json" % (i, run))
            code = main(["--out", str(path)] + argv)
            if code != 0:
                ok = False
            outs.append(path.read_bytes())
        if outs[0] != outs[1]:
            ok = False
        cert = json.loads(outs[0])
        if cert["ok"] is not True:
            ok = False
    capsys.readouterr()
    elapsed = time.perf_counter() - start
    report(12, "byte-identical certificates", ok, elapsed)
