import hashlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

import tannakit
from tannakit.cli import HANDLERS, default_corpus_text, main
from tannakit.corpus import Corpus
from tannakit.errors import InputError
from tannakit.linalg import ZZ, FgModule
from tannakit.simplicial import relative_homology


@pytest.fixture(scope="module")
def corpus():
    return Corpus(default_corpus_text())


class TestCorpusFile:
    def test_loads(self, corpus):
        assert "circle3" in corpus.complexes
        assert len(corpus.pairs) >= 20

    def test_golden_triangulations(self, corpus):
        from tannakit.simplicial import SimplicialPair
        rp2 = corpus.complexes["rp2"]
        assert relative_homology(SimplicialPair(rp2), 1, ZZ) == FgModule(ZZ, 0, (2,))
        klein = corpus.complexes["klein"]
        assert relative_homology(SimplicialPair(klein), 1, ZZ) == FgModule(ZZ, 1, (2,))

    def test_expressions(self, corpus):
        torus = corpus.expr("circle3 * circle3")
        assert len(torus.simplices(2)) == 18
        sk = corpus.expr("skel(triangle, 1)")
        assert sk == corpus.complexes["circle3"]
        u = corpus.expr("enda + endb")
        assert u == corpus.complexes["ends"]

    def test_bad_expression(self, corpus):
        with pytest.raises(InputError):
            corpus.expr("nonexistent * circle3")

    def test_unfinished_expression_names_its_end(self, corpus):
        with pytest.raises(InputError, match=r"^bad expression 'circle3 \*' \(at its end\)$"):
            corpus.expr("circle3 *")
        with pytest.raises(InputError, match=r"\(at 'circle3'\)$"):
            corpus.expr("skel circle3")

    def test_product_pair_matches_declared(self, corpus):
        from tannakit.simplicial import product_pair
        pg = corpus.pairs["p_circle_pt"]
        assert corpus.pairs["p_gg"] == product_pair(pg, pg)

    def test_diagram_context(self, corpus):
        from fractions import Fraction
        from tannakit.linalg import QQ
        ctx = corpus.context("circle_diagram", QQ)
        assert ctx.rep.module("g").free_rank == 1
        assert ctx.circle == "g"


ALL_COMMANDS = [
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
    ["comodule-check", "com_g"],
    ["comodule-check", "com_z2"],
    ["torsionfree-cover", "com_z2"],
]


class TestCommands:
    @pytest.mark.parametrize("argv", ALL_COMMANDS,
                             ids=[" ".join(a) for a in ALL_COMMANDS])
    def test_bundled_commands_exit_zero(self, argv, capsys):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "ok: True" in out

    def test_homology_table_line(self, capsys):
        main(["homology", "p_circle_pt"])
        out = capsys.readouterr().out
        assert "n=1: Z^1" in out
        assert "n=0: 0" in out

    def test_end_algebra_dimension_line(self, capsys):
        main(["end-algebra", "F1"])
        out = capsys.readouterr().out
        assert "dimension: 2" in out

    def test_unknown_name_is_input_error(self, capsys):
        assert main(["homology", "no_such_pair"]) == 1

    def test_bad_corpus_path(self, capsys):
        assert main(["--corpus", "/nonexistent.corpus", "homology", "p_circle"]) == 1

    def test_math_failure_exit_two(self, capsys):
        # the trivial circle filtration is not very good and fails comparison
        assert main(["compare-filtration", "f_circle_trivial"]) == 2

    def test_budget_exceeded_exit_two(self, tmp_path, capsys):
        assert main(["very-good-search", "sphere", "--budget", "2"]) == 2

    def test_certificate_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            assert main(["--out", str(path), "end-algebra", "F2"]) == 0
        assert a.read_bytes() == b.read_bytes()
        cert = json.loads(a.read_text())
        assert cert["ok"] is True
        assert cert["tool"].startswith("tannakit")
        assert len(cert["corpus_sha256"]) == 64

    def test_corpus_digest_is_the_sha256_of_the_text(self, tmp_path, capsys):
        tiny = tmp_path / "tiny.corpus"
        tiny.write_text("ring = z\n\n[complex c]\nsimplices = x y\n\n"
                        "[pair p]\nspace = c\n", encoding="utf-8")
        out = tmp_path / "cert.json"
        for argv, text in ((["homology", "p_circle_pt"], default_corpus_text()),
                           (["--corpus", str(tiny), "homology", "p"],
                            tiny.read_text(encoding="utf-8"))):
            assert main(["--out", str(out)] + argv) == 0
            cert = json.loads(out.read_text(encoding="utf-8"))
            assert cert["corpus_sha256"] == hashlib.sha256(text.encode("utf-8")).hexdigest()

    def test_custom_corpus(self, tmp_path, capsys):
        path = tmp_path / "tiny.corpus"
        path.write_text("ring = z\n\n[complex c]\nsimplices = x y\n\n"
                        "[pair p]\nspace = c\n", encoding="utf-8")
        assert main(["--corpus", str(path), "homology", "p"]) == 0
        out = capsys.readouterr().out
        assert "n=0: Z^1" in out

    @pytest.mark.parametrize("ring", ["z", "q"])
    def test_tower_with_nothing_to_check_is_input_error(self, ring, tmp_path, capsys):
        # p2 x p2 = p22 is registered, p2 x p22 is not: no pair of
        # truncations has all its products in the tower, and there is no unit
        path = tmp_path / "lone.corpus"
        path.write_text(default_corpus_text() + "\n[subdiagram P2P22]\ndiagram = circle_diagram\n"
                        "vertices = p2 p22\n\n[tower lone]\ndiagram = circle_diagram\n"
                        "truncations = P2P22\n", encoding="utf-8")
        argv = ["--corpus", str(path), "--ring", ring]
        assert main(argv + ["bialgebra-check", "lone"]) == 1
        assert capsys.readouterr().err.startswith("input error:")
        assert main(argv + ["bialgebra-check", "main_tower"]) == 0

    def test_invalid_corpus_syntax(self, tmp_path, capsys):
        path = tmp_path / "bad.corpus"
        path.write_text("this is not a corpus\n", encoding="utf-8")
        assert main(["--corpus", str(path), "homology", "p"]) == 1

    def test_corpus_that_is_not_utf8_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.corpus"
        path.write_bytes("[complex c]\nsimplices = x \u00e9\n".encode("latin-1"))
        assert main(["--corpus", str(path), "homology", "p"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("input error: 'utf-8' codec can't decode")
        assert captured.out == ""

    def test_unwritable_out_path_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "no_such_directory" / "cert.json"
        assert main(["--out", str(out), "homology", "p_circle_pt"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("input error: ") and str(out) in captured.err
        assert "n=1: Z^1" in captured.out       # the results print before the write
        assert not out.parent.exists()


class TestUsage:
    def test_help_names_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "{%s}" % ",".join(HANDLERS) in capsys.readouterr().out

    @pytest.mark.parametrize("command", sorted(HANDLERS))
    def test_command_help(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: tannakit %s " % command)

    @pytest.mark.parametrize("argv", [["nosuch", "x"], ["homology", "p_klein", "--ring", "q"],
                                      ["homology"], []],
                             ids=["unknown command", "global option after the command",
                                  "missing argument", "no command"])
    def test_bad_usage_exits_two(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


COLD_COMMANDS = [
    ["coalgebra", "F1"],
    ["coaction", "F1", "g"],
    ["transition", "F1", "F2"],
    ["factorization-check", "F2"],
    ["bialgebra-check", "main_tower"],
]


def _fresh(args):
    """Run `python args...` in a new process that imports this tannakit."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(tannakit.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable] + args, env=env, capture_output=True,
                          text=True, timeout=300)


@pytest.mark.parametrize("argv", COLD_COMMANDS, ids=[" ".join(a) for a in COLD_COMMANDS])
def test_fresh_processes_write_identical_certificates(argv, tmp_path):
    """Each run starts with cold caches, unlike criterion 12's in-process
    repeats."""
    outs = []
    for run in (0, 1):
        path = tmp_path / ("cert%d.json" % run)
        proc = _fresh(["-m", "tannakit.cli", "--out", str(path)] + argv)
        assert proc.returncode == 0, proc.stderr
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["ok"] is True


LOADED_AFTER = """import sys
from tannakit.cli import main
main(sys.argv[1:])
print(" ".join(sorted(m.split(".")[-1] for m in sys.modules if m.startswith("tannakit.")
                      or m in ("_hashlib", "fractions", "decimal", "numbers"))))
"""
# the layers that hold the handlers of the commands other than homology, les
# and product, each with the code its command runs
HANDLER_LAYERS = {"maps", "kunneth", "cochains", "cech", "filtration", "search", "tannaka",
                  "coalgebra", "transition", "bialgebra", "sigma", "comodule"}
# what a homology or les process on a corpus of complexes and pairs alone (the
# benchmark's ladders) never loads: the section loaders, the layers of
# coordinates and diagrams, and fractions with the decimal and numbers it
# imports, since the homology core computes in integers over Q too
NOT_ON_A_LADDER = HANDLER_LAYERS | {"structures", "matrix", "smith", "diagrams", "forms",
                                    "filtration_maps", "coherence",
                                    "fractions", "decimal", "numbers"}

# where the interpreter has its own sha256 module, the corpus digest is taken
# without hashlib, whose _hashlib loads OpenSSL
OWN_SHA256 = any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256"))


# RP^2 x edge relative to RP^2 x its ends: Z/2 in h_1(X), h_2(X, Z) and h_1(Z)
RP2_EDGE_REL = """[complex rp2]
simplices = r0 r1 r4 | r0 r1 r5 | r0 r2 r3 | r0 r2 r4 | r0 r3 r5 | \
            r1 r2 r3 | r1 r2 r5 | r1 r3 r4 | r2 r4 r5 | r3 r4 r5

[complex edge]
simplices = a b

[complex ends]
simplices = a | b

[pair rp2e_rel]
space = rp2 * edge
sub = rp2 * ends
"""


@pytest.mark.parametrize("corpus, argv, present, absent", [
    # a homology module is the homology core alone: no coordinates, no maps,
    # no dense Matrix and no other command's handler; the bundled corpus
    # declares maps, filtrations and covers, which structures loads
    (None, ["homology", "p_circle_pt"], {"structures"},
     HANDLER_LAYERS | {"les", "reduction", "smith", "diagrams", "matrix", "fractions"}),
    # the Z/2 of the Klein bottle is read off a residual by sparse Euclid steps
    (None, ["homology", "p_klein"], {"structures"},
     HANDLER_LAYERS | {"diagrams", "reduction", "les", "smith", "matrix", "fractions"}),
    ("[complex c]\nsimplices = x y\n\n[pair p]\nspace = c\n", ["homology", "p"], set(),
     NOT_ON_A_LADDER | {"reduction", "les"}),
    (RP2_EDGE_REL, ["homology", "rp2e_rel"], set(), NOT_ON_A_LADDER | {"reduction", "les"}),
    (RP2_EDGE_REL, ["--ring", "q", "homology", "rp2e_rel"], set(),
     NOT_ON_A_LADDER | {"reduction", "les"}),
    (None, ["product", "p_circle", "p_circle"], set(),
     HANDLER_LAYERS | {"reduction", "les", "smith", "matrix"}),
    # les reads every node off the reductions' residual complexes: no
    # coordinates, no module maps, no dense Matrix and no Smith form
    (None, ["les", "p_mobius_bnd"], {"les", "reduction"},
     HANDLER_LAYERS | {"matrix", "smith"}),
    (RP2_EDGE_REL, ["les", "rp2e_rel"], {"les", "reduction"}, NOT_ON_A_LADDER),
    (None, ["triple-boundary", "edge", "ends", "enda", "1"], {"maps"},
     HANDLER_LAYERS - {"maps"} | {"les", "reduction"}),
    # an End algebra without its coalgebra, comodules or transitions
    (None, ["end-algebra", "F2"], {"tannaka", "diagrams", "maps", "matrix"},
     HANDLER_LAYERS - {"tannaka", "maps"} | {"reduction", "les", "smith", "kunneth", "forms"}),
    # the cup product without the Cech model, and the Cech model alone,
    # without coordinates, a dense Matrix or fractions
    (None, ["cup", "circle3*circle3", "empty", "empty", "1", "1"], {"cochains", "smith"},
     HANDLER_LAYERS - {"cochains", "maps"} | {"kunneth", "forms"}),
    (None, ["cech", "cov_circle"], {"cech"},
     HANDLER_LAYERS - {"cech"} | {"matrix", "smith", "forms", "fractions"}),
    # a filtration complex without the search or the maps of filtrations
    (None, ["filtration", "f_circle"], {"filtration", "maps"},
     HANDLER_LAYERS - {"filtration", "maps"} | {"filtration_maps", "kunneth", "smith"}),
    # tau alone: no End algebra's coalgebra, no product of truncations, and
    # the determinant without the Smith form
    (None, ["kunneth", "circle_diagram", "g", "g"], {"kunneth", "tannaka", "forms"},
     HANDLER_LAYERS - {"kunneth", "tannaka", "maps"} | {"smith", "coherence"}),
    (None, ["coalgebra", "F1"], {"coalgebra", "tannaka"},
     HANDLER_LAYERS - {"coalgebra", "tannaka", "maps"} | {"kunneth", "smith"}),
    (None, ["transition", "F1", "F2"], {"transition", "coalgebra"},
     HANDLER_LAYERS - {"transition", "coalgebra", "tannaka", "maps"} | {"kunneth", "smith"}),
    # the products of truncations, without their coherence checks
    (None, ["bialgebra-check", "main_tower"], {"bialgebra", "kunneth", "transition", "sigma"},
     {"coherence", "comodule", "forms", "smith", "filtration", "cochains", "cech"}),
    (None, ["sigma-system", "sigma_tower", "--depth", "1"], {"bialgebra", "sigma"},
     {"coherence", "comodule", "forms", "smith", "filtration", "cochains", "cech"}),
    (None, ["comodule-check", "com_z2"], {"comodule", "coalgebra"},
     HANDLER_LAYERS - {"comodule", "coalgebra", "tannaka", "maps"} | {"kunneth", "smith"}),
], ids=["homology without torsion", "homology", "homology without filtrations",
        "homology on a ladder", "homology on a ladder over Q", "product", "les",
        "les with torsion", "triple-boundary", "end-algebra", "cup", "cech", "filtration",
        "kunneth", "coalgebra", "transition", "bialgebra-check", "sigma-system",
        "comodule-check"])
def test_cold_start_loads_only_the_layers_a_command_runs(corpus, argv, present, absent,
                                                         tmp_path):
    if corpus is not None:
        path = tmp_path / "tiny.corpus"
        path.write_text(corpus, encoding="utf-8")
        argv = ["--corpus", str(path)] + argv
    proc = _fresh(["-c", LOADED_AFTER] + argv)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split("\n")[-2].split())
    assert {"linalg", "simplicial", "corpus"} | present <= loaded
    assert not loaded & absent
    if OWN_SHA256:
        assert "_hashlib" not in loaded


def test_bundled_corpus_is_read_by_the_package_loader():
    """Under python -S, where site imports nothing, a bundled command
    without --out loads neither importlib.resources nor json, and the corpus
    it reads has the digest that every golden certificate records."""
    proc = _fresh(["-S", "-c", LOADED_AFTER.replace(
        '"_hashlib", ', '"_hashlib", "importlib.resources", "json", '), "homology", "p_circle_pt"])
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split("\n")[-2].split())
    assert "corpus" in loaded and not loaded & {"resources", "json"}
    digest = hashlib.sha256(default_corpus_text().encode("utf-8")).hexdigest()
    golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
    for name in sorted(os.listdir(golden)):
        with open(os.path.join(golden, name), encoding="utf-8") as fh:
            assert json.load(fh)["corpus_sha256"] == digest, name


# the imports that bench/sweep.py makes before the first of its timed jobs,
# then what it builds there (the corpus parses and a random diagram's
# context), then the calls of its three jobs over Z and Q through the same
# attribute paths: one bundled subdiagram's axiom calls, the tower's
# bialgebra and sigma checks, and the random diagram's axiom calls; the
# tannakit modules and fractions that the calls import are printed
SWEEP_JOBS = """import sys
from tannakit import bialgebra, tannaka
from tannakit.cli import default_corpus_text
from tannakit.corpus import Corpus
from tannakit.linalg import QQ, ZZ, FgModule, Matrix, ModuleMap
corpora = {ring: Corpus(default_corpus_text()) for ring in (ZZ, QQ)}
dia = tannaka.Diagram(["a", "b"], [("e", "a", "b", "map")])
random_reps = {}
for ring in (ZZ, QQ):
    modules = {"a": FgModule.free(ring, 2), "b": FgModule.free(ring, 2)}
    maps = {"e": ModuleMap(modules["a"], modules["b"], Matrix(ring, [[1, 2], [0, 1]]))}
    rep = tannaka.DiagramRep(dia, ring, modules, maps)
    random_reps[ring] = (bialgebra.PairsContext(dia, rep), tannaka.Subdiagram(dia, ["a", "b"]))
before = set(sys.modules)


def axiom_calls(ctx, sub):
    E, A = ctx.end(sub), ctx.coalgebra(sub)
    for v in sub.vertices:
        assert tannaka.check_coaction_axioms(tannaka.coaction(ctx.rep, sub, v, E, A)) == (
            True, True)
    assert tannaka.factorization_check(ctx.rep, sub, E).ok


for ring in (ZZ, QQ):
    axiom_calls(*corpora[ring].subdiagram("TRIPLES", ring))
    ctx, subs, unit = corpora[ring].tower("main_tower", ring)
    assert bialgebra.bialgebra_axiom_check(ctx, subs, unit_vertex=unit).ok
    for sub in subs:
        if ctx.circle in sub.vertices:
            sig = bialgebra.sigma_element(ctx, sub)
            A = ctx.coalgebra(sub)
            assert A.grouplike_defect(sig.coords).is_zero() and A.counit_of(sig.coords) == 1
    axiom_calls(*random_reps[ring])
print("imported: " + " ".join(sorted(m for m in set(sys.modules) - before
                                     if m.startswith("tannakit") or m == "fractions")))
"""


def test_sweep_jobs_import_nothing():
    """A module first imported inside a timed job of the benchmark's
    tannaka-sweep would be compiled there: every module the jobs use, tau,
    sigma, the transition maps and the factorization check included, must
    load with the imports and the builds before them."""
    proc = _fresh(["-c", SWEEP_JOBS])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "imported: "


# each name of the package's API with the module that defines it
PACKAGE_EXPORTS = {
    "linalg": "QQ ZZ FgModule Subquotient",
    "matrix": "Matrix",
    "maps": "ModuleMap dual_map induced_map_on_homology kernel subquotient triple_boundary",
    "smith": "SmithForm smith_normal_form",
    "simplicial": "ChainComplex SimplicialComplex SimplicialPair product_pair "
                  "relative_chain_complex relative_homology",
    "structures": "Filtration SimplicialMap",
    "les": "les_exactness",
    "cochains": "relative_cup_product",
    "cech": "cech_total_complex",
    "kunneth": "TauIso ez_aw_maps kunneth_tau",
    "filtration": "compare_filtration_homology filtration_complex is_very_good_pair "
                  "very_good_report",
    "filtration_maps": "product_filtration pushforward_filtration",
    "search": "find_very_good_refinement",
    "tannaka": "Diagram DiagramRep EndAlgebra PairsContext Subdiagram build_pairs_diagram "
               "end_algebra",
    "coalgebra": "CoalgebraTrunc Comodule coaction dual_coalgebra",
    "transition": "factorization_check transition_map",
    "bialgebra": "bialgebra_axiom_check product_on_truncations sigma_directed_system",
    "sigma": "sigma_element",
    "comodule": "check_comodule_axioms extended_comodule tensor_comodules torsionfree_cover",
    "corpus": "Corpus load_corpus",
}


def test_package_exports_resolve_lazily():
    import importlib
    for module, names in PACKAGE_EXPORTS.items():
        mod = importlib.import_module("tannakit." + module)
        for name in names.split():
            assert getattr(tannakit, name) is getattr(mod, name), name
    from tannakit import Corpus, PairsContext               # noqa: F401
    assert tannakit.linalg.smith_normal_form is tannakit.smith.smith_normal_form
    with pytest.raises(AttributeError):
        tannakit.nosuch
    with pytest.raises(AttributeError):
        tannakit.linalg.nosuch


def test_dense_matrix_and_handlers_resolve_where_they_did():
    import tannakit.cli as cli
    import tannakit.matrix as matrix
    assert tannakit.linalg.Matrix is matrix.Matrix
    assert tannakit.Matrix is matrix.Matrix
    assert "Matrix" not in vars(tannakit.linalg)
    # bench/tracing.py wraps every value, so each must be a callable
    assert set(HANDLERS) == set(cli.ARGUMENTS)
    assert all(callable(handler) for handler in HANDLERS.values())


# the names that bench/ reads by a path from before their layer was split
# off, each with the module that defines it now
MOVED = {
    ("linalg", "matrix"): "Matrix",
    ("linalg", "maps"): "ModuleMap _Solver kernel subquotient module_from_relations",
    ("linalg", "smith"): "smith_normal_form",
    ("linalg", "forms"): "rref hnf_columns",
    ("simplicial", "les"): "les_exactness",
    ("simplicial", "cochains"): "relative_cup_product",
    ("simplicial", "cech"): "cech_total_complex",
    ("simplicial", "kunneth"): "ez_aw_maps ez_aw_relative ez_matrixes",
    ("filtration", "search"): "find_very_good_refinement",
}


def test_moved_names_resolve_by_their_old_paths():
    import importlib
    for (old, new), names in MOVED.items():
        old_mod = importlib.import_module("tannakit." + old)
        new_mod = importlib.import_module("tannakit." + new)
        for name in names.split():
            assert name not in vars(old_mod), name
            assert getattr(old_mod, name) is getattr(new_mod, name), name
    for module in ("linalg", "simplicial"):
        with pytest.raises(AttributeError):
            getattr(importlib.import_module("tannakit." + module), "nosuch")
    # tannaka keeps each name it serves once read, so that a loop reads a
    # plain attribute
    for new, names in (("coalgebra", "coaction check_coaction_axioms dual_coalgebra "
                                     "structure_constants canonical_comodule"),
                       ("transition", "factorization_check transition_map")):
        new_mod = importlib.import_module("tannakit." + new)
        for name in names.split():
            assert getattr(tannakit.tannaka, name) is getattr(new_mod, name), name
            assert name in vars(tannakit.tannaka), name
    with pytest.raises(AttributeError):
        tannakit.tannaka.nosuch
    # a path that only the tests read is gone
    for module, name in (("maps", "tensor_swap"), ("bialgebra", "check_tau_symmetry"),
                         ("linalg", "determinant"), ("diagrams", "corpus_tower")):
        with pytest.raises(AttributeError):
            getattr(importlib.import_module("tannakit." + module), name)


def _served(tree):
    """{layer: names} of the _lazy table that a module's source tree assigns."""
    import ast
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and getattr(node.value.func, "id", None) == "_lazy"):
            table = node.value.args[1]
            return {k.value: v.value.split() for k, v in zip(table.keys, table.values)}
    return {}


def test_every_served_name_has_a_reader_and_its_owner():
    """A layer serves another layer's name only for bench/, which reads
    modules by their paths from before a split, or for tannaka's _later;
    and the module it names defines the name, so no path takes two hops."""
    import ast
    src = os.path.dirname(os.path.abspath(tannakit.__file__))
    bench = os.path.join(os.path.dirname(os.path.dirname(src)), "bench")
    trees = {f[:-3]: ast.parse(open(os.path.join(src, f), encoding="utf-8").read())
             for f in os.listdir(src) if f.endswith(".py")}
    read = set()
    for f in os.listdir(bench):
        if f.endswith(".py"):
            for node in ast.walk(ast.parse(open(os.path.join(bench, f), encoding="utf-8").read())):
                if isinstance(node, ast.Attribute):
                    read.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    read.update(a.name for a in node.names)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    read.add(node.value)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_later":
                read.add(node.args[0].value)
    defined = {module: {t.id for node in tree.body if isinstance(node, ast.Assign)
                        for t in node.targets if isinstance(t, ast.Name)}
               | {node.name for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
               for module, tree in trees.items()}
    tables = {module: _served(tree) for module, tree in trees.items()}
    assert sorted(m for m, t in tables.items() if t) == [
        "__init__", "filtration", "linalg", "simplicial", "tannaka"]
    for module, table in tables.items():
        for layer, names in table.items():
            for name in names:
                assert name in defined[layer], (module, layer, name)
                if module != "__init__":
                    assert name in read, (module, name)


MALFORMED_BASE = """ring = z
[complex pt]
simplices = a
[pair p]
space = pt
[diagram d]
vertex = u : p : 0
[subdiagram S]
diagram = d
vertices = u
[comodule c]
diagram = d
subdiagram = S
orders = 2
rho = 1
"""

MALFORMED = {
    "skel degree": ("space = pt", "space = skel(pt, x)", ["homology", "p"]),
    "vertex degree": ("u : p : 0", "u : p : x", ["end-algebra", "S"]),
    "product without colon": ("vertex = u : p : 0",
                              "vertex = u : p : 0\nproduct = nocolon",
                              ["end-algebra", "S"]),
    "orders": ("orders = 2", "orders = x", ["comodule-check", "c"]),
    "rho scalar": ("rho = 1", "rho = abc", ["comodule-check", "c"]),
    "rho fraction over Z": ("rho = 1", "rho = 1/2", ["comodule-check", "c"]),
    "rho zero denominator": ("rho = 1", "rho = 1/0", ["comodule-check", "c"]),
    "rho zero denominator, cover": ("rho = 1", "rho = 1/0", ["torsionfree-cover", "c"]),
    "rho zero denominator over Q": ("rho = 1", "rho = 1/0",
                                    ["--ring", "q", "comodule-check", "c"]),
    "rho shape": ("orders = 2", "orders = 2 2", ["comodule-check", "c"]),
    "unknown product vertex": ("vertex = u : p : 0",
                               "vertex = u : p : 0\nproduct = vw : u * zz",
                               ["end-algebra", "S"]),
    "product vertex degree": ("vertex = u : p : 0",
                              "vertex = u : p : 0\nvertex = v : p : 1\nproduct = v : u * u",
                              ["end-algebra", "S"]),
    "product vertex not the staircase product": ("vertex = u : p : 0",
                                                 "vertex = u : p : 0\nproduct = u : u * u",
                                                 ["--ring", "q", "end-algebra", "S"]),
    "unknown triple vertex": ("vertex = u : p : 0",
                              "vertex = u : p : 0\ntriple = t : u -> zz",
                              ["end-algebra", "S"]),
    "unknown edge vertex": ("[diagram d]\nvertex = u : p : 0",
                            "[map m]\nsource = pt\ntarget = pt\nassign = a:a\n"
                            "[diagram d]\nvertex = u : p : 0\nedge = e : m : zz -> u",
                            ["end-algebra", "S"]),
    "map off its source pair": ("[diagram d]\nvertex = u : p : 0",
                                "[complex seg]\nsimplices = a b\n[map m]\nkind = swap\n"
                                "left = seg\nright = pt\n"
                                "[diagram d]\nvertex = u : p : 0\nedge = e : m : u -> u",
                                ["end-algebra", "S"]),
    "unknown kunneth vertex": ("[diagram d]", "[diagram d]", ["kunneth", "d", "u", "nosuch"]),
    "unknown tower unit": ("[comodule c]",
                           "[tower t]\ndiagram = d\ntruncations = S\nunit = nosuch\n"
                           "[comodule c]",
                           ["bialgebra-check", "t"]),
    "empty tower": ("[comodule c]", "[tower t]\ndiagram = d\ntruncations =\n[comodule c]",
                    ["bialgebra-check", "t"]),
    "tower out of order": ("[subdiagram S]",
                           "vertex = v : p : 0\n[subdiagram T]\ndiagram = d\nvertices = u v\n"
                           "[tower t]\ndiagram = d\ntruncations = T S\n[subdiagram S]",
                           ["bialgebra-check", "t"]),
    "tower off its diagram": ("[comodule c]",
                              "[diagram e]\nvertex = u : p : 0\n[subdiagram X]\ndiagram = e\n"
                              "vertices = u\n[tower t]\ndiagram = d\ntruncations = X\n"
                              "[comodule c]",
                              ["bialgebra-check", "t"]),
    "negative budget": ("space = pt", "space = pt", ["very-good-search", "pt", "--budget", "-1"]),
    "negative depth": ("[subdiagram S]",
                       "circle = u\n[tower t]\ndiagram = d\ntruncations = S\n[subdiagram S]",
                       ["sigma-system", "t", "--depth", "-2"]),
    # every section kind rejects a second declaration of a name, also when
    # both declarations are valid
    "duplicate subdiagram": ("[comodule c]",
                             "[subdiagram S]\ndiagram = d\nvertices = u\n[comodule c]",
                             ["end-algebra", "S"]),
    "duplicate comodule": ("[comodule c]",
                           "[comodule c]\ndiagram = d\nsubdiagram = S\norders = 2\nrho = 1\n"
                           "[comodule c]",
                           ["comodule-check", "c"]),
    "duplicate cover": ("[diagram d]",
                        "[cover k]\nspace = pt\nsets = pt\n[cover k]\nspace = pt\nsets = pt\n"
                        "[diagram d]",
                        ["cech", "k"]),
    "duplicate filtration": ("[diagram d]",
                             "[filtration f]\nspace = pt\nlevels = pt\n[filtration f]\n"
                             "space = pt\nlevels = pt\n[diagram d]",
                             ["filtration", "f"]),
    # sections the command does not read are still built and checked
    "unused empty filtration": ("[diagram d]",
                                "[filtration f]\nspace = pt\nlevels = empty\n[diagram d]",
                                ["homology", "p"]),
}


@pytest.mark.parametrize("old, new, argv", MALFORMED.values(), ids=list(MALFORMED))
def test_malformed_corpus_value_is_input_error(old, new, argv, tmp_path):
    path = tmp_path / "bad.corpus"
    path.write_text(MALFORMED_BASE.replace(old, new, 1), encoding="utf-8")
    proc = _fresh(["-m", "tannakit.cli", "--corpus", str(path)] + argv)
    assert proc.returncode == 1
    assert proc.stderr.startswith("input error:"), proc.stderr
    assert "Traceback" not in proc.stderr
