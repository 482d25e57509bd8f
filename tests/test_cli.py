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
print(" ".join(sorted(m.split(".")[-1] for m in sys.modules
                      if m.startswith("tannakit.") or m == "_hashlib")))
"""

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
    # no dense Matrix and no other command's handler
    (None, ["homology", "p_circle_pt"], set(),
     {"maps", "les", "reduction", "smith", "filtration", "cochains", "tannaka", "matrix",
      "commands"}),
    # the Z/2 of the Klein bottle is read off a residual by sparse Euclid steps
    (None, ["homology", "p_klein"], set(),
     {"filtration", "cochains", "tannaka", "bialgebra", "comodule", "reduction", "les",
      "maps", "smith", "matrix", "commands"}),
    ("[complex c]\nsimplices = x y\n\n[pair p]\nspace = c\n", ["homology", "p"], set(),
     {"filtration", "tannaka", "bialgebra", "comodule", "reduction", "les", "smith", "maps"}),
    (None, ["product", "p_circle", "p_circle"], set(),
     {"filtration", "cochains", "tannaka", "bialgebra", "comodule", "reduction", "les",
      "smith", "maps", "matrix", "commands"}),
    # les reads every node off the reductions' residual complexes: no
    # coordinates, no module maps, no dense Matrix and no Smith form
    (None, ["les", "p_mobius_bnd"], {"les", "reduction"},
     {"filtration", "cochains", "tannaka", "bialgebra", "comodule", "maps", "matrix", "smith",
      "commands"}),
    (RP2_EDGE_REL, ["les", "rp2e_rel"], {"les", "reduction"},
     {"filtration", "cochains", "tannaka", "bialgebra", "comodule", "maps", "matrix", "smith",
      "commands"}),
    (None, ["triple-boundary", "edge", "ends", "enda", "1"], {"maps"},
     {"les", "reduction", "filtration", "cochains", "tannaka", "bialgebra", "comodule"}),
    (None, ["end-algebra", "F2"], {"tannaka", "maps", "matrix", "commands"},
     {"bialgebra", "filtration", "comodule", "reduction", "les", "smith"}),
    (None, ["cup", "circle3*circle3", "empty", "empty", "1", "1"], {"cochains"},
     {"filtration", "tannaka"}),
], ids=["homology without torsion", "homology", "homology without filtrations", "product",
        "les", "les with torsion", "triple-boundary", "end-algebra", "cup"])
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


PACKAGE_EXPORTS = {
    "linalg": "QQ ZZ FgModule Matrix ModuleMap Subquotient dual_map kernel subquotient",
    "smith": "SmithForm smith_normal_form",
    "simplicial": "ChainComplex SimplicialComplex SimplicialMap SimplicialPair "
                  "cech_total_complex ez_aw_maps induced_map_on_homology "
                  "les_exactness product_pair relative_chain_complex "
                  "relative_cup_product relative_homology triple_boundary",
    "filtration": "Filtration compare_filtration_homology filtration_complex "
                  "find_very_good_refinement is_very_good_pair "
                  "product_filtration pushforward_filtration very_good_report",
    "tannaka": "CoalgebraTrunc Diagram DiagramRep EndAlgebra Subdiagram "
               "build_pairs_diagram coaction dual_coalgebra end_algebra "
               "factorization_check transition_map",
    "bialgebra": "PairsContext TauIso bialgebra_axiom_check kunneth_tau "
                 "product_on_truncations sigma_directed_system sigma_element",
    "comodule": "Comodule check_comodule_axioms extended_comodule "
                "tensor_comodules torsionfree_cover",
    "corpus": "Corpus load_corpus",
}


def test_package_exports_resolve_lazily():
    import importlib
    for module, names in PACKAGE_EXPORTS.items():
        mod = importlib.import_module("tannakit." + module)
        for name in names.split():
            assert getattr(tannakit, name) is getattr(mod, name), name
    from tannakit import Corpus, PairsContext               # noqa: F401
    for name in ("SmithForm", "smith_normal_form", "determinant", "rref", "hnf_columns"):
        assert getattr(tannakit.linalg, name) is getattr(tannakit.smith, name), name
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


# names that other modules and the benchmark's tracer reach by their path
# before maps and les were split off, each with the module that holds it now
MOVED = {
    ("linalg", "maps"): "_Solver solve kernel module_from_relations _order_relations "
                        "_tensor_apply _swapped_tensor tensor_swap ModuleMap subquotient",
    ("simplicial", "maps"): "ChainMap tensor_complex induced_map_on_homology triple_boundary "
                            "_homology_map _boundary_image ez_matrixes ez_aw_maps",
    ("simplicial", "les"): "les_exactness",
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
