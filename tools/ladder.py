"""Scaling ladder: the cold start of fourteen CLI commands, and in-process
wall times of the Tannaka layers, of les and of a first lift, printed.

    python tools/ladder.py [--quick]

Run it from anywhere in a checkout; it imports the checkout's src/, the test
fixtures and oracles in tests/ and the benchmark's input generator in
bench/inputs.py (read, never changed).  Each rung prints one line per size
or command with its answer beside its time:

  cold       each of COLD_COMMANDS on the bundled corpus as a fresh process
             without a bytecode cache, as the benchmark runs them: its wall
             time, its peak RSS (os.wait4's ru_maxrss), the Python tokens of
             tannakit source it compiled (tokenize tokens of the tannakit
             modules it loaded, package __init__ included; comments and
             layout not counted), the tannakit modules it loaded and the
             other top-level modules it loaded that a bare `python -c pass`
             does not; then the tokens they compiled in all, and the
             in-process time of building the bundled corpus and of its
             largest product expression.

  coalgebra  dual_coalgebra of M_r, one rank-r vertex with no edges (End =
             M_r, dimension r^2), then factorization_check on the same End
             algebra (its canonical comodule and the comodule axioms).
  bialgebra  on the self-product of W_r, a wedge of r circles: the Kunneth
             isomorphism tau (kunneth_tau, warmed and timed on its own), mu
             with tau warm (product_on_truncations) and its bialgebra check
             (check_fragment_bialgebra).
  sweep      the phase split of one pass of the benchmark's tannaka-sweep
             workload on seed 1 (SEED): the same subdiagrams, tower and
             seeded random diagrams, over Z then Q, with the time of each
             object counted in the phase that builds it: context (the pairs
             diagram and its homology), End (EndAlgebra), structure
             constants, coalgebra checks (dual_coalgebra, whose coalgebra
             axioms are checked when it is built), comodule axioms (the
             canonical comodules and check_coaction_axioms), factorization
             (factorization_check) and the tower's bialgebra and sigma
             checks.
  les        les_exactness of klein*circle3 relative to
             klein*skel(circle3,0) (LES_PAIR), over Z then Q, with the largest
             rank of the residual complexes its reductions leave (of Z, X and
             the pair) beside the rank of C_1(X).
  lift       the first lift(0) of each nonzero H_n of rp2*rp2 over Z
             (LIFT_SPACE), which builds the Smith form of the degree's
             presentation with its transforms, beside the module; the lift
             must be a cycle whose class_of is e_0.  Full run only.

--quick runs M_6 to M_12 and W_2 to W_4, about a second after the cold
rung's few seconds; without it the ladder goes on to M_20 and W_6, where
check_fragment_bialgebra takes seconds, and runs the lift rung.  Times are wall seconds on the host that runs it, from
time.perf_counter; no rung gates anything.
"""

import argparse
import os
import subprocess
import sys
import tempfile
import time
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, d) for d in ("src", "tests", "bench")]

from tannakit.coalgebra import check_coaction_axioms, coaction                    # noqa: E402
from tannakit.linalg import QQ, ZZ, FgModule                                      # noqa: E402
from tannakit.maps import ModuleMap                                               # noqa: E402
from tannakit.matrix import Matrix                                                # noqa: E402
from tannakit.tannaka import Diagram, DiagramRep, PairsContext, Subdiagram, end_algebra  # noqa: E402
from tannakit.transition import factorization_check                               # noqa: E402

RINGS = (ZZ, QQ)
COLD_COMMANDS = ("homology p_circle_pt", "homology p_klein", "product p_circle p_circle",
                 "les p_mobius_bnd", "end-algebra F2", "transition F1 F2",
                 "cup circle3*circle3 empty empty 1 1", "bialgebra-check main_tower",
                 "filtration f_circle", "cech cov_circle", "kunneth circle_diagram g g",
                 "coalgebra F1", "sigma-system sigma_tower --depth 1", "comodule-check com_z2")
# the last two lines a cold child prints: its peak RSS in kB (VmHWM, which
# counts only the process's own image, unlike a forked child's ru_maxrss;
# ru_maxrss where there is no /proc) and the top-level names of what it loaded
LOADED = """import os, resource
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
if os.path.exists("/proc/self/status"):
    with open("/proc/self/status") as fh:
        peak = next(int(l.split()[1]) for l in fh if l.startswith("VmHWM:"))
print(peak)
print(" ".join(sorted({m if m.startswith("tannakit.") else m.split(".")[0]
                       for m in sys.modules})))"""
SEED = 1                                   # the sweep rung's random diagrams
LES_PAIR = ("klein*circle3", "klein*skel(circle3,0)")
LIFT_SPACE = "rp2*rp2"
PHASES = ("context", "End", "structure constants", "coalgebra checks", "comodule axioms",
          "factorization", "bialgebra and sigma")


def _cold(source, *argv):
    """Run the Python source as a fresh process on the checkout's src/,
    without a bytecode cache: (wall seconds, stdout, stderr, exit code)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, (os.path.join(ROOT, "src"),
                                                        os.environ.get("PYTHONPATH")))))
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", source, *argv], env=env,
                                stdout=out, stderr=err, text=True)
        code = proc.wait()
        wall = time.perf_counter() - start
        out.seek(0)
        err.seek(0)
        return wall, out.read(), err.read(), code


def source_tokens(module):
    """Python tokens of src/tannakit/<module>.py, comments and layout not
    counted: what compiling it reads."""
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
              tokenize.DEDENT, tokenize.ENCODING}
    with open(os.path.join(ROOT, "src", "tannakit", module + ".py"), "rb") as fh:
        return sum(t.type not in layout for t in tokenize.tokenize(fh.readline))


def cold_rung():
    bare = set(_cold("import sys\n" + LOADED)[1].splitlines()[-1].split())
    total = 0
    for cmd in COLD_COMMANDS:
        wall, out, err, code = _cold(
            "import sys\nfrom tannakit.cli import main\nmain(sys.argv[1:])\n" + LOADED,
            *cmd.split())
        if code:
            print("%-38s %.3f s  exit %d: %s" % (cmd, wall, code, err.strip()[-200:]))
            continue
        rss, loaded = out.splitlines()[-2:]
        loaded = set(loaded.split())
        layers = sorted(m.split(".")[1] for m in loaded if m.startswith("tannakit."))
        other = sorted(loaded - bare - {"tannakit"} - {"tannakit." + m for m in layers})
        tokens = source_tokens("__init__") + sum(map(source_tokens, layers))
        total += tokens
        print("%-38s %.3f s  %6s kB  %5d tokens  tannakit: %s  other: %s"
              % (cmd, wall, rss, tokens, " ".join(layers), " ".join(other)))
    print("tokens compiled by the %d commands: %d" % (len(COLD_COMMANDS), total))
    from tannakit.cli import default_corpus_text
    from tannakit.corpus import Corpus
    text = default_corpus_text()
    start = time.perf_counter()
    corpus = Corpus(text)
    print("Corpus(default_corpus_text()): %.4f s" % (time.perf_counter() - start))
    start = time.perf_counter()
    corpus.expr("klein*circle3*circle3")
    print("expr('klein*circle3*circle3'): %.4f s" % (time.perf_counter() - start))


def coalgebra_rung(sizes):
    for r in sizes:
        for ring in RINGS:
            dia = Diagram(["v"], [])
            rep = DiagramRep(dia, ring, {"v": FgModule.free(ring, r)}, {})
            sub = Subdiagram(dia, ["v"])
            E = end_algebra(rep, sub)
            start = time.perf_counter()
            A = E.coalgebra()             # dual_coalgebra, kept on E
            print("dual_coalgebra of M_%d over %s: dim %d, %.3f s"
                  % (r, ring, A.rank, time.perf_counter() - start))
            start = time.perf_counter()
            ok = factorization_check(rep, sub, E).ok
            print("factorization_check of M_%d over %s: %.3f s, ok %s"
                  % (r, ring, time.perf_counter() - start, ok))


def bialgebra_rung(sizes):
    from tannakit.bialgebra import check_fragment_bialgebra, product_on_truncations
    from tannaka_fixtures import wedge_context
    for r in sizes:
        for ring in RINGS:
            ctx, F, G, H = wedge_context(r, ring)
            start = time.perf_counter()
            ctx.tau("w", "w")
            tau = time.perf_counter()
            mu = product_on_truncations(ctx, F, G, H)
            mid = time.perf_counter()
            ok = check_fragment_bialgebra(ctx, mu).ok
            print("W_%d over %s: tau %.3f s, mu %dx%d %.3f s, check_fragment_bialgebra"
                  " %.3f s, ok %s" % (r, ring, tau - start, mu.EH.dim, mu.EF.dim * mu.EG.dim,
                                      mid - tau, time.perf_counter() - mid, ok))


class _Phases:
    """Wall seconds per phase, added up over the pass."""

    def __init__(self):
        self.seconds = dict.fromkeys(PHASES, 0.0)

    def __call__(self, phase, fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        self.seconds[phase] += time.perf_counter() - start
        return out


def _axiom_sweep(clock, ctx, sub):
    """The calls the sweep makes on one subdiagram, phase by phase; whether
    every check holds."""
    E = clock("End", ctx.end, sub)
    clock("structure constants", E.structure_constants)
    clock("coalgebra checks", E.coalgebra)
    ok = True
    for v in sub.vertices:
        co = clock("comodule axioms", coaction, ctx.rep, sub, v, E)
        ok = clock("comodule axioms", check_coaction_axioms, co) == (True, True) and ok
    return clock("factorization", factorization_check, ctx.rep, sub, E).ok and ok


def sweep_rung():
    import inputs
    import oracles
    from tannakit import bialgebra
    from tannakit.cli import default_corpus_text
    from tannakit.corpus import Corpus

    def dim(ranks, edges):
        return len(oracles.brute_commutant(ranks, [(s, d, m) for (_n, s, d, m) in edges]))
    diagrams = inputs.random_diagrams(SEED, dim)
    text = default_corpus_text()
    corpora = {ring: Corpus(text) for ring in RINGS}       # parsed outside the pass
    random_reps = {}
    for ring in RINGS:                                      # built outside the pass
        random_reps[ring] = []
        for ranks, edges in diagrams:
            dia = Diagram(sorted(ranks), [(n, s, d, "map") for (n, s, d, _m) in edges])
            modules = {v: FgModule.free(ring, r) for v, r in ranks.items()}
            maps = {n: ModuleMap(modules[s], modules[d], Matrix(ring, m))
                    for (n, s, d, m) in edges}
            random_reps[ring].append((PairsContext(dia, DiagramRep(dia, ring, modules, maps)),
                                      Subdiagram(dia, sorted(ranks))))
    clock, ok = _Phases(), True
    start = time.perf_counter()
    for ring in RINGS:
        corpus = corpora[ring]
        for name in inputs.SWEEP_SUBDIAGRAMS:
            ctx, sub = clock("context", corpus.subdiagram, name, ring)
            ok = _axiom_sweep(clock, ctx, sub) and ok
        ctx, subs, unit = clock("context", corpus.tower, inputs.SWEEP_TOWER, ring)
        for sub in subs:
            E = clock("End", ctx.end, sub)
            clock("structure constants", E.structure_constants)
            clock("coalgebra checks", E.coalgebra)
        cert = clock("bialgebra and sigma", bialgebra.bialgebra_axiom_check, ctx, subs, unit)
        ok = cert.ok and ok
        for sub in subs:
            if ctx.circle in sub.vertices:
                sig = clock("bialgebra and sigma", bialgebra.sigma_element, ctx, sub)
                ok = ctx.coalgebra(sub).grouplike_defect(sig.coords).is_zero() and ok
        for ctx, sub in random_reps[ring]:
            ok = _axiom_sweep(clock, ctx, sub) and ok
    total = time.perf_counter() - start
    print("tannaka-sweep pass, seed %d: %.4f s, every check ok %s" % (SEED, total, ok))
    for phase in PHASES:
        t = clock.seconds[phase]
        print("  %-20s %.4f s  %5.1f%%" % (phase, t, 100 * t / total))


def les_rung():
    from tannakit.cli import default_corpus_text
    from tannakit.corpus import Corpus
    from tannakit.les import les_exactness
    from tannakit.reduction import reduction
    from tannakit.simplicial import SimplicialPair, pair_homology
    corpus = Corpus(default_corpus_text())
    X, Z = (corpus.expr(e) for e in LES_PAIR)
    pair = SimplicialPair(X, Z)
    for ring in RINGS:
        start = time.perf_counter()
        ok = les_exactness(pair, ring).ok
        wall = time.perf_counter() - start
        complexes = [pair_homology(p, ring) for p in (SimplicialPair(Z), SimplicialPair(X), pair)]
        residual = max(reduction(c).residual.rank(n) for c in complexes for n in c.degrees)
        print("les %s rel %s over %s: %.3f s, ok %s, largest residual rank %d, rank C_1 %d"
              % (*LES_PAIR, ring, wall, ok, residual, complexes[1].rank(1)))


def lift_rung():
    from tannakit.cli import default_corpus_text
    from tannakit.corpus import Corpus
    from tannakit.linalg import _compose
    from tannakit.simplicial import SimplicialPair, pair_homology
    cx = pair_homology(SimplicialPair(Corpus(default_corpus_text()).expr(LIFT_SPACE)), ZZ)
    for n in cx.degrees:
        sq = cx.homology(n)
        if sq.module.is_zero():
            continue
        start = time.perf_counter()
        z = sq.lift(0)
        wall = time.perf_counter() - start
        ok = not _compose(cx.columns(n), [z])[0] and sq.class_of(z) == {0: 1}
        print("first lift(0) of H_%d(%s) over Z = %r: %.3f s, cycle of class e_0 %s"
              % (n, LIFT_SPACE, sq.module, wall, ok))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--quick", action="store_true",
                    help="the sizes the CI log prints: M_6 to M_12, W_2 to W_4")
    args = ap.parse_args(argv)
    cold_rung()
    coalgebra_rung(range(6, 13 if args.quick else 21, 2))
    bialgebra_rung(range(2, 5 if args.quick else 7))
    sweep_rung()
    les_rung()
    if not args.quick:
        lift_rung()
    return 0


if __name__ == "__main__":
    sys.exit(main())
