"""tannakit benchmark: four cold-start workloads and a per-module traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it uses the checkout's src/ and the
oracles in tests/oracles.py, and writes only under bench/.  Load comes from
one closed-loop client: one job at a time, the next one starting when the
previous one has ended, no threads.  A pass runs every job of the workload
once; passes repeat until S seconds are up, and at least one pass completes.

Workloads (why each one is here):
  cli-corpus     the 22 bundled determinism commands, each a fresh
                 `tannakit --out` process, in seeded order.  Mostly start-up,
                 corpus parsing and the CLI, with a little of every layer:
                 a heavy-kernel change should not move it, a start-up
                 regression will.
  homology-z     `homology` (and `les` on one relative rung) over Z on a
                 seeded relabelling of a product-complex ladder, fresh process
                 per job: integer SNF, HNF and the subquotient solves.
  homology-q     the same over Q on a smaller ladder: the Fraction rref path,
                 kept apart so that a Z gain cannot hide a Q loss.
  tannaka-sweep  in-process End algebra, coalgebra, coaction and
                 factorization checks on the bundled subdiagrams and on seeded
                 random diagrams, over Z and Q, plus the bialgebra and sigma
                 checks, one fresh process per pass: dense kron and Matrix
                 construction, almost no SNF.

Every answer is checked against an independent reference outside the timed
region; a job fails when it exits non-zero, raises, certifies ok != true,
disagrees with its reference, or gives a certificate that differs byte for
byte from the same command's certificate in an earlier pass.  The result's
`failed` / `attempted` is the fail ratio, also printed as `fail_ratio`.

Times are seconds at a fixed reference speed of the host (calibrate.py):
every child process runs in slices of at most SLICE_S seconds, stopped
between two slices while a fixed calibration kernel measures how fast the
host is just then, and each slice is scaled by that speed.  Each job counts
at the median of its runs: wall_s is the sum of those medians (one pass),
job_p50_s their median and job_max_s the largest.  setup_s is the median of
SETUP_PROBES fresh-process imports and corpus parses, scaled the same way.
The raw seconds are printed beside the metrics.

--trace 0 prints the end-to-end metrics (untraced passes); --trace 1
alternates untraced and traced passes and prints the per-layer metrics of
the traced ones, with the tracing overhead, and writes every span to
bench/out/.  The last line of stdout is the JSON result.
"""

import argparse
import ctypes
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import calibrate                                      # noqa: E402
import inputs                                         # noqa: E402
import reference                                      # noqa: E402

WORKLOADS = ("cli-corpus", "homology-z", "homology-q", "tannaka-sweep")
SETUP_PROBES = 11
# a child runs for at most this long before it is stopped and the host's
# speed measured again (see run_child)
SLICE_S = 1.0
CLI_MAIN = "import sys; from tannakit.cli import main; sys.exit(main())"
PROBE = """import sys, time
start = time.monotonic()
import tannakit.cli as cli
from tannakit.corpus import Corpus
if len(sys.argv) > 1:
    with open(sys.argv[1], encoding="utf-8") as fh:
        text = fh.read()
else:
    text = cli.default_corpus_text()
Corpus(text)
print(repr(start), repr(time.monotonic()))
"""

# per-layer metric -> tracer span name whose outermost time it reports
LAYER_TIMES = {
    "linalg.snf_s": "linalg.snf",
    "linalg.hnf_s": "linalg.hnf",
    "linalg.rref_s": "linalg.rref",
    "linalg.kernel_s": "linalg.kernel",
    "linalg.subquotient_s": "linalg.subquotient",
    "linalg.solve_s": "linalg.solve",
    "linalg.module_from_relations_s": "linalg.module_from_relations",
    "linalg.kron_s": "linalg.kron",
    "linalg.matmul_s": "linalg.matmul",
    "simplicial.chain_complex_s": "simplicial.chain_complex",
    "simplicial.homology_s": "simplicial.homology",
    "simplicial.les_s": "simplicial.les",
    "simplicial.cup_s": "simplicial.cup",
    "simplicial.cech_s": "simplicial.cech",
    "simplicial.ez_aw_s": "simplicial.ez_aw",
    "filtration.search_s": "filtration.search",
    "filtration.compare_s": "filtration.compare",
    "tannaka.end_algebra_s": "tannaka.end_algebra",
    "tannaka.structure_constants_s": "tannaka.structure_constants",
    "tannaka.dual_coalgebra_s": "tannaka.dual_coalgebra",
    "tannaka.coaction_check_s": "tannaka.coaction_check",
    "tannaka.factorization_s": "tannaka.factorization",
    "tannaka.transition_s": "tannaka.transition",
    "bialgebra.tau_s": "bialgebra.tau",
    "bialgebra.product_s": "bialgebra.product",
    "bialgebra.check_s": "bialgebra.check",
    "bialgebra.sigma_s": "bialgebra.sigma",
    "comodule.check_s": "comodule.check",
    "comodule.cover_s": "comodule.cover",
    "corpus.parse_s": "corpus.parse",
    "corpus.context_s": "corpus.context",
    "cli.handler_s": "cli.handler",
    "cli.emit_s": "cli.emit",
}
LAYER_CALLS = {
    "linalg.snf_calls": "linalg.snf",
    "linalg.rref_calls": "linalg.rref",
    "linalg.solve_calls": "linalg.solve",
    "linalg.matmul_calls": "linalg.matmul",
}
LAYER_COUNTS = (
    "linalg.snf_entries", "linalg.kron_entries", "linalg.matrix_built",
    "linalg.entries_coerced", "simplicial.simplices",
    "simplicial.pair_cache_hits", "simplicial.pair_cache_misses",
    "filtration.search_candidates", "tannaka.coalgebra_builds", "cli.cert_bytes",
)
SRC_MODULES = ("__init__", "bialgebra", "cli", "comodule", "corpus", "errors",
               "filtration", "linalg", "simplicial", "tannaka")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _die_with_parent():
    # a child that is stopped between slices must not outlive a killed run
    ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGKILL)   # PR_SET_PDEATHSIG


def run_child(cmd, log_path, before, slice_s=SLICE_S):
    """Run cmd to completion, its stdout and stderr to log_path.

    The child runs in slices of at most slice_s seconds (None: one slice);
    between two slices it is stopped and calibrate.measure() runs, on the
    same CPU, so that each slice gets the speed factor of the host around
    it.  `before` is a calibrate.measure() result taken just before the
    call.  Returns the exit code, the slices as (start, end, speed) on the
    monotonic clock, the child's peak RSS in MB, and the calibrate.measure()
    result taken after it, for the next call's `before`."""
    slices = []
    with open(log_path, "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT,
                                preexec_fn=_die_with_parent)
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                while True:
                    if select.select([pidfd], [], [], slice_s)[0]:
                        _pid, status, usage = os.wait4(proc.pid, 0)
                        end = time.monotonic()
                        break
                    os.kill(proc.pid, signal.SIGSTOP)
                    _pid, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                    end = time.monotonic()
                    if not os.WIFSTOPPED(status):
                        break                        # it ended before the stop
                    after = calibrate.measure()
                    slices.append((start, end, calibrate.scale(before, after)))
                    before = after
                    start = time.monotonic()
                    os.kill(proc.pid, signal.SIGCONT)
            finally:
                os.close(pidfd)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    after = calibrate.measure()
    slices.append((start, end, calibrate.scale(before, after)))
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, slices, usage.ru_maxrss / 1024.0, after


def busy_seconds(slices, lo, hi, scaled=True):
    """Seconds the child ran between lo and hi, at the reference speed
    (scaled) or as measured."""
    return sum(max(0.0, min(hi, b) - max(lo, a)) * (speed if scaled else 1.0)
               for a, b, speed in slices)


def setup_time(work, corpus_path):
    """Fresh-process import + corpus parse, after one warm-up: (median at the
    reference speed, median as measured, number of samples)."""
    cmd = [sys.executable, "-c", PROBE] + ([corpus_path] if corpus_path else [])
    log = os.path.join(work, "probe.txt")
    samples, raw = [], []
    speed = calibrate.measure()
    for i in range(SETUP_PROBES + 1):
        code, slices, _rss, speed = run_child(cmd, log, speed)
        text = read_bytes(log).decode("utf-8", "replace").strip()
        if code != 0:
            raise RuntimeError("setup probe failed: %s" % text[-500:])
        if i:
            lo, hi = map(float, text.splitlines()[-1].split())
            samples.append(busy_seconds(slices, lo, hi))
            raw.append(busy_seconds(slices, lo, hi, scaled=False))
    return statistics.median(samples), statistics.median(raw), len(samples)


# ---------------------------------------------------------------- workloads

class Job:
    """One attempted job: its key, timing, and what it left to be checked.
    `slices` are those of the process it ran in (see run_child)."""

    def __init__(self, key, start, end, slices, rss_mb, outcome):
        self.key = key
        self.start = start
        self.end = end
        self.seconds = busy_seconds(slices, start, end)       # at reference speed
        self.raw_seconds = busy_seconds(slices, start, end, scaled=False)
        self.rss_mb = rss_mb
        self.outcome = outcome
        self.failure = None
        self.spans = None


class CliWorkload:
    """A list of CLI commands, each run in a fresh process per pass."""

    def __init__(self, name, seed, work, small, corrupt):
        self.work = work
        self.corrupt = corrupt
        self.oracles = reference.load_oracles(ROOT)
        self.expected = {}
        if name == "cli-corpus":
            self.corpus_path = None
            self.commands = inputs.cli_order(seed)
            if small:
                self.commands = [c for c in self.commands
                                 if c[0] in ("homology", "end-algebra", "coalgebra")]
            self._cli_corpus_references()
        else:
            ladder = inputs.Ladder(name, seed)
            if small:
                ladder.rungs = ladder.rungs[:3] if name == "homology-z" else ladder.rungs[:1]
            self.corpus_path = os.path.join(work, "ladder.corpus")
            with open(self.corpus_path, "w", encoding="utf-8") as fh:
                fh.write(ladder.corpus_text())
            jobs = ladder.jobs(name)
            self.commands = [["--corpus", self.corpus_path] + j for j in jobs]
            ring = "z" if name == "homology-z" else "q"
            refs = {}
            for (pname, _l, _r, _s) in ladder.rungs:
                X, Z = ladder.maximal(pname)
                refs[pname] = reference.homology_reference(self.oracles, X, Z)
            for argv in self.commands:
                if argv[-2] == "homology":
                    self.expected[key_of(argv)] = ("homology", ring, refs[argv[-1]])
                else:
                    self.expected[key_of(argv)] = ("les", ring, None)
        self.first_cert = {}

    def _cli_corpus_references(self):
        from tannakit.cli import default_corpus_text
        text = default_corpus_text()
        cx = reference.bundled_complexes(text)
        ora = self.oracles
        refs = {
            ("homology", "p_circle_pt"):
                reference.homology_reference(ora, cx["circle3"], cx["c3a"]),
            ("homology", "p_klein"): reference.homology_reference(ora, cx["klein"]),
            ("product", "p_circle", "p_circle"): reference.homology_reference(
                ora, inputs.staircase_product(cx["circle3"], cx["circle3"])),
        }
        for argv, ref in refs.items():
            self.expected[key_of(list(argv))] = ("homology", "z", ref)
        for argv, sub, field in ((["end-algebra", "F2"], "F2", "dimension"),
                                 (["coalgebra", "F1"], "F1", "rank")):
            dim = reference.commutant_dim(ora, *bundled_rep_data(sub, "q"))
            self.expected[key_of(argv)] = ("dimension", field, dim)
        self.expected[key_of(["sigma", "F1"])] = ("sigma", None, None)

    def setup(self):
        return setup_time(self.work, self.corpus_path)

    def run_pass(self, traced, deadline):
        jobs = []
        speed = calibrate.measure()
        for n, argv in enumerate(self.commands):
            if deadline is not None and time.monotonic() >= deadline:
                return jobs, False
            out = os.path.join(self.work, "cert%d.json" % n)
            spans = os.path.join(self.work, "spans%d.json" % n)
            for path in (out, spans):
                if os.path.exists(path):
                    os.remove(path)
            full = ["--out", out] + argv
            if traced:
                cmd = [sys.executable, os.path.join(BENCH, "cli_job.py"), spans, "--"] + full
            else:
                cmd = [sys.executable, "-c", CLI_MAIN] + full
            err = os.path.join(self.work, "log%d.txt" % n)
            # a traced child runs unstopped: its spans must not hold pauses
            code, slices, rss, speed = run_child(cmd, err, speed,
                                                 None if traced else SLICE_S)
            job = Job(key_of(argv), slices[0][0], slices[-1][1], slices, rss,
                      (code, read_bytes(out), read_bytes(err)))
            if traced and os.path.exists(spans):
                with open(spans, encoding="utf-8") as fh:
                    job.spans = json.load(fh)
            jobs.append(job)
        return jobs, True

    def check(self, job):
        """Failure of a job, or None; jobs are checked in the order they ran."""
        code, raw, err = job.outcome
        if code != 0:
            return "exit code %d: %s" % (code, err.decode("utf-8", "replace").strip()[-300:])
        try:
            cert = json.loads(raw)
        except (TypeError, ValueError) as exc:
            return "no readable certificate: %s" % exc
        if cert.get("ok") is not True:
            return "certificate ok is %r" % cert.get("ok")
        first = self.first_cert.setdefault(job.key, raw)
        if first != raw:
            return "certificate differs from the one of an earlier pass"
        exp = self.expected.get(job.key)
        if exp is None:
            return None
        kind, arg, ref = exp
        res = cert["results"]
        if kind == "homology":
            if self.corrupt:
                ref = dict(ref)
                ref[0] = (ref[0][0] + 1, ref[0][1])
            return reference.homology_mismatch(res["homology"], ref, arg)
        if kind == "les":
            les = res["les"]
            if not les["ok"] or any(str(n["defect"]) != "0" or not n["ok"]
                                      for n in les["nodes"]):
                return "les certificate not exact"
            return None
        if kind == "dimension":
            want = ref + (1 if self.corrupt else 0)
            return None if res[arg] == want else "%s %r, expected %r" % (arg, res[arg], want)
        if kind == "sigma":
            if res["grouplike"] is not True or res["counit"] != 1:
                return "sigma is not a grouplike element of counit 1"
        return None


class SweepWorkload:
    """Library calls in one fresh worker process per pass."""

    def __init__(self, name, seed, work, small, corrupt):
        self.work = work
        self.corrupt = corrupt
        self.oracles = reference.load_oracles(ROOT)

        def dim(ranks, edges):
            return reference.commutant_dim(self.oracles, ranks, edges)
        shapes = inputs.RANDOM_SHAPES[:1] if small else inputs.RANDOM_SHAPES
        self.diagrams = inputs.random_diagrams(seed, dim, shapes)
        self.random_dims = [want for want, _rank in shapes]
        self.subdiagrams = inputs.SWEEP_SUBDIAGRAMS[:2] if small else inputs.SWEEP_SUBDIAGRAMS
        self.commutants = {}

    def setup(self):
        return setup_time(self.work, None)

    def run_pass(self, traced, deadline):
        spec = os.path.join(self.work, "sweep-jobs.json")
        out = os.path.join(self.work, "sweep-result.json")
        spans = os.path.join(self.work, "sweep-spans.json")
        for path in (out, spans):
            if os.path.exists(path):
                os.remove(path)
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump({"diagrams": self.diagrams, "subdiagrams": self.subdiagrams,
                       "deadline": deadline}, fh)
        cmd = [sys.executable, os.path.join(BENCH, "sweep.py"), spec, out]
        if traced:
            cmd.append(spans)
        err = os.path.join(self.work, "sweep-log.txt")
        code, slices, rss, _speed = run_child(cmd, err, calibrate.measure(),
                                              None if traced else SLICE_S)
        if code != 0 or not os.path.exists(out):
            msg = read_bytes(err).decode("utf-8", "replace").strip()[-300:]
            crash = {"answer": {"error": "worker exit code %d: %s" % (code, msg)}}
            return [Job("sweep-process", slices[0][0], slices[-1][1], slices, rss, crash)], False
        with open(out, encoding="utf-8") as fh:
            result = json.load(fh)
        jobs = [Job("%s:%s" % (rec["kind"], rec["name"]), rec["start"], rec["end"], slices,
                    rss, rec) for rec in result["jobs"]]
        if traced and jobs:
            with open(spans, encoding="utf-8") as fh:
                jobs[0].spans = json.load(fh)
        return jobs, len(jobs) == 6

    def check(self, job):
        rec = job.outcome
        ans = rec["answer"]
        if "error" in ans:
            return "raised %s" % ans["error"]
        if rec["kind"] == "tower":
            if not ans["bialgebra_ok"]:
                return "bialgebra certificate not ok"
            if not ans["sigmas"] or any(not s["grouplike"] or s["counit"] != "1"
                                        for s in ans["sigmas"]):
                return "sigma is not a grouplike element of counit 1"
            return None
        if rec["kind"] == "random":
            if len(ans["diagrams"]) != len(self.random_dims):
                return "%d random diagrams answered" % len(ans["diagrams"])
            checks = [("diagram %d" % i, a, want) for i, (a, want)
                      in enumerate(zip(ans["diagrams"], self.random_dims))]
        else:
            checks = [(name, a, self.commutant(a["ranks"], a["edges"]))
                      for name, a in ans["subdiagrams"].items()]
        for label, a, want in checks:
            if self.corrupt:
                want += 1
            if a["dim"] != want:
                return "%s: End dimension %d, oracle %d" % (label, a["dim"], want)
            if a["rank"] != a["dim"]:
                return "%s: coalgebra rank %d differs from End dimension" % (label, a["rank"])
            if not a["coaction_ok"]:
                return "%s: coaction axioms fail" % label
            if not a["factorization_ok"]:
                return "%s: factorization certificate not ok" % label
        return None

    def commutant(self, ranks, edges):
        key = json.dumps([ranks, edges], sort_keys=True)
        if key not in self.commutants:
            self.commutants[key] = reference.commutant_dim(self.oracles, ranks, edges)
        return self.commutants[key]


def read_bytes(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def key_of(argv):
    """The command of a job, without the corpus path."""
    if argv and argv[0] == "--corpus":
        argv = argv[2:]
    return " ".join(argv)


def bundled_rep_data(subdiagram, ring):
    """Ranks and edge matrices of a bundled subdiagram, to feed the
    commutant oracle; only the input data comes from tannakit."""
    from tannakit.cli import default_corpus_text
    from tannakit.corpus import Corpus
    ctx, sub = Corpus(default_corpus_text()).subdiagram(subdiagram, ring)
    ranks = {v: ctx.rep.rank(v) for v in sub.vertices}
    edges = [(n, s, d, [list(r) for r in ctx.rep.edge_map(n).matrix.data])
             for (n, s, d, _k) in sub.edges]
    return ranks, edges


# ---------------------------------------------------------------- the loop

def run_passes(workload, seconds, trace):
    """Closed loop of passes until `seconds` are up.  At least one complete
    untraced pass (and, tracing, one complete traced pass) always runs; once
    each has one, a pass stops starting jobs at the deadline."""
    kinds = (False, True) if trace else (False,)
    deadline = time.monotonic() + seconds
    passes = []
    index = 0
    while True:
        traced = kinds[index % len(kinds)]
        have = {k: any(p["complete"] and p["traced"] == k for p in passes) for k in kinds}
        if all(have.values()) and time.monotonic() >= deadline:
            break
        jobs, complete = workload.run_pass(traced, deadline if have[traced] else None)
        if jobs:
            passes.append({"traced": traced, "jobs": jobs, "complete": complete,
                           "raw_wall_s": sum(j.raw_seconds for j in jobs)})
        if not complete and not have[traced]:
            break                        # a forced pass failed to complete
        index += 1
    return passes


def end_to_end(passes, setup):
    untraced = [p for p in passes if not p["traced"]]
    per_key, raw_key = {}, {}
    for j in (j for p in untraced for j in p["jobs"]):
        per_key.setdefault(j.key, []).append(j.seconds)
        raw_key.setdefault(j.key, []).append(j.raw_seconds)
    # Each job of the workload counts once, at the median of its runs, so
    # that where a run stops (every job has run at least once) does not
    # change what the figures cover: wall_s is one pass at those medians.
    typical = {k: statistics.median(v) for k, v in per_key.items()}
    raw = {k: statistics.median(v) for k, v in raw_key.items()}
    slowest = max(typical, key=typical.get)
    metrics = {
        "setup_s": (setup, "s"),
        "wall_s": (sum(typical.values()), "s"),
        "job_p50_s": (statistics.median(typical.values()), "s"),
        "job_max_s": (typical[slowest], "s"),
        "peak_rss_mb": (max(j.rss_mb for p in untraced for j in p["jobs"]), "MB"),
    }
    notes = ["times are seconds at the reference speed (calibrate.py); raw: as measured",
             "each job at the median of its runs: %d jobs, %d runs"
             % (len(typical), sum(len(v) for v in per_key.values())),
             "wall_s: raw %.6g s" % sum(raw.values()),
             "job_p50_s: raw %.6g s" % statistics.median(raw.values()),
             "job_max_s: %d runs of the slowest job, %s (raw %.6g s)"
             % (len(per_key[slowest]), slowest, raw[slowest])]
    return metrics, notes


def _pass_layers(p):
    """Sum the traced jobs of one pass into layer totals and counters."""
    totals, counters, distinct = {}, {}, {}
    startup = root = 0.0
    covered_wall = 0.0
    for j in p["jobs"]:
        doc = j.spans
        if doc is None:
            continue
        for name, rec in doc["totals"].items():
            acc = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += rec[k]
        for name, value in doc["counters"].items():
            if name == "tannaka.end_dim_max":
                counters[name] = max(counters.get(name, 0), value)
            else:
                counters[name] = counters.get(name, 0) + value
        for name, value in doc["distinct"].items():
            distinct[name] = distinct.get(name, 0) + value
        startup += doc.get("startup_s", 0.0)
        root += doc["covered_s"]
        covered_wall += doc.get("window_s", j.end - j.start)
    return totals, counters, distinct, startup, (root / covered_wall if covered_wall else 0.0)


def per_layer(passes):
    traced = [p for p in passes if p["traced"] and p["complete"]]
    untraced = [p for p in passes if not p["traced"] and p["complete"]]
    rows = []
    for p in traced:
        totals, counters, distinct, startup, coverage = _pass_layers(p)
        row = {}
        for metric, span in LAYER_TIMES.items():
            row[metric] = totals.get(span, {}).get("total_s", 0.0)
        for metric, span in LAYER_CALLS.items():
            row[metric] = totals.get(span, {}).get("calls", 0)
        for metric in LAYER_COUNTS:
            row[metric] = counters.get(metric, 0)
        row["cli.startup_s"] = startup
        row["tannaka.end_dim_max"] = counters.get("tannaka.end_dim_max", 0)
        builds = counters.get("tannaka.coalgebra_builds", 0)
        row["tannaka.coalgebra_reuse"] = (
            distinct.get("tannaka.coalgebra_distinct", 0) / builds if builds else 0.0)
        row["trace.coverage"] = coverage
        row["trace.wall_s"] = p["raw_wall_s"]
        rows.append(row)
    metrics = {}
    for name in rows[0]:
        metrics[name] = statistics.median(r[name] for r in rows)
    # as measured, not scaled: a traced child runs unstopped (see run_pass),
    # so its speed is known only at its ends, and the passes alternate
    metrics["trace.overhead_s"] = (statistics.median(p["raw_wall_s"] for p in traced)
                                   - statistics.median(p["raw_wall_s"] for p in untraced))
    lines = source_lines()
    metrics["src.lines"] = sum(lines.values())
    for mod in SRC_MODULES:
        metrics["src.lines." + mod] = lines.get(mod, 0)
    return metrics


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.startswith("src.lines"):
        return "lines"
    if name in ("tannaka.coalgebra_reuse", "trace.coverage"):
        return "ratio"
    return "count"


def source_lines():
    pkg = os.path.join(ROOT, "src", "tannakit")
    out = {}
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), encoding="utf-8") as fh:
                out[fname[:-3]] = sum(1 for _ in fh)
    return out


def write_trace(workload, seed, passes, metrics):
    outdir = os.path.join(BENCH, "out")
    os.makedirs(outdir, exist_ok=True)
    doc = {"workload": workload, "seed": seed, "per_layer": metrics,
           "passes": [{"traced": p["traced"], "complete": p["complete"],
                       "raw_wall_s": p["raw_wall_s"],
                       "jobs": [{"key": j.key, "start": j.start, "end": j.end,
                                 "trace": j.spans} for j in p["jobs"]]}
                      for p in passes]}
    path = os.path.join(outdir, "trace-%s-seed%d.json" % (workload, seed))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="a few small jobs per workload (for the benchmark's own tests)")
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="perturb every reference answer (for the benchmark's own tests)")
    args = ap.parse_args(argv)
    # a terminated run still kills and reaps its running job (see run_child)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # Every process of the run shares one CPU: on a 2-vCPU shared VM the same
    # job's time varied about twice as much when it could migrate.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    for need in (os.path.join("src", "tannakit", "__init__.py"),
                 os.path.join("tests", "oracles.py")):
        if not os.path.isfile(os.path.join(ROOT, need)):
            log("benchmark needs %s in the checkout" % need)
            return 2
    sys.path.insert(1, os.path.join(ROOT, "src"))

    os.makedirs(os.path.join(BENCH, ".work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=os.path.join(BENCH, ".work"))
    try:
        cls = SweepWorkload if args.workload == "tannaka-sweep" else CliWorkload
        workload = cls(args.workload, args.seed, work, args.small, args.corrupt_reference)
        setup = None if args.trace else workload.setup()
        passes = run_passes(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    jobs = [j for p in passes for j in p["jobs"]]
    for j in jobs:
        j.failure = workload.check(j)
    failed = [j for j in jobs if j.failure]
    for j in failed[:10]:
        log("FAILED %s: %s" % (j.key, j.failure))
    complete = any(p["complete"] and not p["traced"] for p in passes) and \
        (not args.trace or any(p["complete"] and p["traced"] for p in passes))
    if not complete:
        log("no complete pass; no metrics")
        return 1
    print("workload %s seed %d: %d jobs in %d passes, fail_ratio %d/%d = %g"
          % (args.workload, args.seed, len(jobs), len(passes), len(failed), len(jobs),
             len(failed) / len(jobs)))
    if args.trace:
        values = per_layer(passes)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
        print("spans written to %s" % os.path.relpath(
            write_trace(args.workload, args.seed, passes, values), ROOT))
    else:
        values, notes = end_to_end(passes, setup[0])
        for line in notes + ["setup_s: median of %d fresh-process start-ups (raw %.6g s)"
                             % (setup[2], setup[1])]:
            print(line)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    for k, m in metrics.items():
        print("%-34s %14.6g %s" % (k, m["value"], m["unit"]))
    print(json.dumps({"correct": not failed, "attempted": len(jobs),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
