"""The benchmark's own tests.

    python3 -m pytest bench/test_bench.py -q

They run the benchmark in its small mode, so they take about a minute; they
are not part of the package's test suite.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from inputs import CLI_CORPUS_COMMANDS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("cli-corpus", "homology-z", "homology-q", "tannaka-sweep")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def env():
    e = dict(os.environ)
    e["PYTHONPATH"] = os.path.join(ROOT, "src")
    return e


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"), "--seed", "3",
           "--seconds", "1"] + list(args)
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result(out):
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_small_mode_prints_every_metric_with_its_unit(workload, trace):
    res = result(bench("--workload", workload, "--trace", str(trace), "--small"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_reference_raises_fail_ratio(workload):
    res = result(bench("--workload", workload, "--small", "--corrupt-reference"))
    assert res["failed"] > 0 and res["correct"] is False


@pytest.mark.parametrize("argv", CLI_CORPUS_COMMANDS, ids=" ".join)
def test_fresh_processes_write_identical_certificates(argv, tmp_path):
    certs = []
    for run in (0, 1):
        out = tmp_path / ("cert%d.json" % run)
        code = subprocess.run([sys.executable, "-m", "tannakit.cli", "--out", str(out)] + argv,
                              cwd=ROOT, env=env(), stdout=subprocess.DEVNULL,
                              timeout=120).returncode
        assert code == 0
        certs.append(out.read_bytes())
    assert certs[0] == certs[1]


def test_tracer_sees_calls_through_rebound_names():
    # tannaka binds kernel and _Solver with `from .linalg import ...`; the
    # tracer must re-bind those names or these calls go unseen.
    code = """
import sys
sys.path.insert(0, %r)
from tracing import Tracer, install
from tannakit.linalg import QQ, FgModule, Matrix, ModuleMap
from tannakit.tannaka import Diagram, DiagramRep, Subdiagram, end_algebra
t = Tracer()
install(t)
dia = Diagram(["a", "b"], [("e", "a", "b", "map")])
mods = {"a": FgModule.free(QQ, 2), "b": FgModule.free(QQ, 2)}
rep = DiagramRep(dia, QQ, mods, {"e": ModuleMap(mods["a"], mods["b"], Matrix(QQ, [[1, 0], [0, 0]]))})
end_algebra(rep, Subdiagram(dia, ["a", "b"]))
tot = t.totals()
print(tot["linalg.kernel"]["calls"], tot["linalg.solve"]["calls"], tot["tannaka.end_algebra"]["calls"])
""" % BENCH
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env(),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    kernel_calls, solve_calls, end_calls = map(int, out.stdout.split())
    assert kernel_calls >= 1 and solve_calls >= 1 and end_calls == 1


def test_a_long_child_runs_in_calibrated_slices(tmp_path):
    import calibrate
    import run
    # 2.5 s of CPU time: it must be stopped twice or more, and the slices
    # must add up to at least the time it computed
    code = "import time\nwhile time.process_time() < 2.5:\n    pass\n"
    rc, slices, _rss, after = run.run_child([sys.executable, "-c", code],
                                            str(tmp_path / "log.txt"), calibrate.measure())
    assert rc == 0 and len(slices) >= 3 and len(after) == calibrate.REPEATS
    assert all(a < b <= c for (a, b, _s), (c, _d, _t) in zip(slices, slices[1:]))
    assert all(speed > 0 for _a, _b, speed in slices)
    ran = run.busy_seconds(slices, slices[0][0], slices[-1][1], scaled=False)
    assert 2.5 <= ran < 5.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
    out = bench("--workload", "cli-corpus", "--small", cwd=str(tmp_path))
    assert out.returncode != 0
    assert not out.stdout.strip().endswith("}")
