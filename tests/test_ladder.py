"""tools/ladder.py, the scaling ladder the CI log prints: its sweep rung
runs one seeded pass and accounts for it phase by phase, and its les rung
certifies the long exact sequence of a pair larger than any in the corpus."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _ladder():
    spec = importlib.util.spec_from_file_location(
        "ladder", os.path.join(ROOT, "tools", "ladder.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_sweep_rung_splits_one_pass(capsys):
    ladder = _ladder()
    ladder.sweep_rung()
    head, *phases = capsys.readouterr().out.splitlines()
    assert head.startswith("tannaka-sweep pass, seed %d:" % ladder.SEED)
    assert head.endswith("every check ok True")
    assert [line.split("  ")[1].strip() for line in phases] == list(ladder.PHASES)
    shares = [float(line.rsplit(None, 1)[1].rstrip("%")) for line in phases]
    assert all(s >= 0 for s in shares) and sum(shares) <= 100.5


def test_les_rung_is_exact_on_both_rings(capsys):
    ladder = _ladder()
    ladder.les_rung()
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(ladder.RINGS)
    for line, ring in zip(lines, ladder.RINGS):
        assert line.startswith("les %s rel %s over %s:" % (*ladder.LES_PAIR, ring))
        assert ", ok True," in line
        residual, full = (int(line.split(key)[1].split(",")[0]) for key in
                          ("largest residual rank ", "rank C_1 "))
        assert residual < full
