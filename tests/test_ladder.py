"""tools/ladder.py, the scaling ladder the CI log prints: its cold rung runs
each of its commands as a fresh process and reports what it loaded, its
sweep rung runs one seeded pass and accounts for it phase by phase, and its
les rung certifies the long exact sequence of a pair larger than any in the
corpus."""

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


def test_cold_rung_reports_each_command(capsys):
    ladder = _ladder()
    ladder.cold_rung()
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("  ")[0].strip() for line in lines[:-3]] == list(ladder.COLD_COMMANDS)
    assert lines[-2].startswith("Corpus(default_corpus_text()): ")
    total = 0
    for cmd, line in zip(ladder.COLD_COMMANDS, lines):
        tokens = int(line.split(" tokens")[0].rsplit(None, 1)[1])
        total += tokens
        layers = line.split("tannakit: ")[1].split("  other: ")[0].split()
        other = line.split("  other: ")[1].split()
        assert {"cli", "corpus", "linalg", "simplicial"} <= set(layers), line
        assert tokens > sum(map(ladder.source_tokens, ("cli", "corpus", "linalg", "simplicial")))
        if cmd.split()[0] in ("homology", "product", "les"):
            assert not {"maps", "matrix", "smith", "tannaka"} & set(layers), line
            assert "fractions" not in other, line
        if cmd.split()[0] in ("kunneth", "cech"):
            assert "smith" not in layers, line
    assert lines[-3] == "tokens compiled by the %d commands: %d" % (len(ladder.COLD_COMMANDS),
                                                                    total)
