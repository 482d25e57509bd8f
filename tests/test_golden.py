"""Certificates of the determinism commands against stored golden bytes.

Each of criterion 12's commands runs over Z and over Q in a fresh process,
so every cache starts cold, and its certificate must equal the file under
tests/golden/ byte for byte.  After a deliberate change to a certificate,
rewrite the files with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from test_acceptance import DETERMINISM_COMMANDS

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
SRC = os.path.join(os.path.dirname(HERE), "src")
CASES = [(ring, argv) for argv in DETERMINISM_COMMANDS for ring in ("z", "q")]


def golden_name(ring, argv):
    return "%s.%s.json" % (re.sub(r"[^A-Za-z0-9_]+", "-", " ".join(argv)), ring)


def certificate(ring, argv, path):
    """Exit code of a fresh `tannakit.cli` process writing its certificate to
    path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "tannakit.cli", "--ring", ring,
                           "--out", path] + argv,
                          env=env, capture_output=True, timeout=300)
    return proc.returncode


def write_all(directory):
    """Certificates of every case into directory, two processes at a time;
    {case index: exit code}."""
    def run(i):
        ring, argv = CASES[i]
        return i, certificate(ring, argv, os.path.join(directory, golden_name(ring, argv)))

    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(pool.map(run, range(len(CASES))))


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    directory = tmp_path_factory.mktemp("certificates")
    return directory, write_all(str(directory))


def test_golden_names_are_distinct():
    names = [golden_name(ring, argv) for ring, argv in CASES]
    assert len(set(names)) == len(names) == 44
    assert sorted(names) == sorted(os.listdir(GOLDEN))


@pytest.mark.parametrize("i", range(len(CASES)),
                         ids=["%s %s" % (ring, " ".join(argv)) for ring, argv in CASES])
def test_certificate_matches_golden(i, fresh):
    directory, codes = fresh
    name = golden_name(*CASES[i])
    assert codes[i] == 0
    with open(os.path.join(GOLDEN, name), "rb") as fh:
        assert (directory / name).read_bytes() == fh.read()


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    failed = {i: code for i, code in write_all(GOLDEN).items() if code}
    if failed:
        raise SystemExit("nonzero exit: %s" % ", ".join(
            "%s over %s" % (" ".join(CASES[i][1]), CASES[i][0]) for i in failed))
