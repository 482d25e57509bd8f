"""Independent reference answers for the benchmark's jobs.

Homology comes from tests/oracles.py::homology_groups on maximal simplices
that the benchmark writes itself; End dimensions come from
tests/oracles.py::brute_commutant.  No answer here is computed by tannakit.
"""

import importlib.util
import os
import re


def load_oracles(root):
    path = os.path.join(root, "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def homology_reference(oracles, maximal, relative_to=()):
    """{degree: (free rank, [torsion])} from the brute-force oracle."""
    return {d: (b, list(t)) for d, (b, t) in
            oracles.homology_groups(maximal, relative_to).items()}


def commutant_dim(oracles, ranks, edges):
    """End dimension of a diagram: edges are (name, src, dst, rows)."""
    return len(oracles.brute_commutant(ranks, [(s, d, m) for (_n, s, d, m) in edges]))


def parse_module(text):
    """'Z/2 + Z^3' -> (3, [2]); '0' -> (0, []); 'Q^2' -> (2, [])."""
    free, torsion = 0, []
    if text.strip() == "0":
        return free, torsion
    for part in text.split("+"):
        m = re.fullmatch(r"\s*[ZQ](?:\^(\d+)|/(\d+))\s*", part)
        if m is None:
            raise ValueError("unreadable module %r" % text)
        if m.group(1):
            free += int(m.group(1))
        else:
            torsion.append(int(m.group(2)))
    return free, sorted(torsion)


def homology_mismatch(table, expected, ring):
    """None when a certificate's homology table matches the reference, else a
    description of the first difference.  Over Q only the free rank counts."""
    got = {}
    for key, text in table.items():
        got[int(key.split("=")[1])] = parse_module(text)
    for d in sorted(set(got) | set(expected)):
        free, tors = expected.get(d, (0, []))
        if ring == "q":
            tors = []
        if got.get(d, (0, [])) != (free, sorted(tors)):
            return "H_%d: got %r, expected %r" % (d, got.get(d), (free, tors))
    return None


def bundled_complexes(corpus_text):
    """{name: maximal simplices} of the [complex] sections of a corpus file,
    read with a parser of the benchmark's own."""
    out = {}
    current = None
    for raw in corpus_text.splitlines():
        line = raw.split("#", 1)[0].strip()
        m = re.fullmatch(r"\[(\w+)\s+([\w.-]+)\]", line)
        if m:
            current = m.group(2) if m.group(1) == "complex" else None
            continue
        if current and line.startswith("simplices"):
            value = line.split("=", 1)[1]
            out[current] = [tuple(p.split()) for p in value.split("|") if p.strip()]
    return out
