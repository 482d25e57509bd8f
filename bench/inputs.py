"""Seeded inputs for the benchmark workloads.

The program under test only ever sees what this module makes: a corpus file
for each homology ladder, the command order of cli-corpus (which runs against
the bundled corpus, as a user would) and the diagram data of the library
sweep.  The same seed always gives the same inputs.
"""

import random
from itertools import combinations

# Factor triangulations of the homology ladders (the bundled corpus's shapes).
FACTORS = {
    "circle3": [("a", "b"), ("b", "c"), ("a", "c")],
    "circle6": [("p", "q"), ("q", "r"), ("r", "s"), ("s", "t"), ("t", "u"),
                ("p", "u")],
    "edge": [("a", "b")],
    "sphere": [("a", "b", "c"), ("a", "b", "d"), ("a", "c", "d"),
               ("b", "c", "d")],
    "mobius": [("m0", "m1", "m2"), ("m1", "m2", "m3"), ("m2", "m3", "m4"),
               ("m3", "m4", "m0"), ("m4", "m0", "m1")],
    "rp2": [("r0", "r1", "r4"), ("r0", "r1", "r5"), ("r0", "r2", "r3"),
            ("r0", "r2", "r4"), ("r0", "r3", "r5"), ("r1", "r2", "r3"),
            ("r1", "r2", "r5"), ("r1", "r3", "r4"), ("r2", "r4", "r5"),
            ("r3", "r4", "r5")],
}
# Subcomplexes used as the relative part of a rung, on a factor's vertices.
SUBFACTORS = {"ends": ("edge", [("a",), ("b",)])}

# (pair name, left factor, right factor, relative part or None), as
# "X = left * right" and "Z = left * sub" when a relative part is given.
LADDERS = {
    "homology-z": [
        ("c6c3", "circle6", "circle3", None),
        ("rp2e", "rp2", "edge", None),
        ("rp2e_rel", "rp2", "edge", "ends"),
        ("c6c6", "circle6", "circle6", None),
        ("mobc3", "mobius", "circle3", None),
        ("rp2c3", "rp2", "circle3", None),
    ],
    "homology-q": [
        ("c3c3", "circle3", "circle3", None),
        ("sphc3", "sphere", "circle3", None),
        ("c6c6", "circle6", "circle6", None),
    ],
}
# The relative rung that also gets the long exact sequence certificate.
LES_RUNG = "rp2e_rel"

# The bundled commands of the determinism criterion, run against the
# bundled corpus exactly as a user would type them.
CLI_CORPUS_COMMANDS = [
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

SWEEP_SUBDIAGRAMS = ["F0", "F1", "F2", "SIGC", "P2", "P22H", "TRIPLES", "WRAPD"]
SWEEP_TOWER = "main_tower"
# (End dimension, total rank) of each seeded random diagram.  The cost of the
# dense coalgebra checks grows like dim^5 and, at a given dimension, by a
# fifth or more with each unit of total rank (sum of the vertex ranks): with
# only the dimension fixed, the twelve diagrams of a job cost about 8% more
# or less from seed to seed.  Fixing both (not just a cap of 16 on the
# dimension) keeps every seed's job at the same size; vertex count, ranks,
# edges and entries stay random.
RANDOM_SHAPES = ((5, 4), (6, 6), (8, 6)) * 4


def cli_order(seed):
    """Seeded order of the cli-corpus commands."""
    order = list(range(len(CLI_CORPUS_COMMANDS)))
    random.Random("cli-order:%d" % seed).shuffle(order)
    return [CLI_CORPUS_COMMANDS[i] for i in order]


def _relabel_maps(seed):
    """One seeded vertex bijection per factor, onto names whose sort order is
    a random permutation of the original one."""
    rng = random.Random("relabel:%d" % seed)
    maps = {}
    for name in sorted(FACTORS):
        verts = sorted({v for s in FACTORS[name] for v in s})
        perm = list(range(len(verts)))
        rng.shuffle(perm)
        maps[name] = {v: "%s%02d" % (name[:2], perm[i]) for i, v in enumerate(verts)}
    return maps


def _apply(relabel, simplices):
    return [tuple(relabel[v] for v in s) for s in simplices]


class Ladder:
    """A relabelled homology ladder: corpus text plus the maximal simplices
    of every rung, for the independent reference."""

    def __init__(self, workload, seed):
        maps = _relabel_maps(seed)
        self.rungs = LADDERS[workload]
        used = set()
        for (_n, left, right, sub) in self.rungs:
            used.update((left, right))
        self.factors = {f: _apply(maps[f], FACTORS[f]) for f in sorted(used)}
        self.subs = {s: _apply(maps[SUBFACTORS[s][0]], SUBFACTORS[s][1])
                     for (_n, _l, _r, s) in self.rungs if s}

    def corpus_text(self):
        out = ["# generated homology ladder"]
        for name, simps in list(self.factors.items()) + list(self.subs.items()):
            out.append("[complex %s]" % name)
            out.append("simplices = " + " | ".join(" ".join(s) for s in simps))
        for (pname, left, right, sub) in self.rungs:
            out.append("[pair %s]" % pname)
            out.append("space = %s * %s" % (left, right))
            if sub:
                out.append("sub = %s * %s" % (left, sub))
        return "\n".join(out) + "\n"

    def maximal(self, pname):
        """(maximal simplices of X, maximal simplices of Z) of a rung."""
        for (n, left, right, sub) in self.rungs:
            if n == pname:
                X = staircase_product(self.factors[left], self.factors[right])
                Z = staircase_product(self.factors[left], self.subs[sub]) if sub else []
                return X, Z
        raise KeyError(pname)

    def jobs(self, workload):
        ring = "z" if workload == "homology-z" else "q"
        out = [["--ring", ring, "homology", n] for (n, _l, _r, _s) in self.rungs]
        if workload == "homology-z":
            out.insert(3, ["--ring", ring, "les", LES_RUNG])
        return out


def staircase_product(xs, ys):
    """Maximal simplices of the staircase triangulation of |X| x |Y|, from the
    maximal simplices of each factor.  Written here, not taken from the
    package, because it feeds the independent reference."""
    out = []
    for s in xs:
        s = sorted(s)
        for t in ys:
            t = sorted(t)
            p, q = len(s) - 1, len(t) - 1
            for ups in combinations(range(p + q), p):
                a = b = 0
                path = [(s[0], t[0])]
                for step in range(p + q):
                    if step in ups:
                        a += 1
                    else:
                        b += 1
                    path.append((s[a], t[b]))
                out.append(tuple(path))
    return out


def random_diagrams(seed, commutant_dim, shapes=RANDOM_SHAPES):
    """Seeded random diagram data, one per (End dimension, total rank) of
    shapes.

    Each is (ranks, edges) with edges (name, src, dst, rows) over small
    integers; commutant_dim(ranks, edges) is the oracle's End dimension, and
    a draw is kept only when its ranks add up to the wanted total and its
    End dimension equals the wanted one.
    """
    rng = random.Random("diagrams:%d" % seed)
    out = []
    for want, total_rank in shapes:
        while True:
            nv = rng.randint(1, 3)
            names = ["v%d" % i for i in range(nv)]
            ranks = {v: rng.randint(1, 3) for v in names}
            if sum(ranks.values()) != total_rank or \
                    sum(r * r for r in ranks.values()) < want:
                continue
            edges = []
            for k in range(rng.randint(0, 3)):
                s = rng.choice(names)
                d = rng.choice(names)
                rows = [[rng.randint(-2, 2) for _ in range(ranks[s])]
                        for _ in range(ranks[d])]
                edges.append(("e%d" % k, s, d, rows))
            if commutant_dim(ranks, edges) == want:
                out.append((ranks, edges))
                break
    return out
