"""One pass of the tannaka-sweep workload in a fresh process.

    python3 bench/sweep.py JOBS.json RESULT.json [SPANS.json]

JOBS.json holds the subdiagram names, the seeded random diagrams and the
monotonic-clock deadline after which no new job starts (null: run every
job).  A pass runs three jobs per ring, Z first: the axiom sweep over the
bundled subdiagrams, the bialgebra and sigma checks on the tower (one shared
Corpus per ring), and the same axiom calls on every random diagram.  The
result records per-job start and end times and the answers the benchmark
checks against its references, gathered after the last job.  With a
SPANS.json argument the tannakit modules are traced.
"""

import json
import sys
import time

from inputs import SWEEP_TOWER


def _rep_data(rep, sub):
    ranks = {v: rep.rank(v) for v in sub.vertices}
    edges = [(name, src, dst, [[str(x) for x in row] for row in rep.edge_map(name).matrix.data])
             for (name, src, dst, _kind) in sub.edges]
    return ranks, edges


def _tannaka_calls(ctx, sub, tannaka):
    """The calls of the axiom criterion on one subdiagram."""
    E = ctx.end(sub)
    A = ctx.coalgebra(sub)
    coaction_ok = True
    for v in sub.vertices:
        co = tannaka.coaction(ctx.rep, sub, v, E, A)
        coassoc, counit = tannaka.check_coaction_axioms(co)
        coaction_ok = coaction_ok and coassoc and counit
    cert = tannaka.factorization_check(ctx.rep, sub, E)
    return {"dim": E.dim, "rank": A.rank, "coaction_ok": coaction_ok,
            "factorization_ok": cert.ok}


def main(argv):
    with open(argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = None
    if len(argv) > 3:
        from tracing import Tracer, install
        tracer = Tracer()
    from tannakit import bialgebra, tannaka
    from tannakit.cli import default_corpus_text
    from tannakit.corpus import Corpus
    from tannakit.linalg import QQ, ZZ, FgModule, Matrix, ModuleMap
    if tracer is not None:
        install(tracer)
    text = default_corpus_text()
    rings = (ZZ, QQ)
    corpora = {ring: Corpus(text) for ring in rings}
    random_reps = []
    for ranks, edges in spec["diagrams"]:
        dia = tannaka.Diagram(sorted(ranks), [(n, s, d, "map") for (n, s, d, _m) in edges])
        per_ring = {}
        for ring in rings:
            modules = {v: FgModule.free(ring, r) for v, r in ranks.items()}
            maps = {n: ModuleMap(modules[s], modules[d], Matrix(ring, m))
                    for (n, s, d, m) in edges}
            rep = tannaka.DiagramRep(dia, ring, modules, maps)
            per_ring[ring] = (bialgebra.PairsContext(dia, rep),
                              tannaka.Subdiagram(dia, sorted(ranks)))
        random_reps.append(per_ring)

    def bundled(ring):
        out, reps = {}, {}
        for name in spec["subdiagrams"]:
            ctx, sub = corpora[ring].subdiagram(name, ring)
            out[name] = _tannaka_calls(ctx, sub, tannaka)
            reps[name] = (ctx.rep, sub)
        return {"subdiagrams": out, "_reps": reps}

    def tower(ring):
        ctx, subs, unit = corpora[ring].tower(SWEEP_TOWER, ring)
        cert = bialgebra.bialgebra_axiom_check(ctx, subs, unit_vertex=unit)
        sigmas = []
        for sub in subs:
            if ctx.circle in sub.vertices:
                sig = bialgebra.sigma_element(ctx, sub)
                A = ctx.coalgebra(sub)
                sigmas.append({"grouplike": A.grouplike_defect(sig.coords).is_zero(),
                               "counit": str(A.counit_of(sig.coords))})
        return {"bialgebra_ok": cert.ok, "sigmas": sigmas}

    def random_diagrams(ring):
        return {"diagrams": [_tannaka_calls(*per_ring[ring], tannaka)
                             for per_ring in random_reps]}

    jobs = []
    for ring in rings:
        for kind, fn in (("bundled", bundled), ("tower", tower), ("random", random_diagrams)):
            jobs.append((kind, ring, lambda fn=fn, ring=ring: fn(ring)))

    deadline = spec["deadline"]
    results = []
    for kind, name, job in jobs:
        if deadline is not None and time.monotonic() >= deadline:
            break
        start = time.monotonic()
        try:
            answer = job()
        except Exception as exc:          # a job that raises fails; the pass goes on
            answer = {"error": "%s: %s" % (type(exc).__name__, exc)}
        end = time.monotonic()
        results.append({"kind": kind, "name": name, "start": start, "end": end,
                        "answer": answer})
    for rec in results:                   # after the last job: not timed
        for name, (rep, sub) in rec["answer"].pop("_reps", {}).items():
            ranks, edges = _rep_data(rep, sub)
            rec["answer"]["subdiagrams"][name].update(ranks=ranks, edges=edges)

    with open(argv[2], "w", encoding="utf-8") as fh:
        json.dump({"jobs": results}, fh)
    if tracer is not None and results:
        lo, hi = results[0]["start"], results[-1]["end"]
        tracer.dump(argv[3], extra={"covered_s": tracer.root_time(lo, hi),
                                    "window_s": hi - lo})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
