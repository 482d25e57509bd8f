"""Span tracing of the tannakit modules, installed from the benchmark.

Nothing here touches src/: `install` wraps the public functions and methods
of each module from outside, and re-binds every name other modules imported
with `from .linalg import kernel` and the like, so those calls are seen too.
Each call becomes a span (name, start, end, parent) held in memory; `dump`
writes the spans and the per-name totals at the end of the process.

A layer's time is the inclusive time of its outermost spans: a call nested
in a call of the same name (recursion, or ez_matrixes inside ez_aw_maps) is
not counted twice.  Self time is the duration minus the child spans.
"""

import json
import sys
import time

# CLOCK_MONOTONIC is system-wide, so spans line up with the job times that
# the benchmark's parent process records.
_now = time.monotonic


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        # one row per span: [name id, parent index, start, end, child time]
        self.spans = []
        self._stack = []
        self._active = []          # per name id: open spans of that name
        self.counters = {}
        self.distinct = {}         # counter name -> set of keys seen

    def _nid(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return nid

    def add(self, counter, amount=1):
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def top(self, counter, value):
        if value > self.counters.get(counter, value - 1):
            self.counters[counter] = value

    def see(self, counter, key):
        self.distinct.setdefault(counter, set()).add(key)

    def wrap(self, fn, name, before=None, after=None):
        """fn wrapped in a span; before(args) and after(args, result) may
        update counters."""
        nid = self._nid(name)
        spans, stack, active = self.spans, self._stack, self._active

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            row = [nid, stack[-1] if stack else -1, 0.0, 0.0, 0.0,
                   active[nid] == 0]
            spans.append(row)
            stack.append(len(spans) - 1)
            active[nid] += 1
            row[2] = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _now()
                row[3] = end
                active[nid] -= 1
                stack.pop()
                if row[1] >= 0:
                    spans[row[1]][4] += end - row[2]
            if after is not None:
                after(args, result)
            return result

        return traced

    def totals(self):
        """{name: {"calls", "total_s", "self_s"}}; total_s counts only the
        outermost span of each name."""
        out = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for n in self.names}
        for nid, _parent, start, end, child, outer in self.spans:
            if end == 0.0:
                continue
            rec = out[self.names[nid]]
            rec["calls"] += 1
            rec["self_s"] += end - start - child
            if outer:
                rec["total_s"] += end - start
        return out

    def root_time(self, lo=float("-inf"), hi=float("inf")):
        """Time covered by top-level spans that lie within [lo, hi]."""
        return sum(end - start for (_n, parent, start, end, _c, _o) in self.spans
                   if parent < 0 and end and start >= lo and end <= hi)

    def dump(self, path, extra=None):
        doc = {
            "names": self.names,
            "spans": [[nid, parent, start, end] for (nid, parent, start, end, _c, _o)
                      in self.spans],
            "totals": self.totals(),
            "counters": self.counters,
            "distinct": {k: len(v) for k, v in self.distinct.items()},
        }
        if extra:
            doc.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _rebind(old, new):
    """Point every tannakit module attribute bound to `old` at `new`."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not modname.startswith("tannakit"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def _patch_function(tracer, module, attr, name, before=None, after=None):
    old = getattr(module, attr)
    _rebind(old, tracer.wrap(old, name, before, after))


def _patch_method(tracer, cls, attr, name, before=None, after=None):
    setattr(cls, attr, tracer.wrap(getattr(cls, attr), name, before, after))


def _size(m):
    return m.rows * m.cols


def install(tracer):
    """Wrap the public entry points of every tannakit module.  Names are
    re-bound only in modules already imported, so import tannakit.cli first
    when the CLI should be traced too."""
    from tannakit import (bialgebra, comodule, corpus, filtration, linalg,
                          simplicial, tannaka)
    t = tracer
    fn = _patch_function
    meth = _patch_method

    # -- linalg --------------------------------------------------------
    fn(t, linalg, "smith_normal_form", "linalg.snf",
       before=lambda a: t.add("linalg.snf_entries", _size(a[0])))
    fn(t, linalg, "hnf_columns", "linalg.hnf")
    fn(t, linalg, "rref", "linalg.rref")
    fn(t, linalg, "kernel", "linalg.kernel")
    fn(t, linalg, "subquotient", "linalg.subquotient")
    fn(t, linalg, "module_from_relations", "linalg.module_from_relations")
    meth(t, linalg._Solver, "solve", "linalg.solve")
    meth(t, linalg.Matrix, "kron", "linalg.kron",
         after=lambda a, r: t.add("linalg.kron_entries", _size(r)))
    meth(t, linalg.Matrix, "__mul__", "linalg.matmul")
    init = linalg.Matrix.__init__

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        t.add("linalg.matrix_built")
        t.add("linalg.entries_coerced", self.rows * self.cols)
    linalg.Matrix.__init__ = counted_init
    apply = linalg.Matrix.apply

    def counted_apply(self, vec):
        t.add("linalg.entries_coerced", _size(self))
        return apply(self, vec)
    linalg.Matrix.apply = counted_apply

    # -- simplicial ----------------------------------------------------
    fn(t, simplicial, "relative_chain_complex", "simplicial.chain_complex",
       before=lambda a: t.add("simplicial.simplices", a[0].X.n_simplices()))
    meth(t, simplicial.ChainComplex, "homology", "simplicial.homology")
    fn(t, simplicial, "les_exactness", "simplicial.les")
    fn(t, simplicial, "relative_cup_product", "simplicial.cup")
    fn(t, simplicial, "cech_total_complex", "simplicial.cech")
    for attr in ("ez_aw_maps", "ez_aw_relative", "ez_matrixes"):
        fn(t, simplicial, attr, "simplicial.ez_aw")
    cache = simplicial._PAIR_CACHE

    def pair_lookup(a):
        ring = a[1] if len(a) > 1 else linalg.ZZ
        hit = (a[0], ring) in cache
        t.add("simplicial.pair_cache_hits" if hit else "simplicial.pair_cache_misses")
    fn(t, simplicial, "pair_homology", "simplicial.pair_homology", before=pair_lookup)

    # -- filtration ----------------------------------------------------
    fn(t, filtration, "find_very_good_refinement", "filtration.search",
       after=lambda a, r: t.add("filtration.search_candidates", r[1].tested))
    fn(t, filtration, "compare_filtration_homology", "filtration.compare")

    # -- tannaka -------------------------------------------------------
    def end_after(a, _r):
        t.top("tannaka.end_dim_max", a[0].dim)
    meth(t, tannaka.EndAlgebra, "__init__", "tannaka.end_algebra", after=end_after)
    meth(t, tannaka.EndAlgebra, "structure_constants", "tannaka.structure_constants")

    def coalgebra_built(a):
        E = a[0]
        t.add("tannaka.coalgebra_builds")
        t.see("tannaka.coalgebra_distinct",
              (id(E.rep), E.sub.vertices, tuple(e[0] for e in E.sub.edges), E.ring))
    fn(t, tannaka, "dual_coalgebra", "tannaka.dual_coalgebra", before=coalgebra_built)
    fn(t, tannaka, "check_coaction_axioms", "tannaka.coaction_check")
    fn(t, tannaka, "factorization_check", "tannaka.factorization")
    fn(t, tannaka, "transition_map", "tannaka.transition")

    # -- bialgebra -----------------------------------------------------
    fn(t, bialgebra, "kunneth_tau", "bialgebra.tau")
    fn(t, bialgebra, "product_on_truncations", "bialgebra.product")
    fn(t, bialgebra, "bialgebra_axiom_check", "bialgebra.check")
    fn(t, bialgebra, "sigma_element", "bialgebra.sigma")
    fn(t, bialgebra, "sigma_directed_system", "bialgebra.sigma")

    # -- comodule ------------------------------------------------------
    fn(t, comodule, "check_comodule_axioms", "comodule.check")
    fn(t, comodule, "torsionfree_cover", "comodule.cover")

    # -- corpus --------------------------------------------------------
    meth(t, corpus.Corpus, "__init__", "corpus.parse")
    meth(t, corpus.Corpus, "context", "corpus.context")


def install_cli(tracer, cli):
    """Spans around the CLI's handlers and its certificate output."""
    for command, handler in list(cli.HANDLERS.items()):
        cli.HANDLERS[command] = tracer.wrap(handler, "cli.handler")
    _patch_function(tracer, cli, "render", "cli.emit")
    _patch_function(tracer, cli, "canonical_json", "cli.emit",
                    after=lambda a, r: tracer.add("cli.cert_bytes", len(r.encode("utf-8"))))
    cli.main = tracer.wrap(cli.main, "cli.main")
