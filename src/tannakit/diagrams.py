"""The diagram sections of a corpus: the PairsContext of a diagram and its
subdiagrams, read by the Corpus methods context and subdiagram.

Every context is built once per (diagram, ring) and checks its product
vertices against the corpus's own staircase products.  This is a module of
its own, not the end of tannaka.py, because a process's peak RSS follows
the compile of the largest module it loads.
"""

from .corpus import _malformed, _split_entries
from .errors import InputError
from .tannaka import PairsContext, Subdiagram, build_pairs_diagram

def corpus_context(corpus, name, ring) -> PairsContext:
    """Corpus.context: the PairsContext of the diagram `name` over ring,
    built once per (name, ring) with the corpus's own staircase products."""
    key = (name, ring)
    if key in corpus._contexts:
        return corpus._contexts[key]
    sec = corpus._diagram_decls.get(name)
    if sec is None:
        raise InputError("unknown diagram %r" % name)
    vertices = {}
    for decl in sec.get_all("vertex"):
        parts = _split_entries(decl, ":")
        if len(parts) != 3:
            raise InputError("diagram %r: bad vertex %r" % (name, decl))
        vname, pairname, deg = parts
        if pairname not in corpus.pairs:
            raise InputError("diagram %r: unknown pair %r" % (name, pairname))
        with _malformed("[diagram %s]" % name):
            vertices[vname] = (corpus.pairs[pairname], int(deg))
    map_edges = []
    for decl in sec.get_all("edge"):
        parts = _split_entries(decl, ":")
        if len(parts) != 3 or "->" not in parts[2]:
            raise InputError("diagram %r: bad edge %r" % (name, decl))
        ename, mapname, route = parts
        if mapname not in corpus.maps:
            raise InputError("diagram %r: unknown map %r" % (name, mapname))
        src, dst = [p.strip() for p in route.split("->", 1)]
        map_edges.append((ename, src, dst, corpus.maps[mapname]))
    triple_edges = []
    for decl in sec.get_all("triple"):
        parts = _split_entries(decl, ":")
        if len(parts) != 2 or "->" not in parts[1]:
            raise InputError("diagram %r: bad triple %r" % (name, decl))
        ename, route = parts
        src, dst = [p.strip() for p in route.split("->", 1)]
        triple_edges.append((ename, src, dst))
    products = {}
    for decl in sec.get_all("product"):
        lhs, _, rhs = decl.partition(":")
        vw = lhs.strip()
        if "*" not in rhs:
            raise InputError("diagram %r: bad product %r" % (name, decl))
        v, w = [p.strip() for p in rhs.split("*", 1)]
        products[(v, w)] = vw
    circle = sec.get("circle")
    dia, rep = build_pairs_diagram(ring, vertices, map_edges, triple_edges)
    ctx = PairsContext(dia, rep, products, circle, corpus._product)
    corpus._contexts[key] = ctx
    return ctx


def corpus_subdiagram(corpus, name, ring):
    """Corpus.subdiagram: (context, Subdiagram) of the subdiagram `name`."""
    sec = corpus._subdiagram_decls.get(name)
    if sec is None:
        raise InputError("unknown subdiagram %r" % name)
    dname = sec.require("diagram")
    ctx = corpus.context(dname, ring)
    vertices = _split_entries(sec.require("vertices"), " ")
    return ctx, Subdiagram(ctx.diagram, vertices, name=name)
