"""Maps of filtrations: the pushforward filtration along a simplicial map and
the product filtration, each with its map of filtration complexes (the
Kunneth map of a product, read through the Eilenberg-Zilber map).

No command builds them; the tests do.
"""

from .errors import InvalidFiltration, TorsionTerm
from .filtration import ModuleComplex, filtration_complex
from .kunneth import _ez, tensor_complex
from .linalg import FgModule, ZZ
from .maps import ModuleMap, induced_map_on_homology
from .matrix import Matrix
from .simplicial import (
    ChainComplex, SimplicialComplex, SimplicialPair, _chain_image, pair_homology,
    product_complex,
)
from .structures import Filtration, SimplicialMap


class ModuleComplexMap:
    """Degreewise ModuleMaps commuting with the differentials."""

    __slots__ = ("source", "target", "components")

    def __init__(self, source, target, components):
        self.source = source
        self.target = target
        self.components = dict(components)
        for d in set(source.terms) | set(target.terms):
            left = self.target.differential(d).compose(self.component(d))
            right = self.component(d - 1).compose(self.source.differential(d))
            if left != right:
                raise AssertionError("module complex map fails at degree %d" % d)

    def component(self, d) -> ModuleMap:
        m = self.components.get(d)
        if m is None:
            m = ModuleMap.zero(self.source.term(d), self.target.term(d))
        return m


def pushforward_filtration(f: SimplicialMap, F: Filtration, ring=ZZ):
    """Image filtration on the target, with the induced map of complexes.

    Levels are the literal image subcomplexes below dim Y and the whole of Y
    from dim Y on (simplicial images are closed, replacing Zariski closure).
    """
    Y = f.target
    m = max(Y.dim, 0)
    levels = []
    for i in range(0, m + 1):
        if i < m:
            levels.append(f.image(F.level(i)))
        else:
            levels.append(Y)
    G = Filtration(Y, levels)
    src = filtration_complex(F, ring)
    tgt = filtration_complex(G, ring)
    comps = {}
    top = max(F.length, G.length)
    for i in range(0, top + 1):
        s = src.term(i)
        t = tgt.term(i)
        if s.is_zero() or t.is_zero():
            comps[i] = ModuleMap.zero(s, t)
            continue
        fi = f.restrict(F.level(i))
        comps[i] = induced_map_on_homology(
            fi, SimplicialPair(F.level(i), F.level(i - 1)),
            SimplicialPair(G.level(i), G.level(i - 1)), i, ring)
    return G, ModuleComplexMap(src, tgt, comps)


def _of_free_complex(cx):
    """The ModuleComplex of free modules of a ChainComplex, whose
    construction has already checked d o d = 0."""
    mc = ModuleComplex.__new__(ModuleComplex)
    mc.ring = cx.ring
    mc.terms = {d: FgModule.free(cx.ring, cx.rank(d)) for d in cx.degrees}
    mc.maps = {d: ModuleMap(mc.terms[d], mc.terms[d - 1], cx.boundary(d))
               for d in cx.degrees if d - 1 in mc.terms}
    return mc


def _tensor_module_complex(a: ModuleComplex, b: ModuleComplex) -> ModuleComplex:
    """Tensor of complexes of free modules: tensor_complex on generator
    indices, so generators (p, i, j) come in kron order, p ascending."""
    for mc in (a, b):
        for d, t in mc.terms.items():
            if t.torsion:
                raise TorsionTerm(
                    "Kunneth construction needs free terms; degree %d is %s"
                    % (d, t.describe()))
    return _of_free_complex(
        tensor_complex(_generator_complex(a), _generator_complex(b)))


def _generator_complex(mc: ModuleComplex) -> ChainComplex:
    """A free ModuleComplex as a ChainComplex labeled by generator index."""
    def faces(d, j):
        return enumerate(mc.differential(d).matrix.col(j))
    return ChainComplex(mc.ring, {d: range(t.ngens) for d, t in mc.terms.items()}, faces)


def product_filtration(F: Filtration, G: Filtration, ring=ZZ):
    """(F x G)_i = union of F_p x G_q over p+q = i, with the Kunneth map.

    Returns (filtration, source tensor complex, kunneth ModuleComplexMap).
    """
    n, m = F.length, G.length
    levels = []
    for i in range(0, n + m + 1):
        lvl = SimplicialComplex.empty()
        for p in range(0, i + 1):
            q = i - p
            piece = product_complex(F.level(p), G.level(q))
            lvl = lvl.union(piece)
        levels.append(lvl)
    XY = product_complex(F.X, G.X)
    if levels[-1] != XY:
        raise InvalidFiltration("product filtration fails to exhaust the product")
    FG = Filtration(XY, levels)

    ca = filtration_complex(F, ring)
    cb = filtration_complex(G, ring)
    tensor = _tensor_module_complex(ca, cb)
    target = filtration_complex(FG, ring)

    pa = {i: pair_homology(SimplicialPair(F.level(i), F.level(i - 1)), ring)
          for i in range(0, n + 1)}
    pb = {i: pair_homology(SimplicialPair(G.level(i), G.level(i - 1)), ring)
          for i in range(0, m + 1)}
    pfg = {i: pair_homology(SimplicialPair(FG.level(i), FG.level(i - 1)), ring)
           for i in range(0, n + m + 1)}

    comps = {}
    for i in range(0, n + m + 1):
        src = tensor.term(i)
        tgt = target.term(i)
        if src.is_zero() or tgt.is_zero():
            comps[i] = ModuleMap.zero(src, tgt)
            continue
        cols = []
        for p in range(max(0, i - m), min(i, n) + 1):
            q = i - p
            ca_n, cb_n, cc_n = pa[p], pb[q], pfg[i]
            ha, hb, hc = ca_n.homology(p), cb_n.homology(q), cc_n.homology(i)
            for ja in range(ha.module.ngens):
                za = ha.lift(ja)
                for jb in range(hb.module.ngens):
                    zb = hb.lift(jb)
                    # EZ of the pair of cycles, read inside the product level
                    chain = (((p, sa, sb), a * b)
                             for sa, a in zip(ca_n.labels(p), za) if a
                             for sb, b in zip(cb_n.labels(q), zb))
                    image = _chain_image(_ez, i, chain)
                    cols.append(hc.class_of(tuple(image.get(path, 0)
                                                  for path in cc_n.labels(i))))
        comps[i] = ModuleMap(src, tgt,
                             Matrix.from_columns(ring, cols, rows=tgt.ngens))
    kmap = ModuleComplexMap(tensor, target, comps)
    return FG, tensor, kmap
