import pytest

from tannakit import bialgebra
from tannakit.bialgebra import (
    bialgebra_axiom_check, check_associativity, check_commutativity,
    check_fragment_bialgebra, check_tau_associativity, check_tau_symmetry,
    check_tau_unit, is_good_vertex, kunneth_tau, product_on_truncations,
    sigma_directed_system, sigma_element,
)
from tannakit.cli import default_corpus_text
from tannakit.corpus import Corpus
from tannakit.errors import MissingProducts, NotGoodPair, ProductEscape, WrongRank
from tannakit.linalg import QQ, ZZ, Matrix, ModuleMap
from tannakit.simplicial import SimplicialPair
from tannakit.tannaka import DiagramRep, Subdiagram, transition_map

import spaces
from oracles import dense_product_on_truncations
from spaces import RP2, pair
from tannaka_fixtures import build_context, with_basis


@pytest.fixture(scope="module")
def ctxq():
    return build_context(QQ)


class TestTau:
    def test_unit_times_unit(self, ctxq):
        ctx, tower = ctxq
        t = ctx.tau("u", "u")
        assert t.matrix == Matrix.identity(QQ, 1)

    def test_circle_circle_rank(self, ctxq):
        ctx, tower = ctxq
        t = ctx.tau("g", "g")
        assert t.matrix.rows == 1 and t.matrix.cols == 1
        assert t.matrix[0, 0] != 0

    def test_rank_two_tau_invertible(self, ctxq):
        ctx, tower = ctxq
        t = ctx.tau("p2", "p2")
        assert t.matrix.rows == 4 and t.matrix.cols == 4
        assert t.matrix * t.inverse == Matrix.identity(QQ, 4)

    def test_unit_coherence(self, ctxq):
        ctx, tower = ctxq
        assert check_tau_unit(ctx, "u", "g", left=True)
        assert check_tau_unit(ctx, "u", "g", left=False)

    def test_symmetry_with_koszul_sign(self, ctxq):
        ctx, tower = ctxq
        assert check_tau_symmetry(ctx, "g", "g")
        assert check_tau_symmetry(ctx, "u", "g")

    def test_associativity_unit_triple(self, ctxq):
        ctx, tower = ctxq
        assert check_tau_associativity(ctx, "u", "u", "u")

    def test_not_good_pair(self, ctxq):
        ctx, tower = ctxq
        # fabricate a context lookup on a non-good vertex: RP2 has torsion
        assert not is_good_vertex(pair(RP2), 1)


class TestMu:
    def test_rank_one_product(self, ctxq):
        ctx, tower = ctxq
        F0 = tower[0]
        H = Subdiagram(ctx.diagram, ["uu"])
        mu = product_on_truncations(ctx, F0, F0, H)
        assert mu.matrix == Matrix.identity(QQ, 1)

    def test_missing_products(self, ctxq):
        ctx, tower = ctxq
        F1 = tower[1]
        with pytest.raises(MissingProducts):
            product_on_truncations(ctx, F1, F1, tower[1])

    def test_f1_f1_fragment(self, ctxq):
        ctx, tower = ctxq
        mu = product_on_truncations(ctx, tower[1], tower[1], tower[2])
        cert = check_fragment_bialgebra(ctx, mu)
        assert cert.ok, cert.checks

    def test_sigma_squared_is_gg_coefficient(self, ctxq):
        ctx, tower = ctxq
        F1, F2 = tower[1], tower[2]
        mu = product_on_truncations(ctx, F1, F1, F2)
        sig = sigma_element(ctx, F1)
        out = mu.apply(sig.coords, sig.coords)
        # the image must be the coaction coefficient of the rank-1 h_2(gg):
        # the dual basis vector of the family detecting the gg component
        E2 = ctx.end(F2)
        from tannakit.tannaka import coaction
        co = coaction(ctx.rep, F2, "gg", E2, ctx.coalgebra(F2))
        expected = tuple(co.rho[i, 0] for i in range(ctx.coalgebra(F2).rank))
        assert tuple(out) == expected

    def test_noncommutative_fragment(self, ctxq):
        ctx, tower = ctxq
        F = Subdiagram(ctx.diagram, ["p2"])
        H = Subdiagram(ctx.diagram, ["p22"])
        mu = product_on_truncations(ctx, F, F, H)
        cert = check_fragment_bialgebra(ctx, mu)
        assert cert.ok, cert.checks

    def test_corrupted_tau_is_reported(self, ctxq):
        from tannakit.bialgebra import PairsContext, TauIso
        from tannakit.errors import ProductEscape
        ctx, tower = ctxq
        fresh = PairsContext(ctx.diagram, ctx.rep, ctx.products, ctx.circle)
        good = fresh.tau("g", "g")
        # mismatched inverse: pi no longer preserves the unit, so either the
        # membership solve escapes or the bialgebra axioms break
        fresh._tau_cache[("g", "g")] = TauIso(
            good.v, good.w, good.vw, good.matrix, good.inverse.scale(2))
        F1, F2 = tower[1], tower[2]
        try:
            mu = product_on_truncations(fresh, F1, F1, F2)
            cert = check_fragment_bialgebra(fresh, mu)
            assert not cert.ok
        except ProductEscape:
            pass


class TestMuOracle:
    """mu from the two End solvers against the dense Kronecker-basis solve."""

    @pytest.mark.parametrize("ring", [ZZ, QQ])
    def test_tower_fragments(self, ring, monkeypatch):
        built = []
        product = bialgebra.product_on_truncations

        def recorded(ctx, F, G, H):
            mu = product(ctx, F, G, H)
            built.append((ctx, F, G, H, mu))
            return mu
        monkeypatch.setattr(bialgebra, "product_on_truncations", recorded)
        corpus = Corpus(default_corpus_text())
        for name in ("main_tower", "sigma_tower"):
            ctx, tower, unit = corpus.tower(name, ring)
            assert bialgebra_axiom_check(ctx, tower, unit_vertex=unit).ok
        ctx, P2 = corpus.subdiagram("P2", ring)
        built.append((ctx, P2, P2, corpus.subdiagram("P22H", ring)[1], None))
        assert len(built) == 6      # 4 on main_tower, 1 on sigma_tower, p2 x p2
        for ctx, F, G, H, mu in built:
            mu = mu or product(ctx, F, G, H)
            assert mu.matrix == dense_product_on_truncations(ctx, F, G, H)

    @pytest.mark.parametrize("drop, spans_over_q", [(False, True), (True, False)])
    def test_escape_reports_integrality(self, drop, spans_over_q):
        # End(T|P2) = M_2 with E_00 doubled spans it over Q but not over Z;
        # without E_00 it does not span it over Q either.  Over Z both
        # escape; over Q only the basis that does not span does.
        corpus = Corpus(default_corpus_text())
        for ring in (ZZ, QQ):
            ctx, P2 = corpus.subdiagram("P2", ring)
            E = ctx.end(P2)
            cols = [E.basis.col(k) for k in range(E.dim)]
            cols[0:1] = [] if drop else [tuple(2 * x for x in cols[0])]
            with_basis(E, Matrix.from_columns(ring, cols, rows=E.basis.rows))
            P22H = corpus.subdiagram("P22H", ring)[1]
            if ring == QQ and spans_over_q:
                assert product_on_truncations(ctx, P2, P2, P22H).matrix.rows
            else:
                with pytest.raises(ProductEscape):
                    product_on_truncations(ctx, P2, P2, P22H)


class TestBialgebraCert:
    def test_tower(self, ctxq):
        ctx, tower = ctxq
        cert = bialgebra_axiom_check(ctx, tower, unit_vertex="u")
        assert cert.ok, cert.checks
        names = {c["name"] for c in cert.checks}
        assert any(n.startswith("delta-mu") for n in names)
        assert any(n.startswith("commutativity") for n in names)
        assert any(n.startswith("unit-grouplike") for n in names)

    def test_associativity_unit_fragments(self, ctxq):
        ctx, tower = ctxq
        dia = ctx.diagram
        F0 = tower[0]
        Huu = Subdiagram(dia, ["uu"])
        Hl = Subdiagram(dia, ["uuul"])
        Hr = Subdiagram(dia, ["uuur"])
        Hc = Subdiagram(dia, ["uuul", "uuur"])
        mu1 = product_on_truncations(ctx, F0, F0, Huu)
        mu2 = product_on_truncations(ctx, Huu, F0, Hl)
        mu3 = product_on_truncations(ctx, F0, Huu, Hr)
        tl = transition_map(ctx.rep, ctx.end(Hl), ctx.end(Hc),
                            ctx.coalgebra(Hl), ctx.coalgebra(Hc))
        tr = transition_map(ctx.rep, ctx.end(Hr), ctx.end(Hc),
                            ctx.coalgebra(Hr), ctx.coalgebra(Hc))
        cert = check_associativity(ctx, mu1, mu2, mu1, mu3, tl, tr)
        assert cert.ok, cert.checks


class TestSigma:
    def test_sigma_alone_is_unit(self, ctxq):
        ctx, tower = ctxq
        C = Subdiagram(ctx.diagram, ["g"])
        sig = sigma_element(ctx, C)
        assert sig.coords == (1,)

    def test_sigma_in_tower(self, ctxq):
        ctx, tower = ctxq
        for sub in tower[1:]:
            sig = sigma_element(ctx, sub)
            A = ctx.coalgebra(sub)
            assert A.grouplike_defect(sig.coords).is_zero()
            assert A.counit_of(sig.coords) == 1

    @pytest.mark.parametrize("ring", [ZZ, QQ])
    def test_generator_sign_flip(self, ring):
        # negating every edge map with exactly one end at the circle vertex
        # conjugates its rank-1 module by -1; sigma must not change
        corpus = Corpus(default_corpus_text())
        ctx, _ = corpus.subdiagram("SIGC", ring)
        c, rep = ctx.circle, ctx.rep
        maps = {}
        for name, src, dst, _kind in ctx.diagram.edges:
            f = rep.edge_map(name)
            maps[name] = (ModuleMap(f.source, f.target, -f.matrix)
                          if (src == c) != (dst == c) else f)
        assert sum(maps[n] is not rep.edge_map(n) for n in maps) == 3
        flipped = bialgebra.PairsContext(
            ctx.diagram, DiagramRep(ctx.diagram, ring, rep.modules, maps), ctx.products, c)
        for name in ("SIGC", "F1", "F2"):
            sub = corpus.subdiagram(name, ring)[1]
            assert sigma_element(flipped, sub).coords == sigma_element(ctx, sub).coords

    def test_wrong_rank(self, ctxq):
        ctx, tower = ctxq
        bad = PairsContextProxy(ctx, circle="p2")
        with pytest.raises(WrongRank):
            sigma_element(bad, Subdiagram(ctx.diagram, ["p2"]))

    def test_directed_system(self, ctxq):
        ctx, tower = ctxq
        system = sigma_directed_system(ctx, [tower[1], tower[2]], depth=1)
        assert len(system.steps) == 1
        assert all(k["kernel_rank"] == 0 for k in system.kernels)

    def test_depth_zero(self, ctxq):
        ctx, tower = ctxq
        system = sigma_directed_system(ctx, [tower[1], tower[2]], depth=0)
        assert system.steps == [] and system.kernels == []


class PairsContextProxy:
    """Same context with another circle designation (tests only)."""

    def __init__(self, ctx, circle):
        self._ctx = ctx
        self.circle = circle

    def __getattr__(self, name):
        return getattr(self._ctx, name)
