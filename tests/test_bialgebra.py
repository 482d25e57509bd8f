from fractions import Fraction

import pytest

from tannakit import bialgebra
from tannakit.bialgebra import (
    MuFragment, PairsContext, TauIso, bialgebra_axiom_check, check_associativity,
    check_commutativity, check_fragment_bialgebra, check_tau_associativity,
    check_tau_symmetry, check_tau_unit, is_good_vertex, kunneth_tau,
    product_on_truncations, sigma_directed_system, sigma_element,
)
from tannakit.cli import default_corpus_text
from tannakit.comodule import check_comodule_axioms, tensor_comodules, torsionfree_cover
from tannakit.corpus import Corpus
from tannakit.errors import MissingProducts, NotGoodPair, ProductEscape, WrongRank
from tannakit.linalg import QQ, ZZ, FgModule, Matrix, ModuleMap, _nonzero_columns
from tannakit.simplicial import ChainMap, SimplicialPair, _ez, product_pair
from tannakit.tannaka import (
    Comodule, DiagramRep, Subdiagram, build_pairs_diagram, transition_map,
)

import spaces
from oracles import (
    dense_associativity, dense_fragment_bialgebra, dense_product_on_truncations,
    dense_sigma_step, dense_tau_associativity, dense_tensor_rho,
)
from spaces import CIRCLE_POINT, POINT, RP2, pair
from tannaka_fixtures import build_context, wedge_context, with_basis


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

    @pytest.mark.parametrize("ring", [ZZ, QQ])
    def test_tau_refuses_a_vertex_that_is_not_good(self, ring):
        # RP2 has torsion in H_1; the circle with a point, put in degree 0,
        # has its homology in degree 1
        u = pair(POINT)
        for p, n in ((pair(RP2), 1), (CIRCLE_POINT, 0)):
            dia, rep = build_pairs_diagram(ring, {"x": (p, n), "u": (u, 0),
                                                  "xu": (product_pair(p, u), n)})
            ctx = PairsContext(dia, rep, {("x", "u"): "xu"})
            with pytest.raises(NotGoodPair, match="'x' is not a good pair"):
                kunneth_tau(ctx, "x", "u")

    @pytest.mark.parametrize("ring", [ZZ, QQ])
    def test_tau_refuses_a_doubled_ez(self, ring, monkeypatch):
        # 2 EZ is still a chain map, but AW o 2 EZ = 2 on the tensor complex,
        # so the EZ classes are twice the inverse of tau
        ez_matrixes = bialgebra.ez_matrixes

        def doubled(c1, c2, cp, tensor):
            _, aw = ez_matrixes(c1, c2, cp, tensor)
            return ChainMap(tensor, cp, lambda n, s: ((t, 2 * c) for t, c in _ez(n, s))), aw
        monkeypatch.setattr(bialgebra, "ez_matrixes", doubled)
        ctx = wedge_context(2, ring)[0]
        with pytest.raises(NotGoodPair, match="fail to invert"):
            kunneth_tau(ctx, "w", "w")


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
            good.v, good.w, good.vw, good.ring, good.columns,
            _nonzero_columns(good.inverse.scale(2)))
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

    @pytest.mark.parametrize("ring", [ZZ, QQ])
    def test_wedges(self, ring):
        # W_3 x W_3 (mu is 81 x 81) and W_2 x W_3, whose factors differ in rank
        for ctx, F, G, H in (wedge_context(3, ring), wedge_context(2, ring, 3)):
            mu = product_on_truncations(ctx, F, G, H)
            assert mu.matrix == dense_product_on_truncations(ctx, F, G, H)

    @pytest.mark.parametrize("ring", [ZZ, QQ])
    def test_bases_that_are_not_canonical(self, ring):
        # a unimodular change of the bases of End(T|P2) and End(T|P22H) whose
        # first two columns share a pivot: every solver takes the image basis
        # of _column_reduce, and mu is read in the new bases
        corpus = Corpus(default_corpus_text())
        ctx, P2 = corpus.subdiagram("P2", ring)
        P22H = corpus.subdiagram("P22H", ring)[1]
        for sub in (P2, P22H):
            E = ctx.end(sub)
            cols = [E.basis.col(k) for k in range(E.dim)]
            cols[0:2] = [tuple(x + y for x, y in zip(cols[0], cols[1])), cols[0]]
            assert with_basis(E, Matrix.from_columns(ring, cols, rows=E.basis.rows))._solver.T
        mu = product_on_truncations(ctx, P2, P2, P22H)
        assert mu.matrix == dense_product_on_truncations(ctx, P2, P2, P22H)

    @pytest.mark.parametrize("ring", [ZZ, QQ])
    def test_mu_multiplies_no_matrices(self, ring, monkeypatch):
        ctx, F, G, H = wedge_context(3, ring)
        for sub in (F, G, H):
            ctx.end(sub)
        ctx.tau("w", "w")
        calls = []
        mul = Matrix.__mul__

        def counted(self, other):
            calls.append((self.rows, self.cols, other.cols))
            return mul(self, other)
        monkeypatch.setattr(Matrix, "__mul__", counted)
        assert product_on_truncations(ctx, F, G, H).matrix.rows == 81
        assert calls == []
        Matrix.identity(ring, 1) * Matrix.identity(ring, 1)
        assert calls == [(1, 1, 1)]

    @pytest.mark.parametrize("ring", [ZZ, QQ])
    def test_maps_stay_sparse(self, ring, monkeypatch):
        # with the End algebras, their coalgebras and comodules and tau
        # warm, mu, its bialgebra check and a transition map build no
        # Matrix: each is kept as sparse columns, and .matrix is a view
        ctx, F, G, H = wedge_context(3, ring)
        fixture, tower = build_context(ring)
        for c, subs in ((ctx, (F, G, H)), (fixture, tower[1:])):
            for sub in subs:
                E = c.end(sub)
                for v in E.order:
                    E.comodule(v)
        ctx.tau("w", "w")
        built = []
        init = Matrix.__init__

        def counted(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append((self.rows, self.cols))
        monkeypatch.setattr(Matrix, "__init__", counted)
        mu = product_on_truncations(ctx, F, G, H)
        assert check_fragment_bialgebra(ctx, mu).ok
        t = transition_map(fixture.rep, fixture.end(tower[1]), fixture.end(tower[2]))
        assert built == []
        assert (mu.matrix.rows, t.matrix.cols) == (81, 2)
        assert built == [(81, 81), (3, 2)]

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
        tl = transition_map(ctx.rep, ctx.end(Hl), ctx.end(Hc))
        tr = transition_map(ctx.rep, ctx.end(Hr), ctx.end(Hc))
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


# -- the sparse tensor contractions against the dense Kronecker oracles -------

def perturbed(m, i, j, by):
    data = [list(row) for row in m.data]
    data[i][j] += by
    return Matrix(m.ring, data, m.rows, m.cols)


def checked_fragments(ring, monkeypatch):
    """(ctx, mu) for the fragments bialgebra_axiom_check builds on main_tower
    and sigma_tower, then for the self-product of W_2 (mu is 16 x 16)."""
    built = []
    product = bialgebra.product_on_truncations

    def recorded(ctx, F, G, H):
        built.append((ctx, product(ctx, F, G, H)))
        return built[-1][1]
    monkeypatch.setattr(bialgebra, "product_on_truncations", recorded)
    corpus = Corpus(default_corpus_text())
    for name in ("main_tower", "sigma_tower"):
        ctx, tower, unit = corpus.tower(name, ring)
        assert bialgebra_axiom_check(ctx, tower, unit_vertex=unit).ok
    monkeypatch.undo()
    ctx, F, G, H = wedge_context(2, ring)
    return built + [(ctx, product(ctx, F, G, H))]


class TestDenseOracles:
    @pytest.mark.parametrize("ring", [ZZ, QQ])
    def test_every_perturbed_mu_gets_the_dense_verdict(self, ring, monkeypatch):
        # mu is checked as a coalgebra morphism out of A_F (x) A_G; the dense
        # oracle builds (1 swap 1)(Delta_F (x) Delta_G) and mu (x) mu instead
        fragments = checked_fragments(ring, monkeypatch)
        assert len(fragments) == 6 and fragments[-1][1].matrix.cols == 16
        verdicts = set()
        for ctx, mu in fragments:
            coalgebras = [E.coalgebra() for E in (mu.EF, mu.EG, mu.EH)]
            assert dense_fragment_bialgebra(mu.matrix, *coalgebras) == (True, True)
            for i in range(mu.matrix.rows):
                for j in range(mu.matrix.cols):
                    for by in (1, Fraction(1, 3)) if ring == QQ else (1,):
                        bad = MuFragment(mu.EF, mu.EG, mu.EH,
                                         _nonzero_columns(perturbed(mu.matrix, i, j, by)))
                        cert = check_fragment_bialgebra(ctx, bad)
                        verdict = tuple(c["ok"] for c in cert.checks)
                        assert verdict == dense_fragment_bialgebra(bad.matrix, *coalgebras)
                        verdicts.add(verdict)
        assert {(False, True), (False, False)} <= verdicts

    @pytest.mark.parametrize("ring", [ZZ, QQ])
    def test_w3_fragment(self, ring):
        # mu is 81 x 81: the dense check built the 6561 x 6561 mu (x) mu
        ctx, F, G, H = wedge_context(3, ring)
        mu = product_on_truncations(ctx, F, G, H)
        assert mu.matrix.rows == mu.matrix.cols == 81
        cert = check_fragment_bialgebra(ctx, mu)
        assert cert.ok and [c["name"] for c in cert.checks] == ["delta-mu", "epsilon-mu"]

    @pytest.mark.parametrize("ring", [ZZ, QQ])
    def test_two_different_factors(self, ring):
        # W_2 x W_3: the tensor coalgebra's factors differ in rank, so the
        # order of Delta_F (x) Delta_G and of eps_F (x) eps_G shows
        ctx, F, G, H = wedge_context(2, ring, 3)
        mu = product_on_truncations(ctx, F, G, H)
        coalgebras = [E.coalgebra() for E in (mu.EF, mu.EG, mu.EH)]
        assert [E.dim for E in (mu.EF, mu.EG, mu.EH)] == [4, 9, 36]
        assert check_fragment_bialgebra(ctx, mu).ok
        assert dense_fragment_bialgebra(mu.matrix, *coalgebras) == (True, True)
        assert dense_fragment_bialgebra(mu.matrix, coalgebras[1], coalgebras[0],
                                        coalgebras[2]) == (False, False)

    @pytest.mark.parametrize("ring", [ZZ, QQ])
    def test_tensor_comodules(self, ring):
        corpus = Corpus(default_corpus_text())
        ctx, _ = corpus.subdiagram("F1", ring)
        sub = {name: corpus.subdiagram(name, ring)[1]
               for name in ("F0", "F1", "F2", "P2", "P22H")}
        # p2 (x) p2 over End(T|P2) = M_2, where the middle swap moves rows
        for F, G, H, v, w in (("P2", "P2", "P22H", "p2", "p2"), ("F1", "F1", "F2", "g", "g"),
                              ("F0", "F1", "F2", "u", "g")):
            mu = product_on_truncations(ctx, sub[F], sub[G], sub[H])
            m, n = ctx.end(sub[F]).comodule(v), ctx.end(sub[G]).comodule(w)
            assert tensor_comodules(m, n, mu).rho == dense_tensor_rho(m, n, mu)
        if ring == ZZ:
            _, z2 = corpus.comodule("com_z2", ring)
            mu = product_on_truncations(ctx, sub["F0"], sub["F0"], Subdiagram(ctx.diagram, ["uu"]))
            t = tensor_comodules(z2, z2, mu)
            assert t.gen_orders == (2,)
            assert t.rho == Comodule(t.coalgebra, (2,), dense_tensor_rho(z2, z2, mu)).rho

    @pytest.mark.parametrize("ring", [ZZ, QQ])
    def test_associativity(self, ring):
        ctx, tower = build_context(ring)
        F0, dia = tower[0], ctx.diagram
        Huu, Hl, Hr, Hc = (Subdiagram(dia, vs) for vs in
                           (["uu"], ["uuul"], ["uuur"], ["uuul", "uuur"]))
        mus = [product_on_truncations(ctx, F0, F0, Huu), product_on_truncations(ctx, Huu, F0, Hl),
               product_on_truncations(ctx, F0, F0, Huu), product_on_truncations(ctx, F0, Huu, Hr)]
        ts = [transition_map(ctx.rep, ctx.end(H), ctx.end(Hc)) for H in (Hl, Hr)]
        verdicts = []
        for k in range(-1, 4):      # honest, then each mu doubled
            args = [MuFragment(mu.EF, mu.EG, mu.EH,
                               _nonzero_columns(mu.matrix.scale(2 if i == k else 1)))
                    for i, mu in enumerate(mus)] + ts
            verdict = check_associativity(ctx, *args).ok
            assert verdict == dense_associativity(*args)
            verdicts.append(verdict)
        assert verdicts[0] and not all(verdicts)
        assert check_tau_associativity(ctx, "u", "u", "u")
        assert dense_tau_associativity(ctx, "u", "u", "u")
        fresh = PairsContext(ctx.diagram, ctx.rep, ctx.products, ctx.circle)
        good = fresh.tau("u", "uu")
        fresh._tau_cache["u", "uu"] = TauIso(
            good.v, good.w, good.vw, good.ring, _nonzero_columns(good.matrix.scale(2)),
            good.inverse_columns)
        assert not check_tau_associativity(fresh, "u", "u", "u")
        assert not dense_tau_associativity(fresh, "u", "u", "u")

    @pytest.mark.parametrize("ring", [ZZ, QQ])
    def test_sigma_step(self, ring):
        corpus = Corpus(default_corpus_text())
        ctx, tower, _ = corpus.tower("sigma_tower", ring)
        step, = sigma_directed_system(ctx, tower, 1).steps
        C = Subdiagram(ctx.diagram, [ctx.circle])
        mu = product_on_truncations(ctx, tower[0], C, tower[1])
        assert step == dense_sigma_step(mu, sigma_element(ctx, C).coords)


def test_no_dense_kron_in_the_package(monkeypatch):
    """Every tensor identity and construction contracts sparse columns;
    Matrix.kron stays only for the tests' dense oracles."""
    def refuse(self, other):
        raise AssertionError("Matrix.kron called")
    monkeypatch.setattr(Matrix, "kron", refuse)
    corpus = Corpus(default_corpus_text())
    for ring in (ZZ, QQ):
        ctx, tower, unit = corpus.tower("main_tower", ring)
        assert bialgebra_axiom_check(ctx, tower, unit_vertex=unit).ok
        ctx, tower, _ = corpus.tower("sigma_tower", ring)
        assert sigma_directed_system(ctx, tower, 1).steps
        F1, F2 = tower
        m = ctx.end(F1).comodule("g")
        mu = product_on_truncations(ctx, F1, F1, F2)
        assert check_comodule_axioms(tensor_comodules(m, m, mu)).ok
        fixture, _ = build_context(ring)
        assert check_tau_associativity(fixture, "u", "u", "u")
    _, z2 = corpus.comodule("com_z2", ZZ)
    assert torsionfree_cover(z2.coalgebra, z2).cover.module == FgModule(ZZ, 1)
    assert FgModule(ZZ, 1, (2,)).tensor(FgModule(ZZ, 1, (4,))) == FgModule(ZZ, 1, (2, 2, 4))


class PairsContextProxy:
    """Same context with another circle designation (tests only)."""

    def __init__(self, ctx, circle):
        self._ctx = ctx
        self.circle = circle

    def __getattr__(self, name):
        return getattr(self._ctx, name)
