import pytest
from hypothesis import given, settings, strategies as st

from tannakit.errors import BudgetExceeded, InvalidFiltration, TorsionTerm
from tannakit.filtration import (
    Filtration, ModuleComplex, _tensor_module_complex, compare_filtration_homology,
    filtration_complex, find_very_good_refinement, is_very_good_pair,
    product_filtration, pushforward_filtration, very_good_report,
)
from tannakit.linalg import QQ, ZZ, FgModule, Matrix, ModuleMap
from tannakit.simplicial import (
    SimplicialComplex, SimplicialMap, SimplicialPair, product_complex,
    relative_homology,
)

import spaces
from oracles import tensor_complex_dense
from spaces import (
    CIRCLE3, EDGE, EDGE_ENDS, EMPTY, POINT, RP2, SPHERE2, TRIANGLE,
    WEDGE_TWO_CIRCLES, cx, pair, sub,
)


class TestVeryGood:
    def test_edge_rel_ends(self):
        ok, rep = is_very_good_pair(EDGE, EDGE_ENDS, 1)
        assert ok and rep.ok

    def test_identity_convention(self):
        ok, _ = is_very_good_pair(POINT, POINT, 2)
        assert ok
        ok, _ = is_very_good_pair(POINT, POINT, 0)
        assert not ok  # dim X = 0 is not < 0

    def test_rp2_not_very_good(self):
        ok, rep = is_very_good_pair(RP2, EMPTY, 2)
        assert not ok
        assert any("torsion" in r or "nonzero" in r for r in rep.reasons)

    def test_vacuous_concentration_rejected(self):
        # h(edge, one endpoint) vanishes identically: not very good
        ok, rep = is_very_good_pair(EDGE, sub(EDGE, ("a",)), 1)
        assert not ok
        assert any("vanishes" in r for r in rep.reasons)

    def test_dimension_clauses(self):
        ok, rep = is_very_good_pair(EDGE, EDGE_ENDS, 2)
        assert not ok  # dim X != n


class TestFiltrationComplex:
    def test_edge_standard(self):
        F = Filtration(EDGE, [EDGE_ENDS, EDGE])
        mc = filtration_complex(F)
        assert mc.term(1) == FgModule(ZZ, 1)
        assert mc.term(0) == FgModule(ZZ, 2)
        col = mc.differential(1).matrix.col(0)
        assert sorted(col) == [-1, 1]

    def test_zero_dim_top(self):
        X = spaces.TWO_POINTS
        F = Filtration(X, [X])
        mc = filtration_complex(F)
        assert mc.term(0) == FgModule(ZZ, 2)
        assert mc.top_degree == 0

    def test_circle_two_vertex_level(self):
        F0 = sub(CIRCLE3, ("a",), ("b",))
        F = Filtration(CIRCLE3, [F0, CIRCLE3])
        mc = filtration_complex(F)
        assert mc.term(1) == FgModule(ZZ, 2)
        assert mc.term(0) == FgModule(ZZ, 2)
        assert mc.homology(1) == FgModule(ZZ, 1)
        assert mc.homology(0) == FgModule(ZZ, 1)

    def test_terms_automatically_free(self):
        # dim F_i <= i makes each term a subgroup of a free chain group, so
        # no term has torsion on a valid filtration; torsion of the ambient
        # space reappears in the homology of the complex instead
        F = Filtration(RP2, [sub(RP2, ("r0",)), RP2.skeleton(1), RP2])
        mc = filtration_complex(F)
        for i in range(0, 3):
            assert mc.term(i).is_free()
        assert mc.homology(0) == FgModule(ZZ, 1)
        assert mc.homology(1) == FgModule(ZZ, 0, (2,))
        assert mc.homology(2) == FgModule(ZZ, 0)

    def test_validation(self):
        with pytest.raises(InvalidFiltration):
            Filtration(EDGE, [EDGE])  # dim F_0 = 1 > 0
        with pytest.raises(InvalidFiltration):
            Filtration(EDGE, [EDGE_ENDS])  # top != X


class TestComparison:
    def test_edge(self):
        F = Filtration(EDGE, [EDGE_ENDS, EDGE])
        cert = compare_filtration_homology(F)
        assert cert.ok and cert.advisory is None

    def test_point_trivial(self):
        F = Filtration(POINT, [POINT])
        assert compare_filtration_homology(F).ok

    def test_circle(self):
        F0 = sub(CIRCLE3, ("a",), ("b",))
        F = Filtration(CIRCLE3, [F0, CIRCLE3])
        cert = compare_filtration_homology(F)
        assert cert.ok

    def test_advisory_on_non_very_good(self):
        F = Filtration(CIRCLE3, [EMPTY, CIRCLE3])
        cert = compare_filtration_homology(F)
        assert cert.advisory is not None
        assert not cert.ok  # h_1 of the complex misses the circle class


class TestPushforward:
    def test_identity_padding(self):
        F = Filtration(EDGE, [EDGE_ENDS, EDGE])
        f = SimplicialMap.identity(EDGE)
        G, cmap = pushforward_filtration(f, F)
        assert G.levels == F.levels

    def test_collapse_to_point(self):
        F = Filtration(EDGE, [EDGE_ENDS, EDGE])
        f = SimplicialMap(EDGE, POINT, {"a": "a", "b": "a"})
        G, cmap = pushforward_filtration(f, F)
        assert G.levels == (POINT,)
        assert cmap.component(1).target.is_zero()

    def test_circle_into_disk(self):
        # cone over the 3-circle: a disk with boundary CIRCLE3
        disk = cx(("a", "b", "z"), ("b", "c", "z"), ("a", "c", "z"))
        F0 = sub(CIRCLE3, ("a",), ("b",))
        F = Filtration(CIRCLE3, [F0, CIRCLE3])
        inc = SimplicialMap(CIRCLE3, disk, {v: v for v in CIRCLE3.vertices})
        G, cmap = pushforward_filtration(inc, F)
        assert G.level(1) == CIRCLE3
        assert G.level(2) == disk
        # h_1(S^1) -> h_1(D^2) = 0 realized at the complex level
        src_h1 = cmap.source.homology(1)
        tgt_h1 = cmap.target.homology(1)
        assert src_h1 == FgModule(ZZ, 1)
        assert tgt_h1.is_zero()


class TestProductFiltration:
    def test_points(self):
        F = Filtration(POINT, [POINT])
        FG, tensor, kmap = product_filtration(F, F)
        assert FG.length == 0
        assert FG.X.dim == 0

    def test_square(self):
        F = Filtration(EDGE, [EDGE_ENDS, EDGE])
        FG, tensor, kmap = product_filtration(F, F)
        # (F x F)_1 = boundary cross: ends x edge  u  edge x ends
        lvl1 = FG.level(1)
        assert lvl1.dim == 1
        assert len(lvl1.simplices(1)) == 4
        assert FG.level(2) == product_complex(EDGE, EDGE)

    def test_circle_circle_kunneth_iso_over_q(self):
        F0 = sub(CIRCLE3, ("a",), ("b",))
        F = Filtration(CIRCLE3, [F0, CIRCLE3])
        FG, tensor, kmap = product_filtration(F, F, QQ)
        # total homology ranks agree degreewise
        for d in range(0, 3):
            a = tensor.homology(d)
            b = kmap.target.homology(d)
            assert a.free_rank == b.free_rank
        # and the Kunneth map is invertible on each term
        for d in range(0, 3):
            comp = kmap.component(d)
            if comp.source.is_zero():
                continue
            from tannakit.linalg import determinant
            assert comp.source.ngens == comp.target.ngens
            assert determinant(comp.matrix) != 0


def _plain(mc):
    """(ranks, differentials as lists of lists) of a free ModuleComplex."""
    ranks = {d: t.ngens for d, t in mc.terms.items() if t.ngens}
    diffs = {d: [list(row) for row in m.matrix.data] for d, m in mc.maps.items()}
    return ranks, diffs


def assert_matches_dense_oracle(tensor, a, b):
    ranks, diffs = tensor_complex_dense(*_plain(a), *_plain(b))
    assert {d: t for d, t in tensor.terms.items() if not t.is_zero()} == {
        d: FgModule.free(a.ring, n) for d, n in ranks.items()}
    for d in range(0, max(ranks, default=0) + 2):
        m = tensor.differential(d).matrix
        assert m.ring == a.ring
        assert [list(row) for row in m.data] == diffs.get(d, [[0] * m.cols] * m.rows)


def _scalars(ring):
    if ring == ZZ:
        return st.integers(-3, 3)
    return st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def free_module_complexes(draw, ring):
    """A random free complex in degrees 0..top, zero terms included: pieces
    k: e -> f (each generator in at most one piece), then base changes
    e_j -> e_j + c e_i, which act on the columns of d_n and the rows of
    d_(n+1) and keep d o d = 0."""
    ranks = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    scalar = _scalars(ring)
    mats = {d: [[0] * ranks[d] for _ in range(ranks[d - 1])] for d in range(1, len(ranks))}
    used = set()
    for d in mats:
        for j in range(ranks[d]):
            i = draw(st.integers(-1, ranks[d - 1] - 1))
            k = draw(scalar.filter(bool))
            if i >= 0 and (d, j) not in used and (d - 1, i) not in used:
                mats[d][i][j] = k
                used |= {(d, j), (d - 1, i)}
    moves = st.tuples(st.integers(0, len(ranks) - 1), st.integers(0, 2),
                      st.integers(0, 2), scalar)
    for d, i, j, c in draw(st.lists(moves, max_size=6)):
        if i == j or max(i, j) >= ranks[d]:
            continue
        if d + 1 in mats:
            mats[d + 1][i] = [x + c * y for x, y in zip(mats[d + 1][i], mats[d + 1][j])]
        if d in mats:
            for row in mats[d]:
                row[j] -= c * row[i]
    terms = {d: FgModule.free(ring, r) for d, r in enumerate(ranks)}
    return ModuleComplex(ring, terms, {
        d: ModuleMap(terms[d], terms[d - 1], Matrix(ring, m, ranks[d - 1], ranks[d]))
        for d, m in mats.items()})


class TestTensorModuleComplex:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from((ZZ, QQ)).flatmap(
        lambda ring: st.tuples(free_module_complexes(ring), free_module_complexes(ring))))
    def test_matches_dense_block_assembly(self, pair):
        assert_matches_dense_oracle(_tensor_module_complex(*pair), *pair)

    @pytest.mark.parametrize("ring", [ZZ, QQ])
    def test_product_filtration_tensor_matches_oracle(self, ring):
        F = Filtration(CIRCLE3, [sub(CIRCLE3, ("a",), ("b",)), CIRCLE3])
        G = Filtration(EDGE, [EDGE_ENDS, EDGE])
        for X, Y in ((F, F), (F, G), (G, F)):
            _, tensor, _ = product_filtration(X, Y, ring)
            assert_matches_dense_oracle(
                tensor, filtration_complex(X, ring), filtration_complex(Y, ring))

    def test_dd_checked_once_sparsely(self, monkeypatch):
        """tensor_complex checks d o d on sparse columns; the ModuleComplex
        built from it multiplies no dense differentials again."""
        composed = []
        real = ModuleMap.compose
        monkeypatch.setattr(ModuleMap, "compose",
                            lambda self, other: composed.append(1) or real(self, other))
        F = Filtration(CIRCLE3, [sub(CIRCLE3, ("a",), ("b",)), CIRCLE3])
        a = filtration_complex(F, ZZ)
        composed.clear()
        _tensor_module_complex(a, a)
        assert composed == []

    def test_non_complex_is_rejected(self):
        terms = {d: FgModule.free(ZZ, 1) for d in range(3)}
        one = Matrix(ZZ, [[1]])
        mc = ModuleComplex(ZZ, terms, {1: ModuleMap(terms[1], terms[0], one)})
        mc.maps[2] = ModuleMap(terms[2], terms[1], one)     # now d_1 d_2 != 0
        free = ModuleComplex(ZZ, {0: FgModule.free(ZZ, 2)}, {})
        for a, b in ((mc, free), (free, mc)):
            with pytest.raises(AssertionError, match="d o d != 0"):
                _tensor_module_complex(a, b)

    def test_torsion_term_is_rejected(self):
        torsion = ModuleComplex(ZZ, {0: FgModule(ZZ, 1), 1: FgModule(ZZ, 0, (2,))}, {})
        free = ModuleComplex(ZZ, {0: FgModule.free(ZZ, 2)}, {})
        for a, b in ((torsion, free), (free, torsion)):
            with pytest.raises(TorsionTerm, match="degree 1 is Z/2"):
                _tensor_module_complex(a, b)


class TestSearch:
    def test_edge_finds_both_endpoints(self):
        F = Filtration(EDGE, [EMPTY, EDGE])
        G, report = find_very_good_refinement(EDGE, F)
        assert G is not None
        assert G.level(0) == EDGE_ENDS

    def test_already_very_good(self):
        F = Filtration(EDGE, [EDGE_ENDS, EDGE])
        G, report = find_very_good_refinement(EDGE, F)
        assert G == F and report.reason == "already very good"

    def test_circle_search(self):
        F = Filtration(CIRCLE3, [EMPTY, CIRCLE3])
        G, report = find_very_good_refinement(CIRCLE3, F)
        assert G is not None
        assert very_good_report(G).ok
        assert compare_filtration_homology(G).ok
        # canonical order: the single vertex "a" already gives a very good
        # pair (h_1 = Z, h_0 = 0), so the search settles on it
        assert G.level(0) == sub(CIRCLE3, ("a",))

    def test_triangle_search(self):
        F = Filtration(TRIANGLE, [EMPTY, EMPTY, TRIANGLE])
        G, report = find_very_good_refinement(TRIANGLE, F)
        assert G is not None
        assert very_good_report(G).ok
        assert compare_filtration_homology(G).ok

    def test_budget(self):
        F = Filtration(SPHERE2, [EMPTY, EMPTY, SPHERE2])
        with pytest.raises(BudgetExceeded):
            find_very_good_refinement(SPHERE2, F, budget=2)

    def test_respects_base_levels(self):
        base = sub(CIRCLE3, ("c",))
        F = Filtration(CIRCLE3, [base, CIRCLE3])
        G, _ = find_very_good_refinement(CIRCLE3, F)
        assert G is not None
        assert base.is_subcomplex_of(G.level(0))

    def test_wedge(self):
        F = Filtration(WEDGE_TWO_CIRCLES, [EMPTY, WEDGE_TWO_CIRCLES])
        G, _ = find_very_good_refinement(WEDGE_TWO_CIRCLES, F)
        assert G is not None
        assert compare_filtration_homology(G).ok

    def test_sphere(self):
        F = Filtration(SPHERE2, [EMPTY, EMPTY, SPHERE2])
        G, _ = find_very_good_refinement(SPHERE2, F, budget=100000)
        assert G is not None
        assert very_good_report(G).ok
        assert compare_filtration_homology(G).ok
