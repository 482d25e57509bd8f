import pytest

from tannakit.errors import InvalidPair, NotACover, NotPairMap, NotSimplicial
from tannakit.linalg import QQ, ZZ, FgModule, Matrix
from tannakit.simplicial import (
    CechModel, SimplicialComplex, SimplicialMap, SimplicialPair,
    cech_total_complex, ez_aw_maps, ez_aw_relative, induced_map_on_homology,
    les_exactness, pair_homology, pair_les_maps, product_complex,
    product_pair, relative_chain_complex, relative_cup_product,
    relative_homology, tensor_complex, triple_boundary,
)

import spaces
from spaces import (
    CIRCLE3, CIRCLE6, CIRCLE_POINT, EDGE, EMPTY, KLEIN, MOBIUS,
    MOBIUS_BOUNDARY, PATH2, POINT, RP2, SPHERE2, TRIANGLE, cx, pair, sub,
)
from oracles import homology_groups


def modules_equal(mod, betti, torsion=()):
    return mod.free_rank == betti and mod.torsion == tuple(torsion)


class TestComplex:
    def test_face_closure(self):
        X = cx(("a", "b", "c"))
        assert X.n_simplices() == 7
        assert X.dim == 2

    def test_not_closed_rejected(self):
        # a triangle without its edges is not face-closed
        with pytest.raises(NotSimplicial):
            SimplicialComplex((), [("a", "b", "c")])
        # from_maximal closes it instead
        assert SimplicialComplex.from_maximal([("a", "b", "c")]).n_simplices() == 7

    def test_pair_validation(self):
        with pytest.raises(InvalidPair):
            SimplicialPair(EDGE, CIRCLE3)

    def test_boundary_squared(self):
        for X in (TRIANGLE, SPHERE2, RP2, KLEIN, MOBIUS):
            cc = relative_chain_complex(pair(X))
            for d in range(1, X.dim + 1):
                assert (cc.boundary(d - 1) * cc.boundary(d)).is_zero() or d == 1


class TestRelativeChains:
    def test_point(self):
        cc = relative_chain_complex(pair(POINT))
        assert cc.rank(0) == 1 and cc.top_degree == 0

    def test_edge_rel_ends(self):
        cc = relative_chain_complex(SimplicialPair(EDGE, spaces.EDGE_ENDS))
        assert cc.rank(0) == 0 and cc.rank(1) == 1
        assert cc.boundary(1).rows == 0

    def test_circle_rel_point_counts(self):
        cc = relative_chain_complex(CIRCLE_POINT)
        assert cc.rank(0) == 2 and cc.rank(1) == 3


class TestHomology:
    @pytest.mark.parametrize("name", sorted(spaces.GOLDEN))
    def test_golden(self, name):
        X, table = spaces.GOLDEN[name]
        for n, (betti, torsion) in table.items():
            mod = relative_homology(pair(X), n, ZZ)
            assert modules_equal(mod, betti, torsion), (name, n, mod)

    @pytest.mark.parametrize("name", sorted(spaces.GOLDEN))
    def test_golden_against_oracle(self, name):
        X, _ = spaces.GOLDEN[name]
        maximal = [s for s in X.all_simplices()
                   if not any(set(s) < set(t) for t in X.all_simplices())]
        oracle = homology_groups(maximal)
        for n, (betti, torsion) in oracle.items():
            mod = relative_homology(pair(X), n, ZZ)
            assert mod.free_rank == betti and list(mod.torsion) == list(torsion)

    def test_circle_with_point(self):
        assert relative_homology(CIRCLE_POINT, 1, ZZ) == FgModule(ZZ, 1)
        assert relative_homology(CIRCLE_POINT, 0, ZZ).is_zero()

    def test_identity_pair_vanishes(self):
        p = SimplicialPair(SPHERE2, SPHERE2)
        for n in range(0, 3):
            assert relative_homology(p, n, ZZ).is_zero()

    def test_rationals(self):
        assert relative_homology(pair(RP2), 1, QQ).is_zero()
        assert relative_homology(pair(KLEIN), 1, QQ) == FgModule(QQ, 1)

    def test_empty_complex(self):
        p = pair(EMPTY)
        for n in range(0, 3):
            assert relative_homology(p, n, ZZ).is_zero()

    def test_betti_rank_nullity(self):
        # classical betti numbers over Q agree with rank-nullity on the
        # boundary matrices
        from tannakit.linalg import rref
        for X in (CIRCLE3, SPHERE2, RP2, KLEIN, MOBIUS):
            cc = relative_chain_complex(pair(X), QQ)
            for n in range(0, X.dim + 1):
                rank_out = len(rref(cc.boundary(n))[1])
                rank_in = len(rref(cc.boundary(n + 1))[1])
                betti = cc.rank(n) - rank_out - rank_in
                assert relative_homology(pair(X), n, QQ).free_rank == betti


class TestInducedMaps:
    def test_identity(self):
        f = SimplicialMap.identity(CIRCLE3)
        m = induced_map_on_homology(f, pair(CIRCLE3), pair(CIRCLE3), 1)
        assert m.matrix == Matrix.identity(ZZ, 1)

    def test_collapse_circle(self):
        f = SimplicialMap(CIRCLE3, POINT, {"a": "a", "b": "a", "c": "a"})
        m = induced_map_on_homology(f, pair(CIRCLE3), pair(POINT), 1)
        assert m.target.is_zero()

    def test_degree_two_wrap(self):
        wrap = SimplicialMap(CIRCLE6, CIRCLE3,
                             {"p": "a", "q": "b", "r": "c",
                              "s": "a", "t": "b", "u": "c"})
        m = induced_map_on_homology(wrap, pair(CIRCLE6), pair(CIRCLE3), 1)
        assert abs(m.matrix[0, 0]) == 2

    def test_functoriality(self):
        wrap = SimplicialMap(CIRCLE6, CIRCLE3,
                             {"p": "a", "q": "b", "r": "c",
                              "s": "a", "t": "b", "u": "c"})
        collapse = SimplicialMap(CIRCLE3, POINT, {"a": "a", "b": "a", "c": "a"})
        comp = collapse.compose(wrap)
        m1 = induced_map_on_homology(comp, pair(CIRCLE6), pair(POINT), 0)
        m2 = induced_map_on_homology(collapse, pair(CIRCLE3), pair(POINT), 0).compose(
            induced_map_on_homology(wrap, pair(CIRCLE6), pair(CIRCLE3), 0))
        assert m1 == m2

    def test_pair_map_guard(self):
        f = SimplicialMap.identity(CIRCLE3)
        with pytest.raises(NotPairMap):
            induced_map_on_homology(f, CIRCLE_POINT, pair(CIRCLE3, sub(CIRCLE3, ("b",))), 1)


class TestTripleBoundary:
    def test_edge_triple_iso(self):
        X, Z = EDGE, spaces.EDGE_ENDS
        W = sub(Z, ("a",))
        m = triple_boundary(X, Z, W, 1)
        assert m.source == FgModule(ZZ, 1) and m.target == FgModule(ZZ, 1)
        assert abs(m.matrix[0, 0]) == 1

    def test_w_equals_z(self):
        m = triple_boundary(EDGE, spaces.EDGE_ENDS, spaces.EDGE_ENDS, 1)
        assert m.target.is_zero()

    def test_consecutive_compose_zero(self):
        # (X >= Z >= W) then (Z >= W >= V): composite must vanish
        X = TRIANGLE
        Z = sub(X, ("a", "b"), ("b", "c"), ("a", "c"))
        W = sub(X, ("a",), ("b",))
        V = sub(X, ("a",))
        d1 = triple_boundary(X, Z, W, 2)
        d2 = triple_boundary(Z, W, V, 1)
        assert d2.compose(d1).is_zero_map()

    def test_nesting_guard(self):
        from tannakit.errors import NotNested
        with pytest.raises(NotNested):
            triple_boundary(EDGE, CIRCLE3, EMPTY, 1)


class TestLes:
    @pytest.mark.parametrize("ring", [ZZ, QQ])
    def test_sphere_rel_point(self, ring):
        cert = les_exactness(pair(SPHERE2, sub(SPHERE2, ("a",))), ring)
        assert cert.ok

    def test_empty_sub(self):
        p = pair(CIRCLE3)
        cert = les_exactness(p, ZZ)
        assert cert.ok
        for n in range(0, 2):
            assert relative_homology(p, n, ZZ) == relative_homology(
                SimplicialPair(CIRCLE3, EMPTY), n, ZZ)

    def test_mobius_rel_boundary(self):
        p = SimplicialPair(MOBIUS, MOBIUS_BOUNDARY)
        cert = les_exactness(p, ZZ)
        assert cert.ok
        i1, _, _ = pair_les_maps(p, 1, ZZ)
        assert abs(i1.matrix[0, 0]) == 2  # boundary circle wraps twice

    def test_torsion_detected(self):
        p = pair(RP2, sub(RP2, ("r0",)))
        assert les_exactness(p, ZZ).ok
        assert les_exactness(p, QQ).ok

    @pytest.mark.parametrize("ring", [ZZ, QQ])
    def test_ranks_over_the_fraction_field(self, ring):
        # torsion generators (Z/2 in h_1 of RP^2) carry no rank: the image
        # coming in and the kernel going out agree at every node
        for p in (SimplicialPair(MOBIUS, MOBIUS_BOUNDARY),
                  SimplicialPair(product_complex(RP2, EDGE),
                                 product_complex(RP2, spaces.EDGE_ENDS))):
            for node in les_exactness(p, ring).nodes:
                assert node.rank_in == node.rank_ker >= 0, (node.degree, node.position)


class TestProducts:
    def test_point_unit(self):
        P = product_complex(POINT, CIRCLE3)
        assert P.dim == 1
        assert len(P.simplices(1)) == 3
        assert relative_homology(pair(P), 1, ZZ) == FgModule(ZZ, 1)

    def test_square_counts(self):
        P = product_complex(EDGE, EDGE)
        assert len(P.simplices(0)) == 4
        assert len(P.simplices(1)) == 5
        assert len(P.simplices(2)) == 2

    def test_torus(self):
        T = product_complex(CIRCLE3, CIRCLE3)
        assert len(T.simplices(0)) == 9
        assert len(T.simplices(1)) == 27
        assert len(T.simplices(2)) == 18
        assert relative_homology(pair(T), 1, QQ) == FgModule(QQ, 2)
        assert relative_homology(pair(T), 2, QQ) == FgModule(QQ, 1)
        assert relative_homology(pair(T), 1, ZZ) == FgModule(ZZ, 2)

    def test_product_pair_cross(self):
        pp = product_pair(CIRCLE_POINT, CIRCLE_POINT)
        # Z = {a} x S1  u  S1 x {a}: a wedge of two circles inside the torus
        assert relative_homology(pp, 2, ZZ) == FgModule(ZZ, 1)
        assert relative_homology(pp, 1, ZZ).is_zero()
        assert relative_homology(pp, 0, ZZ).is_zero()


class TestEzAw:
    def test_degree_zero(self):
        ez, aw, tensor, cxy = ez_aw_maps(POINT, POINT)
        assert ez.component(0) == Matrix.identity(ZZ, 1)

    def test_edge_edge_identity(self):
        ez, aw, tensor, cxy = ez_aw_maps(EDGE, EDGE)
        for n in range(0, 3):
            assert aw.component(n) * ez.component(n) == Matrix.identity(ZZ, tensor.rank(n))

    def test_circle_circle_kunneth_rank(self):
        ez, aw, tensor, cxy = ez_aw_maps(CIRCLE3, CIRCLE3)
        # both complexes compute the torus h_2 over Q
        left = tensor_complex(
            relative_chain_complex(pair(CIRCLE3), QQ),
            relative_chain_complex(pair(CIRCLE3), QQ))
        assert left.homology_module(2).free_rank == 1
        assert left.homology_module(1).free_rank == 2
        assert cxy.homology_module(2).free_rank == 1

    def test_relative_ez_aw(self):
        pp, ez, aw, tensor = ez_aw_relative(CIRCLE_POINT, CIRCLE_POINT)
        assert tensor.homology_module(2) == FgModule(ZZ, 1)
        assert pair_homology(pp, ZZ).module(2) == FgModule(ZZ, 1)

    def test_ez_aw_identity_on_homology(self):
        # EZ o AW is only chain homotopic to the identity, but induces it
        ez, aw, tensor, cxy = ez_aw_maps(CIRCLE3, CIRCLE3)
        for n in range(0, cxy.top_degree + 1):
            if cxy.rank(n) == 0:
                continue
            sq = cxy.homology(n)
            comp = ez.component(n) * aw.component(n)
            for j in range(sq.module.ngens):
                vec = sq.lift(j)
                coords = sq.class_of(comp.apply(vec))
                expected = tuple(1 if i == j else 0
                                 for i in range(sq.module.ngens))
                assert coords == expected


class TestCup:
    def test_unit_cochain(self):
        cp = relative_cup_product(CIRCLE3, EMPTY, EMPTY, 0, 0)
        ones0 = tuple(1 for _ in range(3))
        got = cp.cup_cochain(ones0, 0, ones0, 0)
        assert got == ones0

    def test_torus_perfect_pairing(self):
        T = product_complex(CIRCLE3, CIRCLE3)
        cp = relative_cup_product(T, EMPTY, EMPTY, 1, 1, QQ)
        assert cp.cohomology_module(1, 1).free_rank == 2
        assert cp.cohomology_module(12, 2).free_rank == 1
        m = cp.pairing_matrix()
        from tannakit.linalg import determinant
        assert determinant(m) != 0

    def test_torus_graded_commutativity(self):
        T = product_complex(CIRCLE3, CIRCLE3)
        cp = relative_cup_product(T, EMPTY, EMPTY, 1, 1, QQ)
        assert cp.graded_commutativity_defects() == []

    def test_associative_on_cochains(self):
        X = SPHERE2
        cp = relative_cup_product(X, EMPTY, EMPTY, 1, 1)
        c1 = relative_chain_complex(pair(X))
        # associativity (f u g) u h = f u (g u h) over all basis cochains
        import itertools
        basis0 = [tuple(1 if i == k else 0 for i in range(c1.rank(0)))
                  for k in range(c1.rank(0))]
        basis1 = [tuple(1 if i == k else 0 for i in range(c1.rank(1)))
                  for k in range(c1.rank(1))]
        for f, g in itertools.islice(itertools.product(basis1, basis0), 40):
            left = cp.cup_cochain(cp.cup_cochain(f, 1, g, 0), 1, basis1[0], 1)
            right = cp.cup_cochain(f, 1, cp.cup_cochain(g, 0, basis1[0], 1), 1)
            assert left == right

    def test_relative_target_basis(self):
        # cup of relative cochains lands on simplices in neither subcomplex
        X = CIRCLE3
        Z1 = sub(X, ("a",))
        Z2 = sub(X, ("b",))
        cp = relative_cup_product(X, Z1, Z2, 0, 1)
        assert cp.comparison_iso


class TestCech:
    def test_single_set_cover(self):
        model = cech_total_complex(CIRCLE3, [CIRCLE3])
        for n in range(0, 2):
            assert model.homology(n) == relative_homology(pair(CIRCLE3), n, ZZ)
        assert model.certificate()["ok"]

    def test_two_arc_circle(self):
        arc1 = sub(CIRCLE3, ("a", "b"), ("b", "c"))
        arc2 = sub(CIRCLE3, ("a", "c"))
        model = cech_total_complex(CIRCLE3, [arc1, arc2])
        assert model.homology(0) == FgModule(ZZ, 1)
        assert model.homology(1) == FgModule(ZZ, 1)
        assert model.certificate()["ok"]

    def test_divisor_triangle(self):
        X = TRIANGLE
        comps = [sub(X, ("a", "b")), sub(X, ("b", "c")), sub(X, ("a", "c"))]
        cover = [X, sub(X, ("b", "c"))]
        model = cech_total_complex(X, cover, comps)
        assert model.homology(2) == FgModule(ZZ, 1)
        assert model.homology(1).is_zero()
        assert model.homology(0).is_zero()
        assert model.certificate()["ok"]

    def test_not_a_cover(self):
        with pytest.raises(NotACover):
            cech_total_complex(CIRCLE3, [sub(CIRCLE3, ("a", "b"))])

    def test_sphere_two_hemispheres(self):
        north = sub(SPHERE2, ("a", "b", "c"), ("a", "b", "d"))
        south = sub(SPHERE2, ("a", "c", "d"), ("b", "c", "d"))
        model = cech_total_complex(SPHERE2, [north, south])
        assert model.certificate()["ok"]
