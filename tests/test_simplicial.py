import pytest
from hypothesis import given, settings, strategies as st

from tannakit import les, linalg, maps, smith
from tannakit.cech import CechModel, cech_total_complex
from tannakit.cochains import relative_cup_product
from tannakit.errors import (
    CompositionNonzero, InvalidPair, NotACover, NotPairMap, NotSimplicial,
)
from tannakit.kunneth import ez_aw_maps, ez_aw_relative, tensor_complex
from tannakit.les import les_exactness
from tannakit.linalg import QQ, ZZ, FgModule
from tannakit.maps import (
    ChainMap, ModuleMap, elementary_divisors, induced_map_on_homology, triple_boundary,
)
from tannakit.matrix import Matrix
from tannakit.reduction import Reduction, reduction
from tannakit.simplicial import (
    ChainComplex, SimplicialComplex, SimplicialPair, pair_homology, product_complex, product_pair,
    relative_chain_complex, relative_homology,
)
from tannakit.structures import SimplicialMap

import spaces
from spaces import (
    CIRCLE3, CIRCLE6, CIRCLE_POINT, EDGE, EMPTY, KLEIN, MOBIUS,
    MOBIUS_BOUNDARY, PATH2, POINT, RP2, SPHERE2, TRIANGLE, cx, pair, sub,
)
from sparse_helpers import cols, vec
from oracles import (
    boundary_matrices, face_closure, homology_groups, pairwise_maximal, staircase_product,
)


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


class TestChainFormat:
    def test_face_rule_with_nonzero_square_is_rejected(self):
        below = {1: "v", 2: "e"}
        with pytest.raises(AssertionError, match="d o d != 0 at degree 2"):
            ChainComplex(ZZ, {0: ("v",), 1: ("e",), 2: ("t",)},
                         lambda d, label: ((below[d], 1),))

    def test_faces_outside_the_basis_are_dropped(self):
        # the edge's faces a, b, c and a zero sum on b: only a survives
        cc = ChainComplex(ZZ, {0: ("a", "b"), 1: ("e",)},
                          lambda d, label: (("a", 2), ("b", 1), ("c", 5), ("b", -1)))
        assert cc.boundary(1) == Matrix(ZZ, [[2], [0]])
        assert list(cc.faces(1, "e")) == [("a", 2)]

    def test_non_commuting_map_is_rejected(self):
        cc = relative_chain_complex(pair(EDGE))
        with pytest.raises(AssertionError, match="fails to commute at degree 1"):
            ChainMap(cc, cc, lambda d, s: ((s, 1),) if d else ())

    def test_identity_map(self):
        cc = relative_chain_complex(pair(TRIANGLE), QQ)
        ident = ChainMap(cc, cc, lambda d, s: ((s, 1),))
        for n in cc.degrees:
            assert ident.component(n) == Matrix.identity(QQ, cc.rank(n))
        assert ident.apply(1, vec((1, 0, 2))) == vec((1, 0, 2))


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
        from tannakit.forms import rref
        for X in (CIRCLE3, SPHERE2, RP2, KLEIN, MOBIUS):
            cc = relative_chain_complex(pair(X), QQ)
            for n in range(0, X.dim + 1):
                rank_out = len(rref(cc.boundary(n))[1])
                rank_in = len(rref(cc.boundary(n + 1))[1])
                betti = cc.rank(n) - rank_out - rank_in
                assert relative_homology(pair(X), n, QQ).free_rank == betti


@st.composite
def random_pairs(draw):
    """(maximal simplices of X, of Z) on at most six vertices: X of dimension
    at most 3, Z generated by a few of X's simplices (often none)."""
    verts = ["v%d" % i for i in range(6)]
    simplex = st.lists(st.sampled_from(verts), min_size=1, max_size=4, unique=True)
    maximal = draw(st.lists(simplex, min_size=1, max_size=7))
    X = cx(*maximal)
    faces = sorted(X.all_simplices())
    zmax = draw(st.lists(st.sampled_from(faces), max_size=3))
    return maximal, zmax


@st.composite
def small_complexes(draw):
    """A complex on at most four vertices, of dimension at most 2."""
    simplex = st.lists(st.sampled_from(["w%d" % i for i in range(4)]),
                       min_size=1, max_size=3, unique=True)
    return cx(*draw(st.lists(simplex, min_size=1, max_size=4)))


def assert_same_complex(built, simplices):
    """built equals the validating constructor's complex on simplices, down
    to the vertex order, every dimension's simplex tuple and the hash."""
    checked = SimplicialComplex((), simplices)
    assert built == checked
    assert built.vertices == checked.vertices
    for d in range(-1, checked.dim + 2):
        assert built.simplices(d) == checked.simplices(d)
    assert hash(built) == hash(checked)


class TestClosedConstructors:
    """from_maximal, union, intersection, skeleton, images and products pass
    SimplicialComplex._closed sets they know to be closed under faces; each
    must build exactly the complex the validating constructor builds."""

    @settings(max_examples=60, deadline=None)
    @given(random_pairs(), random_pairs(), st.integers(-1, 3), st.data())
    def test_set_operations_and_images(self, a, b, k, data):
        (xmax, _), (ymax, _) = a, b
        xs, ys = face_closure(xmax), face_closure(ymax)
        X, Y = SimplicialComplex.from_maximal(xmax), SimplicialComplex.from_maximal(ymax)
        assert_same_complex(X, xs)
        assert_same_complex(X.union(Y), xs | ys)
        assert_same_complex(X.intersection(Y), xs & ys)
        assert_same_complex(X.skeleton(k), {s for s in xs if len(s) - 1 <= k})
        targets = ["w%d" % i for i in range(3)]
        f = SimplicialMap(X, SimplicialComplex.from_maximal([targets]),
                          {v: data.draw(st.sampled_from(targets)) for v in X.vertices})
        assert_same_complex(f.image(), {tuple(sorted({f(v) for v in s})) for s in xs})

    @settings(max_examples=25, deadline=None)
    @given(small_complexes(), small_complexes())
    def test_product_against_pairwise_maximal_oracle(self, X, Y):
        maxx = pairwise_maximal(X.all_simplices())
        maxy = pairwise_maximal(Y.all_simplices())
        assert_same_complex(product_complex(X, Y), staircase_product(maxx, maxy))

    @settings(max_examples=40, deadline=None)
    @given(random_pairs(), st.data())
    def test_dropping_a_face_is_still_rejected(self, a, data):
        xs = face_closure(a[0])
        maximal = set(pairwise_maximal(xs))
        inner = sorted(s for s in xs if len(s) > 1 and s not in maximal)
        if inner:
            dropped = data.draw(st.sampled_from(inner))
            with pytest.raises(NotSimplicial):
                SimplicialComplex((), xs - {dropped})


class TestHomologyProperties:
    @settings(max_examples=80, deadline=None)
    @given(random_pairs())
    def test_pairs_against_oracle(self, data):
        maximal, zmax = data
        X = cx(*maximal)
        p = SimplicialPair(X, cx(*zmax) if zmax else EMPTY)
        hz, hq = relative_chain_complex(p, ZZ), relative_chain_complex(p, QQ)
        oracle = homology_groups(maximal, relative_to=zmax)
        euler_chains = euler_ranks = 0
        for n in range(0, X.dim + 1):
            betti, torsion = oracle[n]
            assert hz.homology_module(n) == FgModule(ZZ, betti, torsion)
            assert hq.homology_module(n) == FgModule(QQ, betti)
            euler_chains += (-1) ** n * hz.rank(n)
            euler_ranks += (-1) ** n * hq.homology_module(n).free_rank
        assert euler_chains == euler_ranks

    @settings(max_examples=40, deadline=None)
    @given(random_pairs())
    def test_lazy_basis_reproduces_module(self, data):
        maximal, zmax = data
        X = cx(*maximal)
        p = SimplicialPair(X, cx(*zmax) if zmax else EMPTY)
        for ring in (ZZ, QQ):
            cc = relative_chain_complex(p, ring)
            for n in range(0, X.dim + 1):
                sq = cc.homology(n)
                # forcing class_of builds the cycle basis and asserts its
                # module equals the one from elementary divisors
                assert sq.class_of(vec((0,) * cc.rank(n))) == vec((0,) * sq.module.ngens)
                eager = maps.subquotient(
                    ModuleMap(FgModule.free(ring, cc.rank(n + 1)),
                              FgModule.free(ring, cc.rank(n)), cc.boundary(n + 1)),
                    ModuleMap(FgModule.free(ring, cc.rank(n)),
                              FgModule.free(ring, cc.rank(n - 1)), cc.boundary(n)))
                assert sq.module == eager.module
                for j in range(sq.module.ngens):
                    assert sq.lift(j) == eager.lift(j)
                    assert sq.class_of(eager.lift(j)) == eager.class_of(eager.lift(j))


    @settings(max_examples=40, deadline=None)
    @given(random_pairs())
    def test_boundaries_against_oracle(self, data):
        """Each relative boundary is the oracle's alternating-face matrix of
        X with the rows and columns of Z's simplices removed."""
        maximal, zmax = data
        X = cx(*maximal)
        zset = (cx(*zmax) if zmax else EMPTY).all_simplices()
        by_dim, mats = boundary_matrices(maximal)
        keep = {d: [i for i, s in enumerate(ls) if s not in zset]
                for d, ls in by_dim.items()}
        for ring in (ZZ, QQ):
            cc = relative_chain_complex(SimplicialPair(X, cx(*zmax) if zmax else EMPTY), ring)
            for d in range(0, X.dim + 2):
                rows, cols = keep.get(d - 1, []), keep.get(d, [])
                assert cc.labels(d) == tuple(by_dim[d][j] for j in cols)
                full = mats.get(d)
                expected = [[full[i][j] for j in cols] for i in rows]
                assert cc.boundary(d) == Matrix(ring, expected, len(rows), len(cols))

    @settings(max_examples=25, deadline=None)
    @given(random_pairs(), st.sampled_from((ZZ, QQ)))
    def test_les_exact(self, data, ring):
        maximal, zmax = data
        p = SimplicialPair(cx(*maximal), cx(*zmax) if zmax else EMPTY)
        assert les_exactness(p, ring).ok


def random_pair(data):
    maximal, zmax = data
    return SimplicialPair(cx(*maximal), cx(*zmax) if zmax else EMPTY)


class TestReduction:
    @settings(max_examples=60, deadline=None)
    @given(random_pairs(), st.sampled_from((ZZ, QQ)))
    def test_identities_and_residual_homology(self, data, ring):
        """f g = id, g f = id - (dh + hd) and the chain-map squares, as dense
        products of the reduction's own columns; the residual homology is
        the oracle's."""
        p = random_pair(data)
        c = relative_chain_complex(p, ring)
        red = Reduction(c)
        assert isinstance(red.residual, ChainComplex)
        top = max(c.top_degree, p.X.dim)
        rank = {n: c.rank(n) for n in range(-1, top + 3)}
        res = {n: red.residual.rank(n) for n in rank}

        def F(n):
            return Matrix.from_sparse(ring, red.f.get(n, [{}] * rank[n]), res[n])

        def G(n):
            return Matrix.from_sparse(ring, red.g.get(n, [{}] * res[n]), rank[n])

        def H(n):
            return Matrix.from_sparse(ring, red.h.get(n, [{}] * rank[n]), rank[n + 1])

        def R(n):
            return Matrix.from_sparse(ring, red.residual.columns(n), res[n - 1])

        for n in range(0, c.top_degree + 2):
            D, D_up = c.boundary(n), c.boundary(n + 1)
            assert F(n) * G(n) == Matrix.identity(ring, res[n])
            assert G(n) * F(n) == Matrix.identity(ring, rank[n]) - D_up * H(n) - H(n - 1) * D
            assert R(n) * F(n) == F(n - 1) * D
            assert D * G(n) == G(n - 1) * R(n)
        oracle = homology_groups(data[0], relative_to=data[1])
        for n in range(0, p.X.dim + 1):
            betti, torsion = oracle[n]
            expected = FgModule(ring, betti, torsion if ring == ZZ else ())
            free = {k: FgModule.free(ring, res[k]) for k in (n - 1, n, n + 1)}
            residual = maps.subquotient(ModuleMap(free[n + 1], free[n], R(n + 1)),
                                        ModuleMap(free[n], free[n - 1], R(n)))
            assert residual.module == expected
            assert red.residual.homology_module(n) == expected

    @pytest.mark.parametrize("which", ["f", "g", "h"])
    def test_corrupted_entry_trips_the_identity_check(self, which):
        red = Reduction(relative_chain_complex(pair(KLEIN), ZZ))
        red.check()
        cols = getattr(red, which)
        n, k = next((n, k) for n in sorted(cols) for k, col in enumerate(cols[n]) if col)
        i = next(iter(cols[n][k]))
        cols[n][k][i] += 1
        with pytest.raises(AssertionError, match="reduction"):
            red.check()

    def test_reduction_is_kept_on_the_complex(self, monkeypatch):
        monkeypatch.setattr("tannakit.simplicial._PAIR_CACHE", {})
        p = pair(KLEIN, sub(KLEIN, ("k00",)))
        les_exactness(p, ZZ)
        red = pair_homology(p, ZZ)._reduction
        assert isinstance(red, Reduction)
        les_exactness(p, ZZ)
        assert pair_homology(p, ZZ)._reduction is red


def hermite_les_nodes(p, ring):
    """The oracle of TestLesAgainstHermite: the as_dict() nodes of
    les_exactness(p, ring), read through the module maps i_*, j_* and the
    boundary that induced_map_on_homology and triple_boundary build in the
    Hermite cycle bases.  The defect at a node is maps.subquotient(d_in,
    d_out).module (a Smith form with transforms), and the ranks are those of
    the maps' free parts over Q.  It is kept out of tests/oracles.py, which
    the benchmark process loads before it forks every job, so that file's
    size shows in every workload's peak_rss_mb."""
    X, Z, N = p.X, p.Z, p.X.dim
    inc = SimplicialMap(Z, X, {v: v for v in Z.vertices})
    ident = SimplicialMap.identity(X)
    hmaps = {n: (induced_map_on_homology(inc, SimplicialPair(Z), SimplicialPair(X), n, ring),
                 induced_map_on_homology(ident, SimplicialPair(X), p, n, ring),
                 triple_boundary(X, Z, EMPTY, n, ring))
             for n in range(0, N + 2)}

    def rank(mm):
        m = mm.matrix.take_rows(range(len(mm.target.torsion), mm.target.ngens))
        m = m.take_cols(range(len(mm.source.torsion), mm.source.ngens))
        return len(elementary_divisors(QQ, cols(m.to_ring(QQ))))

    def node(n, position, d_in, d_out):
        try:
            defect = maps.subquotient(d_in, d_out).module
            ok, defect = defect.is_zero(), defect.describe()
        except CompositionNonzero:
            ok, defect = False, "composition nonzero"
        return {"degree": n, "position": position, "ok": ok, "rank_image_in": rank(d_in),
                "rank_kernel_out": d_out.source.free_rank - rank(d_out), "defect": defect}

    nodes = []
    for n in range(N + 1, -1, -1):
        i_n, j_n, b_n = hmaps[n]
        if n <= N:
            nodes.append(node(n, "h(Z)", hmaps[n + 1][2], i_n))
        nodes.append(node(n, "h(X)", i_n, j_n))
        nodes.append(node(n, "h(X,Z)", j_n, b_n))
    return nodes


def certified_nodes(p, ring):
    return [n.as_dict() for n in les_exactness(p, ring).nodes]


def bundled_pairs():
    from tannakit.cli import default_corpus_text
    from tannakit.corpus import Corpus
    return Corpus(default_corpus_text()).pairs


RP2E_REL = SimplicialPair(product_complex(RP2, EDGE), product_complex(RP2, spaces.EDGE_ENDS))
SMALL = {"rp2": RP2, "klein": KLEIN, "mobius": MOBIUS}
SMALL.update({name + "*edge": product_complex(X, EDGE) for name, X in list(SMALL.items())})


@st.composite
def subcomplex_pairs(draw):
    """(X, Z) for a small space X (rp2, klein, mobius or one of them times an
    edge) and the subcomplex Z generated by a few of its simplices."""
    X = SMALL[draw(st.sampled_from(sorted(SMALL)))]
    gens = draw(st.lists(st.sampled_from(sorted(X.all_simplices())), max_size=6))
    return SimplicialPair(X, SimplicialComplex.from_maximal(gens))


class TestLesAgainstHermite:
    """les_exactness node for node against hermite_les_nodes, which reads
    the same sequence through the Hermite-basis module maps."""

    @settings(max_examples=40, deadline=None)
    @given(random_pairs(), st.sampled_from((ZZ, QQ)))
    def test_random_pairs(self, data, ring):
        p = random_pair(data)
        assert certified_nodes(p, ring) == hermite_les_nodes(p, ring)

    @settings(max_examples=40, deadline=None)
    @given(subcomplex_pairs(), st.sampled_from((ZZ, QQ)))
    def test_random_subcomplexes(self, p, ring):
        assert certified_nodes(p, ring) == hermite_les_nodes(p, ring)

    @pytest.mark.parametrize("name", sorted(bundled_pairs()))
    def test_bundled_pairs(self, name):
        p = bundled_pairs()[name]
        for ring in (ZZ, QQ):
            assert certified_nodes(p, ring) == hermite_les_nodes(p, ring)

    @pytest.mark.parametrize("name", sorted(spaces.GOLDEN))
    def test_golden_spaces_rel_vertex_empty_and_self(self, name):
        X, _ = spaces.GOLDEN[name]
        for Z in (sub(X, (X.vertices[0],)), EMPTY, X):
            for ring in (ZZ, QQ):
                assert certified_nodes(pair(X, Z), ring) == hermite_les_nodes(pair(X, Z), ring)

    @pytest.mark.parametrize("ring", [ZZ, QQ])
    def test_rp2_edge_rel_ends(self, ring):
        assert certified_nodes(RP2E_REL, ring) == hermite_les_nodes(RP2E_REL, ring)


class TestLesCanFail:
    def test_doubled_connecting_map(self, monkeypatch):
        """The connecting map doubled at chain level has index-2 images: over
        Z the defect Z/2 shows at h_2(X,Z), h_1(Z) and h_0(Z), over Q
        nothing changes."""
        real = les.les_maps

        def doubled(*args):
            i, j, (src, tgt, shift, cols) = real(*args)
            cols = {d: [{r: 2 * x for r, x in col.items()} for col in c]
                    for d, c in cols.items()}
            return i, j, (src, tgt, shift, cols)
        monkeypatch.setattr(les, "les_maps", doubled)
        cert = les_exactness(RP2E_REL, ZZ)
        assert not cert.ok
        assert {(n.degree, n.position): n.defect for n in cert.nodes if not n.ok} == {
            (2, "h(X,Z)"): "Z/2", (1, "h(Z)"): "Z/2", (0, "h(Z)"): "Z/2"}
        assert les_exactness(RP2E_REL, QQ).ok

    @pytest.mark.parametrize("ring", [ZZ, QQ])
    def test_composite_not_null_in_homology(self, ring):
        """phi = psi = the identity of a circle's residual complex: psi phi
        is the identity of h_1 and of h_0, so no node there is a complex."""
        R = reduction(relative_chain_complex(pair(CIRCLE3), ring)).residual
        ident = (R, R, 0, {d: [{k: 1} for k in range(R.rank(d))] for d in range(0, 3)})
        for n in (0, 1):
            node = les._node(n, "h(X)", ident, ident, ring)
            assert node.as_dict() == {"degree": n, "position": "h(X)", "ok": False,
                                      "rank_image_in": 1, "rank_kernel_out": 0,
                                      "defect": "composition nonzero"}

    def test_phi_that_is_no_chain_map(self):
        """phi takes the 2-cycle of the sphere's residual to RP^2's 2-cell,
        whose boundary is twice its 1-cell, and psi is zero: every cycle
        lifts, but (phi a, 0) lies outside the kernel of alpha."""
        S, P = (reduction(relative_chain_complex(pair(X), ZZ)).residual for X in (SPHERE2, RP2))
        assert (S.rank(2), P.rank(2), P.columns(2)) == (1, 1, [{0: 2}])
        phi = (S, P, 0, {2: [{0: 1}]})
        psi = (P, P, 0, {d: [{}] * P.rank(d) for d in (2, 3)})
        node = les._node(2, "h(X)", phi, psi, ZZ)
        assert (node.ok, node.defect) == (False, "composition nonzero")


class TestLaziness:
    @pytest.mark.parametrize("name", sorted(spaces.GOLDEN))
    def test_homology_builds_no_cycle_basis(self, name, monkeypatch):
        """The homology table reads only elementary divisors: no column
        reduction, and Smith forms only of residuals without unit entries."""
        from tannakit.cli import homology_table
        reduced, residuals = [], []
        real_snf = smith.smith_normal_form
        # a Z kernel or image basis goes through _reduced_columns
        monkeypatch.setattr(linalg, "_reduced_columns", lambda *a: reduced.append(a))
        monkeypatch.setattr(maps, "_reduced_columns", lambda *a: reduced.append(a))
        monkeypatch.setattr(smith, "_column_reduce", lambda A: reduced.append(A))
        monkeypatch.setattr(smith, "smith_normal_form",
                            lambda A: residuals.append(A) or real_snf(A))
        monkeypatch.setattr("tannakit.simplicial._PAIR_CACHE", {})
        X, table = spaces.GOLDEN[name]
        got = homology_table(pair(X), ZZ)
        assert got == {"n=%d" % n: FgModule(ZZ, b, t).describe()
                       for n, (b, t) in table.items()}
        assert reduced == []
        for A in residuals:
            assert A.rows and A.cols
            assert all(abs(x) != 1 for row in A.data for x in row)

    def test_corrupted_divisors_trip_the_lazy_check(self, monkeypatch):
        real = linalg._sparse_divisors
        monkeypatch.setattr("tannakit.simplicial._sparse_divisors",
                            lambda cols, ring: real(cols, ring) + (2,) if cols else ())
        cc = relative_chain_complex(pair(CIRCLE3), ZZ)
        assert cc.homology_module(1) != FgModule(ZZ, 1)
        with pytest.raises(AssertionError, match="elementary divisors"):
            cc.homology(1).class_of(vec((0, 0, 0)))


    @pytest.mark.parametrize("name", sorted(spaces.GOLDEN))
    def test_modules_need_no_dense_boundary(self, name, monkeypatch):
        def refuse(self, d):
            raise AssertionError("dense boundary %d built" % d)
        monkeypatch.setattr(ChainComplex, "boundary", refuse)
        monkeypatch.setattr("tannakit.simplicial._PAIR_CACHE", {})
        X, table = spaces.GOLDEN[name]
        for n, (betti, torsion) in table.items():
            assert relative_homology(pair(X), n, ZZ) == FgModule(ZZ, betti, torsion)
            assert relative_homology(pair(X), n, QQ) == FgModule(QQ, betti)

    @pytest.mark.parametrize("name", sorted(spaces.GOLDEN))
    def test_les_builds_no_cycle_basis(self, name, monkeypatch):
        """les reads every node off the reductions' residual complexes: no
        dense boundary and no Smith form."""
        def refuse(self, d):
            raise AssertionError("dense boundary %d built" % d)
        residuals = []
        real_snf = smith.smith_normal_form
        monkeypatch.setattr(ChainComplex, "boundary", refuse)
        monkeypatch.setattr(smith, "smith_normal_form",
                            lambda A: residuals.append(A) or real_snf(A))
        monkeypatch.setattr("tannakit.simplicial._PAIR_CACHE", {})
        X, _ = spaces.GOLDEN[name]
        p = pair(X, sub(X, (X.vertices[0],)))
        for ring in (ZZ, QQ):
            assert les_exactness(p, ring).ok
        assert residuals == []

    def test_les_eliminates_full_differentials_once(self, monkeypatch):
        """les reads every node off the reductions' residual complexes:
        after the reduction itself, every _sparse_divisors input is
        residual-sized (at most the cells of two residual degrees, as in
        R_B,n + R_C,k+1), never a full boundary."""
        sizes = []
        real = linalg._sparse_divisors

        def counted(rows, ring):
            rows = list(rows)
            sizes.append(len(rows))
            return real(rows, ring)
        for module in ("linalg", "simplicial", "les"):
            monkeypatch.setattr("tannakit.%s._sparse_divisors" % module, counted)
        monkeypatch.setattr("tannakit.simplicial._PAIR_CACHE", {})
        p = pair(KLEIN, sub(KLEIN, ("k00",)))
        for ring in (ZZ, QQ):
            sizes.clear()
            assert les_exactness(p, ring).ok
            complexes = [pair_homology(q, ring)
                         for q in (SimplicialPair(p.Z), SimplicialPair(p.X), p)]
            residual = max(c._reduction.residual.rank(n) for c in complexes for n in c.degrees)
            assert sizes and max(sizes) <= 2 * residual < complexes[1].rank(1)
            assert all(c._divisors == {} for c in complexes)

    def test_homology_builds_no_reduction(self, monkeypatch):
        from tannakit.cli import homology_table
        monkeypatch.setattr("tannakit.simplicial._PAIR_CACHE", {})
        p = pair(KLEIN, sub(KLEIN, ("k00",)))
        for ring in (ZZ, QQ):
            homology_table(p, ring)
            assert pair_homology(p, ring)._reduction is None

    @pytest.mark.parametrize("name", sorted(spaces.GOLDEN))
    def test_dd_checked_once_per_adjacent_pair(self, name, monkeypatch):
        calls = []
        real = linalg._composes_to_zero

        def counted(outer, inner):
            calls.append(1)
            return real(outer, inner)
        monkeypatch.setattr(linalg, "_composes_to_zero", counted)
        monkeypatch.setattr("tannakit.simplicial._composes_to_zero", counted)
        monkeypatch.setattr("tannakit.simplicial._PAIR_CACHE", {})
        X, table = spaces.GOLDEN[name]
        cc = pair_homology(pair(X), ZZ)
        for n in table:
            cc.homology_module(n)
        # boundaries d_1 .. d_dim: one check of d_{d-1} o d_d for d = 2 .. dim
        assert len(calls) == max(X.dim - 1, 0)


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
        inc = SimplicialMap(MOBIUS_BOUNDARY, MOBIUS, {v: v for v in MOBIUS_BOUNDARY.vertices})
        i1 = induced_map_on_homology(inc, pair(MOBIUS_BOUNDARY), pair(MOBIUS), 1, ZZ)
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
        assert pair_homology(pp, ZZ).homology_module(2) == FgModule(ZZ, 1)

    def test_ez_aw_identity_on_homology(self):
        # EZ o AW is only chain homotopic to the identity, but induces it
        ez, aw, tensor, cxy = ez_aw_maps(CIRCLE3, CIRCLE3)
        for n in range(0, cxy.top_degree + 1):
            if cxy.rank(n) == 0:
                continue
            sq = cxy.homology(n)
            comp = ez.component(n) * aw.component(n)
            for j in range(sq.module.ngens):
                lift = sq.lift(j)
                coords = sq.class_of(vec(comp.apply([lift.get(i, 0) for i in range(comp.cols)])))
                expected = tuple(1 if i == j else 0
                                 for i in range(sq.module.ngens))
                assert coords == vec(expected)


    @settings(max_examples=25, deadline=None)
    @given(small_complexes(), small_complexes(), st.sampled_from((ZZ, QQ)))
    def test_aw_ez_identity_on_random_complexes(self, X, Y, ring):
        ez, aw, tensor, cxy = ez_aw_maps(X, Y, ring)
        for n in tensor.degrees:
            assert aw.component(n) * ez.component(n) == Matrix.identity(ring, tensor.rank(n))


class TestCup:
    def test_unit_cochain(self):
        cp = relative_cup_product(CIRCLE3, EMPTY, EMPTY, 0, 0)
        ones0 = tuple(1 for _ in range(3))
        got = cp.cup_cochain(vec(ones0), 0, vec(ones0), 0)
        assert got == vec(ones0)

    def test_torus_perfect_pairing(self):
        T = product_complex(CIRCLE3, CIRCLE3)
        cp = relative_cup_product(T, EMPTY, EMPTY, 1, 1, QQ)
        assert cp.cohomology_module(1, 1).free_rank == 2
        assert cp.cohomology_module(12, 2).free_rank == 1
        m = cp.pairing_matrix()
        from tannakit.forms import determinant
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
            f, g, h = vec(f), vec(g), vec(basis1[0])
            left = cp.cup_cochain(cp.cup_cochain(f, 1, g, 0), 1, h, 1)
            right = cp.cup_cochain(f, 1, cp.cup_cochain(g, 0, h, 1), 1)
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
