import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tannakit import coalgebra, tannaka, transition
from tannakit.cli import default_corpus_text
from tannakit.coalgebra import (
    CoalgebraTrunc, Comodule, check_coaction_axioms, coaction, dual_coalgebra,
)
from tannakit.corpus import Corpus
from tannakit.errors import AxiomViolation, NonFreeVertex
from tannakit.linalg import QQ, ZZ, FgModule
from tannakit.maps import ModuleMap, _nonzero_columns
from tannakit.matrix import Matrix
from tannakit.simplicial import SimplicialPair
from tannakit.structures import SimplicialMap
from tannakit.tannaka import Diagram, DiagramRep, Subdiagram, build_pairs_diagram, end_algebra
from tannakit.transition import factorization_check, transition_map

import spaces
from spaces import CIRCLE3, CIRCLE_POINT, EDGE, EDGE_ENDS, POINT, RP2, pair, sub
from tannaka_fixtures import with_basis

from oracles import (
    brute_commutant, dense_comodule_failures, dense_is_morphism, dense_rref,
    dense_structure_constants, dense_transition_coaction,
)


def synthetic(ring, ranks, edges):
    """Diagram with free vertices of the given ranks and explicit matrices."""
    names = sorted(ranks)
    dia = Diagram(names, [(n, s, d, "map") for (n, s, d, _m) in edges])
    modules = {v: FgModule.free(ring, r) for v, r in ranks.items()}
    maps = {}
    for (n, s, d, m) in edges:
        maps[n] = ModuleMap(modules[s], modules[d], Matrix(ring, m))
    return dia, DiagramRep(dia, ring, modules, maps)


class TestEndAlgebra:
    def test_single_vertex_full_matrix_algebra(self):
        dia, rep = synthetic(QQ, {"v": 2}, [])
        E = end_algebra(rep, Subdiagram(dia, ["v"]))
        assert E.dim == 4

    def test_diagonal_commutant(self):
        dia, rep = synthetic(QQ, {"v": 2}, [("l", "v", "v", [[1, 0], [0, 2]])])
        E = end_algebra(rep, Subdiagram(dia, ["v"]))
        assert E.dim == 2
        for i in range(2):
            comp = E.component(i, "v")
            assert comp[0, 1] == 0 and comp[1, 0] == 0

    def test_two_vertices_identity_edge(self):
        dia, rep = synthetic(QQ, {"v": 1, "w": 1}, [("e", "v", "w", [[1]])])
        E = end_algebra(rep, Subdiagram(dia, ["v", "w"]))
        assert E.dim == 1

    def test_nonfree_guard(self):
        dia = Diagram(["v"], [])
        rep = DiagramRep(dia, ZZ, {"v": FgModule(ZZ, 0, (2,))}, {})
        with pytest.raises(NonFreeVertex):
            end_algebra(rep, Subdiagram(dia, ["v"]))

    def test_saturated_over_z(self):
        dia, rep = synthetic(ZZ, {"v": 2}, [("l", "v", "v", [[0, 1], [0, 0]])])
        E = end_algebra(rep, Subdiagram(dia, ["v"]))
        assert E.is_saturated()

    @pytest.mark.parametrize("seed", range(12))
    def test_brute_force_oracle(self, seed):
        rng = random.Random(seed)
        nv = rng.randint(1, 3)
        names = ["v%d" % i for i in range(nv)]
        ranks = {v: rng.randint(1, 3) for v in names}
        edges = []
        for k in range(rng.randint(0, 3)):
            s = rng.choice(names)
            d = rng.choice(names)
            m = [[rng.randint(-2, 2) for _ in range(ranks[s])]
                 for _ in range(ranks[d])]
            edges.append(("e%d" % k, s, d, m))
        dia, rep = synthetic(QQ, ranks, edges)
        E = end_algebra(rep, Subdiagram(dia, names))
        oracle = brute_commutant(ranks, [(s, d, m) for (_n, s, d, m) in edges])
        assert E.dim == len(oracle)
        # span equality: every oracle vector is in our basis span
        for vec in oracle:
            assert E.coordinates(vec) is not None


class TestCoalgebra:
    def test_matrix_coalgebra(self):
        dia, rep = synthetic(QQ, {"v": 2}, [])
        E = end_algebra(rep, Subdiagram(dia, ["v"]))
        A = dual_coalgebra(E)
        assert A.rank == 4
        # basis is E00, E01, E10, E11 (row-major); with the opposite-dual
        # order, Delta(E_cb*) = sum_a E_ab* (x) E_ca*; for E00*: terms
        # E00* (x) E00* and E10* (x) E01*
        col = [A.delta[r, 0] for r in range(16)]
        nz = {r for r, x in enumerate(col) if x != 0}
        assert nz == {0 * 4 + 0, 2 * 4 + 1}
        # every coefficient is 0/1 and each column has exactly rank terms
        for k in range(4):
            colk = [A.delta[r, k] for r in range(16)]
            assert sum(1 for x in colk if x) == 2

    def test_rank_one(self):
        dia, rep = synthetic(QQ, {"v": 1}, [])
        E = end_algebra(rep, Subdiagram(dia, ["v"]))
        A = dual_coalgebra(E)
        assert A.rank == 1
        assert A.delta == Matrix(QQ, [[1]])
        assert A.counit == Matrix(QQ, [[1]])

    def test_diagonal_commutant_grouplikes(self):
        dia, rep = synthetic(QQ, {"v": 2}, [("l", "v", "v", [[1, 0], [0, 2]])])
        E = end_algebra(rep, Subdiagram(dia, ["v"]))
        A = dual_coalgebra(E)
        assert A.rank == 2
        for k in range(2):
            coords = tuple(1 if i == k else 0 for i in range(2))
            assert A.grouplike_defect(coords).is_zero()
            assert A.counit_of(coords) == 1
        for coords in ((2, 0), (1, 1), (1, -1)):
            x = Matrix.column(QQ, coords)
            defect = A.grouplike_defect(coords)
            assert defect == A.delta * x - x.kron(x) and not defect.is_zero()


class TestCoaction:
    def test_trivial_rank_one(self):
        dia, rep = synthetic(QQ, {"v": 1}, [])
        E = end_algebra(rep, Subdiagram(dia, ["v"]))
        co = coaction(rep, Subdiagram(dia, ["v"]), "v", E)
        assert co.rho == Matrix(QQ, [[1]])
        assert check_coaction_axioms(co) == (True, True)

    def test_matrix_coalgebra_coaction(self):
        dia, rep = synthetic(QQ, {"v": 2}, [])
        E = end_algebra(rep, Subdiagram(dia, ["v"]))
        co = coaction(rep, Subdiagram(dia, ["v"]), "v", E)
        assert check_coaction_axioms(co) == (True, True)
        # rho(x_l) = sum_a e_{al}* (x) x_a with basis E00,E01,E10,E11
        # column 0: entries at (i, a) with component_i[a,0] = 1
        col0 = co.rho.col(0)
        nz = {r for r, x in enumerate(col0) if x != 0}
        assert nz == {0 * 2 + 0, 2 * 2 + 1}

    def test_axioms_with_edges(self):
        dia, rep = synthetic(QQ, {"v": 2, "w": 2},
                             [("e", "v", "w", [[1, 1], [0, 1]])])
        sdg = Subdiagram(dia, ["v", "w"])
        E = end_algebra(rep, sdg)
        for v in ("v", "w"):
            co = coaction(rep, sdg, v, E)
            assert check_coaction_axioms(co) == (True, True)


class TestTransition:
    def test_identity(self):
        dia, rep = synthetic(QQ, {"v": 2}, [])
        sdg = Subdiagram(dia, ["v"])
        E = end_algebra(rep, sdg)
        t = transition_map(rep, E, E)
        assert t.matrix == Matrix.identity(QQ, 4)

    def test_commutant_into_matrix_algebra(self):
        dia = Diagram(["v"], [("l", "v", "v", "map")])
        modules = {"v": FgModule.free(QQ, 2)}
        maps = {"l": ModuleMap(modules["v"], modules["v"],
                               Matrix(QQ, [[1, 0], [0, 2]]))}
        rep = DiagramRep(dia, QQ, modules, maps)
        small = Subdiagram(dia, ["v"], edges=[])       # no edges: full algebra
        big = Subdiagram(dia, ["v"])                    # with the loop
        EF = end_algebra(rep, small)                    # full, dim 4
        EG = end_algebra(rep, big)                      # commutant, dim 2
        assert EF.sub.is_subset_of(EG.sub)
        # restriction End(F') -> End(F) is the inclusion of the commutant in
        # the matrix algebra; its dual A_F -> A_F' is onto
        t = transition_map(rep, EF, EG)
        from tannakit.forms import rref
        assert t.matrix.rows == 2 and t.matrix.cols == 4
        assert len(rref(t.matrix.to_ring(QQ))[1]) == 2

    def test_disjoint_union_split(self):
        dia, rep = synthetic(QQ, {"v": 1, "w": 2}, [])
        F = Subdiagram(dia, ["v"])
        G = Subdiagram(dia, ["v", "w"])
        EF = end_algebra(rep, F)
        EG = end_algebra(rep, G)
        t = transition_map(rep, EF, EG)
        # split injection: full column rank
        from tannakit.forms import rref
        assert len(rref(t.matrix.to_ring(QQ))[1]) == EF.dim


class TestFactorization:
    def test_trivial(self):
        dia, rep = synthetic(QQ, {"v": 1}, [])
        cert = factorization_check(rep, Subdiagram(dia, ["v"]))
        assert cert.ok

    def test_diagonal_commutant_passes(self):
        dia, rep = synthetic(QQ, {"v": 2}, [("l", "v", "v", [[1, 0], [0, 2]])])
        cert = factorization_check(rep, Subdiagram(dia, ["v"]))
        assert cert.ok

    def test_corrupted_edge_named(self):
        dia = Diagram(["v", "w"], [("e", "v", "w", "map")])
        modules = {"v": FgModule.free(QQ, 2), "w": FgModule.free(QQ, 2)}
        goodmap = ModuleMap(modules["v"], modules["w"], Matrix.identity(QQ, 2))
        rep = DiagramRep(dia, QQ, modules, {"e": goodmap})
        sdg = Subdiagram(dia, ["v", "w"])
        E = end_algebra(rep, sdg)
        assert factorization_check(rep, sdg, E).ok
        # corrupt the edge after computing E: swap matrix is not central, so
        # naturality must now fail and name the edge
        rep.maps["e"] = ModuleMap(modules["v"], modules["w"],
                                  Matrix(QQ, [[0, 1], [1, 0]]))
        cert = factorization_check(rep, sdg, E)
        assert not cert.ok
        assert any("'e'" in v for v in cert.violations)


class TestPairsDiagram:
    def test_single_point(self):
        dia, rep = build_pairs_diagram(ZZ, {"u": (pair(POINT), 0)})
        assert rep.module("u") == FgModule(ZZ, 1)
        assert rep.nonfree == ()

    def test_circle_and_point(self):
        inc = SimplicialMap(POINT, CIRCLE3, {"a": "a"})
        dia, rep = build_pairs_diagram(
            ZZ,
            {"g": (CIRCLE_POINT, 1), "u": (pair(POINT), 0)},
        )
        assert rep.module("g") == FgModule(ZZ, 1)
        assert rep.module("u") == FgModule(ZZ, 1)

    def test_triple_edge_iso(self):
        X, Z = EDGE, EDGE_ENDS
        W = sub(Z, ("a",))
        dia, rep = build_pairs_diagram(
            ZZ,
            {"t": (SimplicialPair(X, Z), 1), "w": (SimplicialPair(Z, W), 0)},
            triple_edges=[("bnd", "t", "w")],
        )
        m = rep.edge_map("bnd")
        assert abs(m.matrix[0, 0]) == 1

    def test_nonfree_flagged(self):
        dia, rep = build_pairs_diagram(ZZ, {"r": (pair(RP2), 1)})
        assert rep.nonfree == ("r",)


# -- the dense Kronecker identities, kept as oracles for the sparse checks --

def dense_coalgebra_verdict(ring, rank, delta, counit):
    """The AxiomViolation text of the dense (Delta (x) id) Delta identities,
    or None when they hold."""
    eye = Matrix.identity(ring, rank)
    if delta.kron(eye) * delta != eye.kron(delta) * delta:
        return "comultiplication is not coassociative"
    if counit.kron(eye) * delta != eye or eye.kron(counit) * delta != eye:
        return "counit identities fail"
    return None


def sparse_coalgebra_verdict(ring, rank, delta, counit):
    try:
        CoalgebraTrunc(ring, rank, _nonzero_columns(delta), _nonzero_columns(counit))
    except AxiomViolation as exc:
        return str(exc)
    return None


def dense_coaction_axioms(co):
    """check_coaction_axioms' verdict from the dense oracle's failures."""
    failures = " ".join(dense_comodule_failures(co))
    return "coassociativity" not in failures, "counit" not in failures


def dense_transition_ok(tm, rho_f, rho_g):
    """Both transition identities through krons: Delta_G t = (t (x) t) Delta_F
    and (t (x) id) rho_F = rho_G."""
    t = tm.matrix
    return (tm.target.delta * t == t.kron(t) * tm.source.delta
            and dense_transition_coaction(t, rho_f, rho_g))


def perturbed(m, i, j, by=1):
    data = [list(row) for row in m.data]
    data[i][j] += by
    return Matrix(m.ring, data, m.rows, m.cols)


def assert_sparse_matches_dense(rep, subs, ends):
    """Every identity on the given subdiagrams: the sparse verdict equals the
    dense one, and both accept.  ends maps a subdiagram name to its
    EndAlgebra."""
    for name, sdg in subs.items():
        E = ends[name]
        A = E.coalgebra()
        assert dense_coalgebra_verdict(A.ring, A.rank, A.delta, A.counit) is None
        assert sparse_coalgebra_verdict(A.ring, A.rank, A.delta, A.counit) is None
        cos = {}
        for v in sdg.vertices:
            cos[v] = co = coaction(rep, sdg, v, E)
            assert check_coaction_axioms(co) == dense_coaction_axioms(co) == (True, True)
        cert = factorization_check(rep, sdg, E)
        assert cert.ok
        for (edge, src, dst, _kind) in sdg.edges:
            assert dense_is_morphism(cos[src], cos[dst], rep.edge_map(edge).matrix)
    for f, F in subs.items():
        for g, G in subs.items():
            if F.is_subset_of(G):
                EF, EG = ends[f], ends[g]
                tm = transition_map(rep, EF, EG)
                for v in F.vertices:
                    assert dense_transition_ok(tm, coaction(rep, F, v, EF).rho,
                                               coaction(rep, G, v, EG).rho)


def random_diagram(ring, rng):
    """Up to three free vertices of rank 1 or 2 and up to three edges, so
    that End has dimension at most 12 and the dense oracle stays cheap."""
    names = ["v%d" % i for i in range(rng.randint(1, 3))]
    ranks = {v: rng.randint(1, 2) for v in names}
    scalars = [-2, -1, 0, 1, 2] + ([Fraction(1, 2), Fraction(-3, 2)] if ring == QQ else [])
    edges = []
    for k in range(rng.randint(0, 3)):
        s, d = rng.choice(names), rng.choice(names)
        edges.append(("e%d" % k, s, d,
                      [[rng.choice(scalars) for _ in range(ranks[s])]
                       for _ in range(ranks[d])]))
    return names, synthetic(ring, ranks, edges)


class TestSparseAgainstDense:
    @pytest.mark.parametrize("ring", [ZZ, QQ])
    def test_bundled_subdiagrams(self, ring):
        corpus = Corpus(default_corpus_text())
        by_diagram = {}
        for name in sorted(corpus._subdiagram_decls):
            ctx, sdg = corpus.subdiagram(name, ring)
            by_diagram.setdefault(id(ctx), (ctx, {}))[1][name] = sdg
        for ctx, subs in by_diagram.values():
            ends = {name: ctx.end(sdg) for name, sdg in subs.items()}
            assert_sparse_matches_dense(ctx.rep, subs, ends)

    @pytest.mark.parametrize("ring", [ZZ, QQ])
    @pytest.mark.parametrize("seed", range(10))
    def test_random_diagrams(self, ring, seed):
        rng = random.Random(1000 + seed)
        names, (dia, rep) = random_diagram(ring, rng)
        subs = {"full": Subdiagram(dia, names), "first": Subdiagram(dia, names[:1]),
                "bare": Subdiagram(dia, names, edges=[])}
        ends = {name: end_algebra(rep, sdg) for name, sdg in subs.items()}
        assert_sparse_matches_dense(rep, subs, ends)
        # an edge map changed after End was computed: each edge's verdict
        # is the dense naturality identity's
        sdg, E = subs["full"], ends["full"]
        if sdg.edges:
            name, src, dst, _kind = sdg.edges[0]
            old = rep.maps[name]
            rep.maps[name] = ModuleMap(old.source, old.target, perturbed(old.matrix, 0, 0))
            cert = factorization_check(rep, sdg, E)
            cos = {v: coaction(rep, sdg, v, E) for v in sdg.vertices}
            for (edge, s, d, _k) in sdg.edges:
                bad = "edge %r is not a comodule morphism" % (edge,) in cert.violations
                assert bad == (not dense_is_morphism(cos[s], cos[d],
                                                     rep.edge_map(edge).matrix))


def matrix_coalgebra(ring, rank=2):
    dia, rep = synthetic(ring, {"v": rank}, [])
    sdg = Subdiagram(dia, ["v"])
    return rep, sdg, end_algebra(rep, sdg)


class TestSparseRejects:
    @pytest.mark.parametrize("ring", [ZZ, QQ])
    def test_perturbed_delta(self, ring):
        A = matrix_coalgebra(ring)[2].coalgebra()
        rejected = 0
        for i in range(A.delta.rows):
            for j in range(A.delta.cols):
                bad = perturbed(A.delta, i, j)
                verdict = sparse_coalgebra_verdict(ring, A.rank, bad, A.counit)
                assert verdict == dense_coalgebra_verdict(ring, A.rank, bad, A.counit)
                rejected += verdict is not None
        assert rejected == A.delta.rows * A.delta.cols
        with pytest.raises(AxiomViolation, match="not coassociative"):
            CoalgebraTrunc(ring, A.rank, _nonzero_columns(perturbed(A.delta, 5, 0)),
                           _nonzero_columns(A.counit))

    @pytest.mark.parametrize("ring", [ZZ, QQ])
    def test_perturbed_counit(self, ring):
        A = matrix_coalgebra(ring)[2].coalgebra()
        for j in range(A.rank):
            bad = perturbed(A.counit, 0, j)
            verdict = sparse_coalgebra_verdict(ring, A.rank, A.delta, bad)
            assert verdict == dense_coalgebra_verdict(ring, A.rank, A.delta, bad)
            assert verdict == "counit identities fail"

    @pytest.mark.parametrize("ring", [ZZ, QQ])
    def test_one_sided_counit(self, ring):
        # Delta(e_k) = e_0 (x) e_k and e_k (x) e_0 are coassociative, and
        # with eps = e_0* each satisfies exactly one counit identity
        counit = Matrix(ring, [[1, 0]])
        for delta in ([[1, 0], [0, 1], [0, 0], [0, 0]],
                      [[1, 0], [0, 0], [0, 1], [0, 0]]):
            delta = Matrix(ring, delta)
            verdict = sparse_coalgebra_verdict(ring, 2, delta, counit)
            assert verdict == dense_coalgebra_verdict(ring, 2, delta, counit)
            assert verdict == "counit identities fail"

    @pytest.mark.parametrize("ring", [ZZ, QQ])
    def test_perturbed_rho(self, ring):
        rep, sdg, E = matrix_coalgebra(ring)
        co = coaction(rep, sdg, "v", E)
        rejected = 0
        for i in range(co.rho.rows):
            for j in range(co.rho.cols):
                bad = Comodule(co.coalgebra, co.gen_orders, perturbed(co.rho, i, j))
                verdict = check_coaction_axioms(bad)
                assert verdict == dense_coaction_axioms(bad)
                rejected += verdict != (True, True)
        assert rejected == co.rho.rows * co.rho.cols

    @pytest.mark.parametrize("ring", [ZZ, QQ])
    def test_corrupted_transition_coaction(self, ring, monkeypatch):
        corpus = Corpus(default_corpus_text())
        ctx, F = corpus.subdiagram("F1", ring)
        _, G = corpus.subdiagram("F2", ring)
        EF, EG = ctx.end(F), ctx.end(G)
        honest = coalgebra.coaction
        tm = transition_map(ctx.rep, EF, EG)
        rho_f = honest(ctx.rep, F, "g", EF).rho
        rho_g = honest(ctx.rep, G, "g", EG).rho
        for i in range(rho_g.rows):
            bad_rho = perturbed(rho_g, i, 0)

            def corrupt(rep, sdg, v, E=None, A=None, bad_rho=bad_rho):
                co = honest(rep, sdg, v, E, A)
                if sdg is G and v == "g":
                    co = Comodule(co.coalgebra, co.gen_orders, bad_rho)
                return co
            monkeypatch.setattr(transition, "coaction", corrupt)
            assert not dense_transition_ok(tm, rho_f, bad_rho)
            with pytest.raises(AxiomViolation,
                               match="transition fails coaction compatibility at 'g'"):
                transition_map(ctx.rep, EF, EG)
        monkeypatch.setattr(transition, "coaction", honest)
        assert transition_map(ctx.rep, EF, EG).matrix == tm.matrix

    @pytest.mark.parametrize("ring", [ZZ, QQ])
    def test_corrupted_transition_comultiplication(self, ring, monkeypatch):
        corpus = Corpus(default_corpus_text())
        ctx, F = corpus.subdiagram("F1", ring)
        _, G = corpus.subdiagram("F2", ring)
        EF, EG = ctx.end(F), ctx.end(G)
        AF, AG = EF.coalgebra(), EG.coalgebra()
        t = transition_map(ctx.rep, EF, EG).matrix
        eps = _nonzero_columns(AF.counit)
        assert transition._coalgebra_morphism(_nonzero_columns(t), AF.delta_columns, eps, AG)[0]
        rejected = []
        for i in range(t.rows):
            for j in range(t.cols):
                bad = perturbed(t, i, j)
                dense = AG.delta * bad == bad.kron(bad) * AF.delta
                assert transition._coalgebra_morphism(
                    _nonzero_columns(bad), AF.delta_columns, eps, AG)[0] == dense
                if not dense:
                    rejected.append((i, j))
        assert rejected
        # t[i][j] is coordinate j of the i-th restricted family, read by
        # EF's solver on the family's sparse column
        i, j = rejected[0]
        honest = tannaka._Solver.read
        calls = []

        def corrupt(self, b):
            coords = honest(self, b)
            if self is EF._solver:
                calls.append(b)
                if len(calls) == i + 1:
                    coords = dict(coords)
                    coords[j] = coords.get(j, 0) + 1
            return coords
        monkeypatch.setattr(tannaka._Solver, "read", corrupt)
        with pytest.raises(AxiomViolation,
                           match="transition fails comultiplication compatibility"):
            transition_map(ctx.rep, EF, EG)


@st.composite
def small_diagrams(draw):
    """1 to 3 vertices of rank 1 to 3 and 0 to 3 edges, entries in [-2, 2]."""
    names = ["v%d" % i for i in range(draw(st.integers(1, 3)))]
    ranks = {v: draw(st.integers(1, 3)) for v in names}
    edges = []
    for k in range(draw(st.integers(0, 3))):
        s, d = draw(st.sampled_from(names)), draw(st.sampled_from(names))
        m = [[draw(st.integers(-2, 2)) for _ in range(ranks[s])] for _ in range(ranks[d])]
        edges.append(("e%d" % k, s, d, m))
    return names, ranks, edges


class TestStructureConstants:
    @pytest.mark.parametrize("ring", [ZZ, QQ])
    @settings(max_examples=100, deadline=None)
    @given(small_diagrams())
    def test_equals_dense_oracle(self, ring, diagram):
        names, ranks, edges = diagram
        dia, rep = synthetic(ring, ranks, edges)
        E = end_algebra(rep, Subdiagram(dia, names))
        n = E.dim
        assert n == len(brute_commutant(ranks, [(s, d, m) for (_n, s, d, m) in edges]))
        dense = dense_structure_constants(E)
        sparse = E.structure_constants()
        assert all(any(c.values()) for c in sparse.values())
        for i in range(n):
            for j in range(n):
                coords = sparse.get((i, j), {})
                assert tuple(coords.get(k, 0) for k in range(n)) == dense[i][j]
        A = E.coalgebra()
        assert A._delta is None
        assert A.delta == Matrix(ring, [dense[i][j] for j in range(n) for i in range(n)],
                                 n * n, n)

    @pytest.mark.parametrize("ring", [ZZ, QQ])
    def test_basis_that_is_not_canonical(self, ring):
        # End(T|P2) = M_2 with the basis e0 + e1, e0, e2, e3: the first two
        # columns share a pivot, so the solver reads in _column_reduce's image
        # basis, and the structure constants and the dual coalgebra must
        # still be those of the given basis
        ctx, P2 = Corpus(default_corpus_text()).subdiagram("P2", ring)
        E = ctx.end(P2)
        cols = [E.basis.col(k) for k in range(E.dim)]
        cols[0:2] = [tuple(x + y for x, y in zip(cols[0], cols[1])), cols[0]]
        with_basis(E, Matrix.from_columns(ring, cols, rows=E.total))
        assert E._solver.T is not None and E.unit == (0, 1, 0, 1)
        n, dense = E.dim, dense_structure_constants(E)
        sparse = E.structure_constants()
        assert {(i, j): tuple(sparse.get((i, j), {}).get(k, 0) for k in range(n))
                for i in range(n) for j in range(n)} == {
            (i, j): dense[i][j] for i in range(n) for j in range(n)}
        A = E.coalgebra()
        assert A.delta == Matrix(ring, [dense[i][j] for j in range(n) for i in range(n)],
                                 n * n, n)
        assert A.counit == Matrix(ring, [[0, 1, 0, 1]])
        assert factorization_check(ctx.rep, P2, E).ok

    @pytest.mark.parametrize("ring", [ZZ, QQ])
    @pytest.mark.parametrize("rank", [2, 3])
    def test_dropped_column_escapes(self, ring, rank):
        # without E_00 (or E_rr), E_01 E_10 = E_00 (or E_r0 E_0r = E_rr) escapes
        for drop in (0, rank * rank - 1):
            E = matrix_coalgebra(ring, rank)[2]
            with_basis(E, E.basis.take_cols([k for k in range(E.dim) if k != drop]))
            with pytest.raises(AxiomViolation, match="escapes the span"):
                E.structure_constants()

    @pytest.mark.parametrize("col", [0, 3])
    def test_doubled_z_column_escapes(self, col):
        # 2 E_00 (or 2 E_11) spans E_00 over Q but not over Z: E_01 E_10 = E_00
        # has coordinate 1/2 there, and the division leaves a remainder
        E = matrix_coalgebra(ZZ)[2]
        with_basis(E, Matrix.from_columns(ZZ, [tuple(2 * x for x in E.basis.col(k))
                                               if k == col else E.basis.col(k)
                                               for k in range(E.dim)]))
        with pytest.raises(AxiomViolation, match="escapes the span"):
            E.structure_constants()


def one_entry_moved(data, m, ring):
    """m with one drawn entry moved by a drawn nonzero scalar."""
    by = data.draw(st.sampled_from([1, -2] + ([Fraction(1, 3)] if ring == QQ else [])))
    return perturbed(m, data.draw(st.integers(0, m.rows - 1)),
                     data.draw(st.integers(0, m.cols - 1)), by)


class TestComoduleIdentities:
    """The sparse comodule verdicts against the dense Kronecker oracles on
    generated diagrams: the coaction axioms, every edge morphism and the
    transition compatibility from the first vertex's subdiagram, honest and
    with one entry of a rho or of an edge matrix moved."""

    @pytest.mark.parametrize("ring", [ZZ, QQ])
    @settings(max_examples=40, deadline=None)
    @given(small_diagrams(), st.data())
    def test_equal_dense_oracles(self, ring, diagram, data):
        names, ranks, edges = diagram
        dia, rep = synthetic(ring, ranks, edges)
        G, F = Subdiagram(dia, names), Subdiagram(dia, names[:1])
        EG, EF = end_algebra(rep, G), end_algebra(rep, F)
        assert factorization_check(rep, G, EG).ok
        t = transition_map(rep, EF, EG).matrix
        cos = {v: coaction(rep, G, v, EG) for v in names}
        f0 = coaction(rep, F, names[0], EF)
        assert dense_transition_coaction(t, f0.rho, cos[names[0]].rho)
        v = data.draw(st.sampled_from(names))
        bad = Comodule(cos[v].coalgebra, cos[v].gen_orders, one_entry_moved(data, cos[v].rho, ring))
        for co in (cos[v], bad):
            assert check_coaction_axioms(co) == dense_coaction_axioms(co)
        assert check_coaction_axioms(cos[v]) == (True, True)
        for (name, s, d, _kind) in G.edges:
            m = rep.edge_map(name).matrix
            assert dense_is_morphism(cos[s], cos[d], m)
            src, dst = (bad if s == v else cos[s]), (bad if d == v else cos[d])
            assert (coalgebra._intertwines(src, dst, m=_nonzero_columns(m))
                    == dense_is_morphism(src, dst, m))
        bad_f = Comodule(f0.coalgebra, f0.gen_orders, one_entry_moved(data, f0.rho, ring))
        g0 = bad if v == names[0] else cos[names[0]]
        for f, g in ((bad_f, cos[names[0]]), (f0, g0)):
            assert (coalgebra._intertwines(f, g, t=_nonzero_columns(t))
                    == dense_transition_coaction(t, f.rho, g.rho))
        if G.edges:
            # an edge map moved after End was built: the certificate names
            # exactly the edges the dense identity rejects
            name, s, d, _kind = data.draw(st.sampled_from(G.edges))
            old = rep.maps[name]
            rep.maps[name] = ModuleMap(old.source, old.target,
                                       one_entry_moved(data, old.matrix, ring))
            cert = factorization_check(rep, G, EG)
            for (edge, s, d, _kind) in G.edges:
                named = "edge %r is not a comodule morphism" % (edge,) in cert.violations
                assert named == (not dense_is_morphism(cos[s], cos[d], rep.edge_map(edge).matrix))


def fractional_coalgebra(m):
    """The Q coalgebra of End(v, l) for one loop l = m, whose reduced echelon
    basis has non-integer entries; with its subdiagram and End algebra."""
    dia, rep = synthetic(QQ, {"v": len(m)}, [("l", "v", "v", m)])
    sdg = Subdiagram(dia, ["v"])
    return rep, sdg, end_algebra(rep, sdg)


FRACTIONAL = ([[1, 2], [0, 2]], [[1, 2, 0], [0, 2, 1], [0, 0, 3]])


class TestIntegerContraction:
    """Q identities contracted in integers, with every entry moved by 1/3."""

    @pytest.mark.parametrize("m", FRACTIONAL)
    def test_perturbed_delta(self, m):
        A = fractional_coalgebra(m)[2].coalgebra()
        assert any(x.denominator > 1 for col in A.delta_columns for x in col.values())
        rejected = 0
        for i in range(A.delta.rows):
            for j in range(A.delta.cols):
                bad = perturbed(A.delta, i, j, Fraction(1, 3))
                verdict = sparse_coalgebra_verdict(QQ, A.rank, bad, A.counit)
                assert verdict == dense_coalgebra_verdict(QQ, A.rank, bad, A.counit)
                rejected += verdict is not None
        assert rejected

    @pytest.mark.parametrize("m", FRACTIONAL)
    def test_perturbed_rho(self, m):
        rep, sdg, E = fractional_coalgebra(m)
        co = coaction(rep, sdg, "v", E)
        assert any(x.denominator > 1 for row in co.rho.data for x in row)
        rejected = 0
        for i in range(co.rho.rows):
            for j in range(co.rho.cols):
                bad = Comodule(co.coalgebra, co.gen_orders,
                               perturbed(co.rho, i, j, Fraction(1, 3)))
                verdict = check_coaction_axioms(bad)
                assert verdict == dense_coaction_axioms(bad)
                rejected += verdict != (True, True)
        assert rejected


class TestFractionalEdgeMaps:
    """Q edge maps with non-integer entries: End is built from the integer
    multiples of the maps, and its basis is still the reduced column echelon
    basis of the kernel of the Fraction constraints."""

    CASES = {
        "loop": ({"v": 2}, [("l", "v", "v", [[Fraction(1, 2), 1], [0, Fraction(2, 3)]])]),
        "loop with a repeated eigenvalue": (
            {"v": 2}, [("l", "v", "v", [[Fraction(1, 2), Fraction(1, 3)], [0, Fraction(1, 2)]])]),
        "two vertices": ({"v": 1, "w": 2}, [("e", "v", "w", [[Fraction(1, 3)], [1]])]),
        "two vertices, two edges": (
            {"v": 2, "w": 2}, [("e", "v", "w", [[Fraction(1, 3), 0], [0, 1]]),
                               ("f", "w", "v", [[1, Fraction(-1, 3)], [0, Fraction(5, 7)]])]),
    }

    @staticmethod
    def dense_basis(ranks, edges):
        """The reduced column echelon basis of the constraint kernel, as
        tuples ordered by pivot, by dense_rref: once for the kernel of the
        dense Fraction constraints, once to reduce the kernel vectors."""
        order = sorted(ranks)
        offset = dict(zip(order, [sum(ranks[u] ** 2 for u in order[:i])
                                  for i in range(len(order))]))
        n = sum(r * r for r in ranks.values())
        rows = []
        for (_name, s, d, m) in edges:
            rs, rd = ranks[s], ranks[d]
            for i in range(rd):
                for j in range(rs):
                    row = [Fraction(0)] * n
                    for k in range(rs):
                        row[offset[s] + k * rs + j] += m[i][k]
                    for k in range(rd):
                        row[offset[d] + i * rd + k] -= m[k][j]
                    rows.append(row)
        reduced, pivots = dense_rref(rows) if rows else ([], [])
        kernel = []
        for f in (c for c in range(n) if c not in pivots):
            v = [Fraction(0)] * n
            v[f] = Fraction(1)
            for row, p in zip(reduced, pivots):
                v[p] = -row[f]
            kernel.append(v)
        basis, _ = dense_rref(kernel)
        return [tuple(v) for v in basis if any(v)]

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_basis_is_the_dense_echelon_basis(self, case):
        ranks, edges = self.CASES[case]
        assert any(x.denominator > 1 for (*_, m) in edges for row in m
                   for x in map(Fraction, row))
        dia, rep = synthetic(QQ, ranks, edges)
        E = end_algebra(rep, Subdiagram(dia, sorted(ranks)))
        dense = self.dense_basis(ranks, edges)
        assert [tuple(E.basis.col(i)) for i in range(E.dim)] == dense
        assert E.dim == len(brute_commutant(ranks, [(s, d, m) for (_n, s, d, m) in edges]))
        assert factorization_check(rep, Subdiagram(dia, sorted(ranks)), E).ok


class TestBuildOnce:
    def test_factorization_reuses_the_checked_axioms(self, monkeypatch):
        """factorization_check after check_coaction_axioms on every vertex
        contracts no comodule identity again."""
        ctx, sdg = Corpus(default_corpus_text()).subdiagram("F2", QQ)
        E = ctx.end(sdg)
        for v in sdg.vertices:
            assert check_coaction_axioms(coaction(ctx.rep, sdg, v, E)) == (True, True)
        calls = []
        for name in ("_coassociative", "_counit_identity"):
            monkeypatch.setattr(coalgebra, name, lambda *a, name=name, f=getattr(coalgebra, name),
                                **kw: calls.append(name) or f(*a, **kw))
        assert factorization_check(ctx.rep, sdg, E).ok
        assert calls == []
        # a comodule that was never checked is checked on first use only
        co = Comodule(E.coalgebra(), (0,) * ctx.rep.rank("g"), coaction(ctx.rep, sdg, "g", E).rho)
        assert co.axioms() == co.axioms() == (True, True)
        assert sorted(calls) == ["_coassociative", "_counit_identity"]

    def test_context_coalgebra_is_the_end_algebras(self, monkeypatch):
        ctx, sdg = Corpus(default_corpus_text()).subdiagram("F2", QQ)
        A = ctx.coalgebra(sdg)
        E = ctx.end(sdg)
        assert A is E.coalgebra()
        built = []
        init = CoalgebraTrunc.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)
        monkeypatch.setattr(CoalgebraTrunc, "__init__", counted)
        assert factorization_check(ctx.rep, sdg, E).ok
        assert coaction(ctx.rep, sdg, "g", E).coalgebra is A
        assert ctx.coalgebra(sdg) is A
        assert built == []

    @pytest.mark.parametrize("ring", [ZZ, QQ])
    def test_comodules_read_straight_off_the_basis(self, ring, monkeypatch):
        """The End basis, the coalgebra (its counit too) and the canonical
        comodules are built without a Matrix; a comodule's rho is a dense
        view, built once when read: row (i, a) is row a of e_i's block."""
        ctx, sdg = Corpus(default_corpus_text()).subdiagram("F2", ring)
        built = []
        init = Matrix.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)
        monkeypatch.setattr(Matrix, "__init__", counted)
        E = end_algebra(ctx.rep, sdg)
        assert built == []
        E.coalgebra()
        assert built == []
        comodules = {v: E.comodule(v) for v in sdg.vertices}
        assert all(co.axioms() == (True, True) for co in comodules.values())
        assert built == []
        for v, co in comodules.items():
            before = len(built)
            rho, r = co.rho, ctx.rep.rank(v)
            assert co.rho is rho and len(built) == before + 1
            assert rho == Matrix(ring, [E.component(i, v).row(a)
                                        for i in range(E.dim) for a in range(r)], E.dim * r, r)

    def test_canonical_comodule_built_once(self, monkeypatch):
        """One Comodule per (End algebra, vertex), however often the coaction
        checks, factorization_check, transition_map and Corpus.comodule
        ask for it."""
        corpus = Corpus(default_corpus_text())
        ctx, F = corpus.subdiagram("F1", QQ)
        _, G = corpus.subdiagram("F2", QQ)
        EF, EG = ctx.end(F), ctx.end(G)
        built = []
        init = Comodule.__init__

        def counted(self, *args):
            built.append(args)
            init(self, *args)
        monkeypatch.setattr(Comodule, "__init__", counted)
        for _ in range(2):
            for E, sdg in ((EF, F), (EG, G)):
                for v in sdg.vertices:
                    assert check_coaction_axioms(coaction(ctx.rep, sdg, v, E)) == (True, True)
                assert factorization_check(ctx.rep, sdg, E).ok
            transition_map(ctx.rep, EF, EG)
            _, com_g = corpus.comodule("com_g", QQ)
            assert com_g is coaction(ctx.rep, F, "g", EF, EF.coalgebra())
        assert len(built) == len(F.vertices) + len(G.vertices)
