import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from tannakit import smith
from tannakit.errors import CompositionNonzero, TorsionPresent
from tannakit.filtration import ModuleComplex
from tannakit.forms import determinant, hnf_columns, rref
from tannakit.kunneth import tensor_swap
from tannakit.linalg import (
    QQ, ZZ, FgModule, Subquotient, _integral, _reduced_columns, _residual_divisors,
)
from tannakit.maps import (
    ModuleMap, _nonzero_columns, dual_map, elementary_divisors, kernel, module_from_relations,
    subquotient,
)
from tannakit.matrix import Matrix
from tannakit.smith import SmithForm, smith_normal_form

from oracles import (
    DenseSolver, dense_hnf_columns, dense_module_tensor, dense_rref, dense_smith_normal_form,
    echelon_columns, middle_swap_matrix, minor_gcd_divisors, modp_subquotient_size,
    naive_diagonal, oracle_column_reduce, snf_kernel, snf_solvable,
)
from sparse_helpers import cols, dense, mat, presented, smith_views, solve, solver, vec


def mz(rows):
    return Matrix(ZZ, rows)


def mq(rows):
    return Matrix(QQ, rows)


def column_reduce(A):
    """_reduced_columns of A as Matrices (H, T, K): A*T = H, and K is a
    basis of ker(A); over Q each reduced column is divided by its pivot, the
    first entry of its H part, or of its T part in K."""
    m, ring = A.rows, A.ring
    head, tail, image = _reduced_columns(ring, cols(A), m)
    if ring == QQ:
        pivots = [h[min(h)] for h in head] + [t[min(t)] for t in tail[image:]]
        head = [{i: Fraction(x, p) for i, x in h.items()} for h, p in zip(head, pivots)]
        tail = [{i: Fraction(x, p) for i, x in t.items()} for t, p in zip(tail, pivots)]
    return mat(ring, head, m), mat(ring, tail[:image], A.cols), mat(ring, tail[image:], A.cols)


def dense_kernel(A):
    """kernel on the sparse columns of A, as the columns of a Matrix."""
    return Matrix.from_sparse(A.ring, kernel(A.ring, _nonzero_columns(A), A.rows), A.cols)


class TestSmith:
    def test_diag_2_3(self):
        form = smith_normal_form(mz([[2, 0], [0, 3]]))
        assert form.invariant_factors == (1, 6)

    def test_identity(self):
        form = smith_normal_form(Matrix.identity(ZZ, 3))
        assert form.invariant_factors == (1, 1, 1)
        assert smith_views(form)[1] == Matrix.identity(ZZ, 3)

    def test_zero(self):
        form = smith_normal_form(Matrix.zeros(ZZ, 2, 2))
        assert form.invariant_factors == ()
        assert smith_views(form)[1].is_zero()

    def test_empty_shapes(self):
        for r, c in [(0, 0), (0, 3), (3, 0)]:
            form = smith_normal_form(Matrix.zeros(ZZ, r, c))
            assert form.invariant_factors == ()

    def test_oracle_small_random(self):
        rng = random.Random(7)
        for _ in range(200):
            r = rng.randint(1, 5)
            c = rng.randint(1, 5)
            rows = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
            form = smith_normal_form(mz(rows))
            assert list(form.invariant_factors) == naive_diagonal(rows)

    def test_oracle_minor_gcds(self):
        rng = random.Random(11)
        for _ in range(60):
            r = rng.randint(1, 4)
            c = rng.randint(1, 4)
            rows = [[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)]
            form = smith_normal_form(mz(rows))
            assert list(form.invariant_factors) == minor_gcd_divisors(rows)

    def test_transforms_unimodular(self):
        rng = random.Random(13)
        for _ in range(50):
            r = rng.randint(1, 6)
            c = rng.randint(1, 6)
            A = mz([[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)])
            form = smith_normal_form(A)
            U, D, V, Uinv = smith_views(form)
            assert U * A * V == D
            assert abs(determinant(U)) == 1
            assert abs(determinant(V)) == 1
            assert U * Uinv == Matrix.identity(ZZ, r)
            # V is invertible over Z: its columns span Z^c
            assert oracle_column_reduce(V)[0] == Matrix.identity(ZZ, c)
            factors = form.invariant_factors
            for a, b in zip(factors, factors[1:]):
                assert b % a == 0


@st.composite
def presentation_matrices(draw):
    """Presentation-shaped integer matrices up to 10 x 14: mostly zeros, many
    unit entries, empty rows and columns, and columns repeated or negated."""
    r = draw(st.integers(0, 10))
    entry = st.one_of(st.just(0), st.just(0), st.sampled_from((1, -1)), st.integers(-9, 9))
    columns = draw(st.lists(st.lists(entry, min_size=r, max_size=r), max_size=12))
    if columns:
        extra = draw(st.lists(st.tuples(st.integers(0, len(columns) - 1),
                                        st.sampled_from((1, -1))), max_size=2))
        columns += [[k * x for x in columns[j]] for j, k in extra]
    return Matrix.from_columns(ZZ, draw(st.permutations(columns)), rows=r)


@st.composite
def smith_matrices(draw):
    """Integer matrices with entries up to 50 in absolute value, empty shapes,
    zero rows and columns, and rows repeated, negated or doubled; or, as
    often, presentation_matrices."""
    if draw(st.booleans()):
        return draw(presentation_matrices())
    r, c, rows = draw(matrices(st.integers(-50, 50), max_rows=5, max_cols=6))
    zero = draw(st.sets(st.integers(0, max(c - 1, 0)), max_size=c))
    rows = [[0 if j in zero else x for j, x in enumerate(row)] for row in rows]
    if rows:
        extra = draw(st.lists(st.tuples(st.integers(0, r - 1), st.sampled_from((1, -1, 2))),
                              max_size=2))
        rows += [[k * x for x in rows[i]] for i, k in extra]
    return Matrix(ZZ, draw(st.permutations(rows)), len(rows), c)


class TestSmithTransforms:
    """The sparse elimination against the four-transform dense oracle: the
    transforms are not unique, so equal values mean equal pivot steps."""

    @settings(max_examples=300, deadline=None)
    @given(smith_matrices())
    def test_equals_dense_oracle(self, A):
        U, D, V, Uinv, Vinv = dense_smith_normal_form(A)
        assert smith_views(smith_normal_form(A)) == (U, D, V, Uinv)
        assert V * Vinv == Matrix.identity(ZZ, A.cols)

    @settings(max_examples=200, deadline=None)
    @given(smith_matrices(), st.data())
    def test_inverse_columns_are_columns_of_the_full_inverse(self, A, data):
        """module_from_relations reads only the columns of U^-1 it keeps, by
        undoing the elimination's row operations; they are those of the full
        inverse that criterion 01 reads."""
        form = smith_normal_form(A)
        cols = data.draw(st.lists(st.integers(0, max(A.rows - 1, 0)), unique=True,
                                  max_size=A.rows))
        Uinv = dense_smith_normal_form(A)[3]
        assert form.inverse_columns(cols) == _nonzero_columns(Uinv.take_cols(cols))

    def test_inverse_columns_check_the_row_operations(self):
        A = mz([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
        form = smith_normal_form(A)
        Uinv = dense_smith_normal_form(A)[3]
        assert form._row_ops and (form.inverse_columns([0, 2])
                                  == _nonzero_columns(Uinv.take_cols([0, 2])))
        dst, src, q = next(op for op in form._row_ops if op[2])
        form._row_ops[form._row_ops.index((dst, src, q))] = (dst, src, q + 1)
        with pytest.raises(AssertionError, match="do not invert"):
            form.inverse_columns([0, 1, 2])

    def test_inverse_of_a_non_unimodular_transform_raises(self):
        with pytest.raises(AssertionError, match="do not invert"):
            SmithForm([{0: 2}], [{0: 2}], [{0: 1}]).inverse_columns([0])


class TestKernelSolve:
    def test_kernel_saturated(self):
        A = mz([[2, 4]])
        K = dense_kernel(A)
        assert K.cols == 1
        assert K.col(0) in ((2, -1), (-2, 1))
        sat = smith_normal_form(K)
        assert all(f == 1 for f in sat.invariant_factors)

    def test_solve_submodule_examples(self):
        gens = mz([[2, 0], [0, 2]])
        assert solve(gens, (2, 4)) == (1, 2)
        assert solve(gens, (0, 0)) == (0, 0)
        assert solve(gens, (1, 0)) is None
        assert solve(gens.to_ring(QQ), (1, 0)) == (Fraction(1, 2), 0)

    def test_solve_random(self):
        rng = random.Random(3)
        for _ in range(60):
            r = rng.randint(1, 4)
            c = rng.randint(1, 4)
            A = mz([[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)])
            x = [rng.randint(-4, 4) for _ in range(c)]
            b = A.apply(x)
            got = solve(A, b)
            assert got is not None
            assert A.apply(got) == b

    def test_apply_keeps_ring_types(self):
        y = mq([[0, 0], [1, 2]]).apply((1, 3))
        assert y == (0, 7)
        assert all(type(x) is Fraction for x in y)
        z = mz([[1, 0], [0, 0]]).apply((Fraction(4), 5))
        assert z == (4, 0)
        assert all(type(x) is int for x in z)

    def test_apply_rejects_non_integer_over_z(self):
        with pytest.raises(ValueError, match="non-integer"):
            mz([[1, 0], [0, 1]]).apply((Fraction(1, 2), 0))

    def test_coerce_fast_path_keeps_types(self):
        class Small(int):
            pass
        m = Matrix(ZZ, [[True, Small(3), Fraction(4)]])
        assert m.data == ((1, 3, 4),) and all(type(x) is int for x in m.row(0))
        q = Matrix(QQ, [[2, Fraction(1, 2), True]])
        assert all(type(x) is Fraction for x in q.row(0))
        with pytest.raises(ValueError, match="non-integer"):
            Matrix(ZZ, [[Fraction(1, 2)]])

    def test_kernel_q(self):
        A = mq([[1, 2, 3]])
        K = dense_kernel(A)
        assert K.cols == 2
        for j in range(2):
            assert all(x == 0 for x in A.apply(K.col(j)))

    def test_hnf_canonical(self):
        # two generating sets of the same lattice give the same HNF
        A = mz([[2, 1], [0, 2]])
        B = mz([[1, 2, 3], [2, 0, 2]])
        # lattice of A: columns (2,0),(1,2); of B: (1,2),(2,0),(3,2) spans same?
        HA = hnf_columns(A)
        HB = hnf_columns(B)
        # sanity: HNF idempotent and canonical on its own span
        assert hnf_columns(HA) == HA
        assert hnf_columns(HB) == HB


class TestModules:
    def test_presentation_normalization(self):
        mod, _, _ = module_from_relations(ZZ, 2, cols(mz([[2], [0]])))
        assert mod == FgModule(ZZ, 1, (2,))
        mod2, _, _ = module_from_relations(ZZ, 2, cols(mz([[1, 0], [0, 6]])))
        assert mod2 == FgModule(ZZ, 0, (6,))

    def test_tensor(self):
        a = FgModule(ZZ, 1, (2,))
        b = FgModule(ZZ, 1, (4,))
        t = a.tensor(b)
        # (Z + Z/2) (x) (Z + Z/4) = Z + Z/4 + Z/2 + Z/2
        assert t.free_rank == 1
        assert sorted(t.torsion) == [2, 2, 4]

    def test_tensor_matches_dense_oracle(self):
        mods = [FgModule(ZZ, 0), FgModule(ZZ, 2), FgModule(ZZ, 0, (3,)), FgModule(ZZ, 1, (2, 6)),
                FgModule(ZZ, 2, (4,)), FgModule(QQ, 0), FgModule(QQ, 3)]
        for a in mods:
            for b in mods:
                if a.ring == b.ring:
                    assert a.tensor(b) == dense_module_tensor(a, b)

    def test_module_map_wellformed(self):
        src = FgModule(ZZ, 0, (2,))
        tgt = FgModule(ZZ, 0, (4,))
        ModuleMap(src, tgt, mz([[2]]))  # 2*2 = 4 = 0 in Z/4: fine
        with pytest.raises(ValueError):
            ModuleMap(src, tgt, mz([[1]]))  # 2*1 = 2 != 0 in Z/4
        # a dense Matrix and its sparse columns give the same map: equal, with
        # one hash and one dense view, entries reduced in the torsion rows; an
        # ill-defined map is rejected by both with the same ValueError
        rng = random.Random(19)
        mods = [FgModule(ZZ, 0, (2,)), FgModule(ZZ, 0, (4,)), FgModule(ZZ, 1, (2, 6)),
                FgModule.free(ZZ, 2), FgModule.zero(ZZ), FgModule.free(QQ, 2)]
        for a in mods:
            for b in mods:
                if a.ring != b.ring:
                    continue
                for _ in range(12):
                    m = Matrix(a.ring, [[rng.randint(-7, 7) for _ in range(a.ngens)]
                                        for _ in range(b.ngens)], b.ngens, a.ngens)
                    errors = []
                    for given in (m, cols(m)):
                        try:
                            errors.append(ModuleMap(a, b, given))
                        except ValueError as exc:
                            errors.append(str(exc))
                    from_dense, from_sparse = errors
                    if isinstance(from_dense, str):
                        assert from_sparse == from_dense
                        continue
                    assert from_dense == from_sparse
                    assert hash(from_dense) == hash(from_sparse)
                    tt = b.torsion
                    reduced = Matrix(a.ring, [[x % tt[i] if i < len(tt) else x for x in row]
                                              for i, row in enumerate(m.data)], m.rows, m.cols)
                    assert from_dense.matrix == from_sparse.matrix == reduced

    def test_dual(self):
        f = ModuleMap(FgModule.free(ZZ, 2), FgModule.free(ZZ, 2),
                      mz([[1, 2], [3, 4]]))
        assert dual_map(f).matrix == mz([[1, 3], [2, 4]])
        ident = ModuleMap.identity(FgModule.free(ZZ, 3))
        assert dual_map(ident).matrix == Matrix.identity(ZZ, 3)
        with pytest.raises(TorsionPresent):
            dual_map(ModuleMap.identity(FgModule(ZZ, 0, (2,))))

    def test_dual_contravariant(self):
        rng = random.Random(5)
        free3 = FgModule.free(ZZ, 3)
        for _ in range(20):
            f = ModuleMap(free3, free3, mz([[rng.randint(-4, 4) for _ in range(3)]
                                            for _ in range(3)]))
            g = ModuleMap(free3, free3, mz([[rng.randint(-4, 4) for _ in range(3)]
                                            for _ in range(3)]))
            assert dual_map(g.compose(f)) == dual_map(f).compose(dual_map(g))


class TestSubquotient:
    def test_free_trivial(self):
        z2 = FgModule.free(ZZ, 2)
        zin = ModuleMap.zero(FgModule.zero(ZZ), z2)
        zout = ModuleMap.zero(z2, FgModule.zero(ZZ))
        sq = subquotient(zin, zout)
        assert sq.module == FgModule(ZZ, 2)

    def test_presented_example(self):
        # d_in: Z -> Z^2 by (2,0)^T, d_out = 0  =>  Z + Z/2
        z1 = FgModule.free(ZZ, 1)
        z2 = FgModule.free(ZZ, 2)
        d_in = ModuleMap(z1, z2, mz([[2], [0]]))
        d_out = ModuleMap.zero(z2, FgModule.zero(ZZ))
        sq = subquotient(d_in, d_out)
        assert sq.module == FgModule(ZZ, 1, (2,))

    def test_surjective_in(self):
        z1 = FgModule.free(ZZ, 1)
        d_in = ModuleMap(z1, z1, mz([[1]]))
        d_out = ModuleMap.zero(z1, FgModule.zero(ZZ))
        assert subquotient(d_in, d_out).module.is_zero()

    def test_composition_check(self):
        z1 = FgModule.free(ZZ, 1)
        d_in = ModuleMap(z1, z1, mz([[1]]))
        d_out = ModuleMap(z1, z1, mz([[1]]))
        with pytest.raises(CompositionNonzero):
            subquotient(d_in, d_out)

    def test_class_and_lift_roundtrip(self):
        # homology of  Z --(2,0)--> Z^2 --0--> 0
        z1 = FgModule.free(ZZ, 1)
        z2 = FgModule.free(ZZ, 2)
        d_in = ModuleMap(z1, z2, mz([[2], [0]]))
        d_out = ModuleMap.zero(z2, FgModule.zero(ZZ))
        sq = subquotient(d_in, d_out)
        for j in range(sq.module.ngens):
            v = sq.lift(j)
            coords = sq.class_of(v)
            expect = tuple(1 if i == j else 0 for i in range(sq.module.ngens))
            assert dense(coords, sq.module.ngens) == expect

    def test_over_q(self):
        q2 = FgModule.free(QQ, 2)
        d_in = ModuleMap(FgModule.free(QQ, 1), q2, mq([[2], [0]]))
        d_out = ModuleMap.zero(q2, FgModule.zero(QQ))
        sq = subquotient(d_in, d_out)
        assert sq.module == FgModule(QQ, 1)

    def test_modp_oracle(self):
        # compare subquotient cardinality against enumeration over Z/p via
        # torsion presentations:  middle B = (Z/p)^2 presented over Z
        rng = random.Random(17)
        p = 3
        for _ in range(25):
            m_in = [[rng.randint(-2, 2)] for _ in range(2)]
            m_out_row = [[rng.randint(-2, 2), rng.randint(-2, 2)]]
            B = FgModule(ZZ, 0, (p, p))
            A = FgModule.free(ZZ, 1)
            C = FgModule(ZZ, 0, (p,))
            try:
                d_in = ModuleMap(A, B, mz(m_in))
                d_out = ModuleMap(B, C, mz(m_out_row))
            except ValueError:
                continue
            if not d_out.compose(d_in).is_zero_map():
                continue
            sq = subquotient(d_in, d_out)
            size = 1
            for t in sq.module.torsion:
                size *= t
            assert sq.module.free_rank == 0
            oracle = modp_subquotient_size(
                p, 2, [[p, 0], [0, p]], m_in, m_out_row, [[p]])
            assert size == oracle

    def test_free_matrix_helper(self):
        m_in, m_out = mz([[2], [0]]), Matrix.zeros(ZZ, 0, 2)
        sq = Subquotient.free(ZZ, 2, (2,), (), lambda: (cols(m_in), cols(m_out), m_out.rows))
        assert sq.module == FgModule(ZZ, 1, (2,))


# -- fraction-free rref and substitution solves ------------------------------

small_ints = st.integers(-4, 4)
rationals = st.one_of(st.just(0), small_ints,
                      st.fractions(min_value=-3, max_value=3, max_denominator=5))


@st.composite
def matrices(draw, entries, max_rows=6, max_cols=7):
    """Shape (rows, cols) and rows of entries, often with zero rows."""
    r = draw(st.integers(0, max_rows))
    c = draw(st.integers(0, max_cols))
    zero_row = st.just([0] * c)
    row = st.lists(entries, min_size=c, max_size=c)
    return r, c, draw(st.lists(st.one_of(row, row, zero_row), min_size=r, max_size=r))


def eliminating_solver(A):
    """A solver on A plus a zero column: that column has no pivot row, so the
    solve goes through the column reduction of A over the identity."""
    s = solver(A.hstack(Matrix.zeros(A.ring, A.rows, 1)))
    assert s.T is not None
    return s


def assert_paths_agree(B, rhs):
    """The substitution solve of the basis B agrees with elimination on each
    right-hand side, with the ring's entry type."""
    sub = solver(B)
    assert sub.T is None
    elim = eliminating_solver(B)
    kind = int if B.ring == ZZ else Fraction
    for b in rhs:
        x, y = sub.solve(b), elim.solve(b)
        assert (x is None) == (y is None)
        if x is not None:
            assert x == y[:-1]
            assert B.apply(x) == tuple(b)
            assert all(type(v) is kind for v in x)


class TestFractionFreeRref:
    @settings(max_examples=200, deadline=None)
    @given(matrices(rationals))
    def test_matches_dense_oracle(self, shape):
        r, c, rows = shape
        R, pivots = rref(Matrix(QQ, rows, r, c))
        expect, expect_pivots = dense_rref(rows)
        assert pivots == expect_pivots
        assert R.ring == QQ and R.data == tuple(tuple(row) for row in expect)
        assert all(type(x) is Fraction for row in R.data for x in row)

    @settings(max_examples=100, deadline=None)
    @given(matrices(small_ints))
    def test_int_input(self, shape):
        r, c, rows = shape
        R, pivots = rref(Matrix(ZZ, rows, r, c))
        expect, expect_pivots = dense_rref(rows)
        assert (R.data, pivots) == (tuple(tuple(row) for row in expect), expect_pivots)

    def test_empty_shapes(self):
        for r, c in [(0, 0), (0, 3), (3, 0)]:
            R, pivots = rref(Matrix.zeros(QQ, r, c))
            assert (R.rows, R.cols, pivots) == (r, c, ())


class TestSolverPaths:
    @settings(max_examples=60, deadline=None)
    @given(matrices(small_ints), st.randoms(use_true_random=False))
    def test_integer_bases(self, shape, rng):
        r, c, rows = shape
        A = Matrix(ZZ, rows, r, c)
        for B in (dense_kernel(A), hnf_columns(A)):
            rhs = []
            for _ in range(4):
                b = list(B.apply([rng.randint(-3, 3) for _ in range(B.cols)]))
                rhs.append(tuple(b))
                if b:
                    b[rng.randrange(len(b))] += rng.choice((1, 2, -1))
                    rhs.append(tuple(b))
            assert_paths_agree(B, rhs)

    @settings(max_examples=60, deadline=None)
    @given(matrices(rationals), st.randoms(use_true_random=False))
    def test_rational_bases(self, shape, rng):
        r, c, rows = shape
        A = Matrix(QQ, rows, r, c)
        for B in (dense_kernel(A), echelon_columns(A)):
            rhs = []
            for _ in range(4):
                x = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(B.cols)]
                b = list(B.apply(x))
                rhs.append(tuple(b))
                if b:
                    b[rng.randrange(len(b))] += Fraction(1, 2)
                    rhs.append(tuple(b))
            assert_paths_agree(B, rhs)

    def test_divisibility_over_z(self):
        B = hnf_columns(mz([[2, 0], [1, 3]]))
        assert_paths_agree(B, [(2, 1), (1, 0), (0, 3), (0, 1), (4, 5)])
        assert solver(B).solve((1, 0)) is None

    def test_non_triangular_falls_back(self):
        for ring in (ZZ, QQ):
            A = Matrix(ring, [[1, 1], [1, -1]])
            s = solver(A)
            assert s.T is not None
            assert s.solve((2, 0)) == (1, 1)
        assert solver(mz([[1, 1], [1, -1]])).solve((1, 0)) is None
        assert solver(mq([[1, 1], [1, -1]])).solve((1, 0)) == (Fraction(1, 2),) * 2


@st.composite
def integer_matrices(draw):
    """matrices(small_ints) with a drawn set of columns zeroed out."""
    r, c, rows = draw(matrices(small_ints))
    zero = draw(st.sets(st.integers(0, max(c - 1, 0)), max_size=c))
    return Matrix(ZZ, [[0 if j in zero else x for j, x in enumerate(row)]
                       for row in rows], r, c)


@st.composite
def dependent_matrices(draw, ring):
    """A non-echelon A: random columns, one a combination of two others, one
    zero, in a drawn order."""
    entries = small_ints if ring == ZZ else rationals
    r = draw(st.integers(0, 5))
    cols = draw(st.lists(st.lists(entries, min_size=r, max_size=r),
                         min_size=1, max_size=4))
    i, j = draw(st.integers(0, len(cols) - 1)), draw(st.integers(0, len(cols) - 1))
    a, b = draw(entries), draw(entries)
    cols.append([a * x + b * y for x, y in zip(cols[i], cols[j])])
    cols.append([0] * r)
    return Matrix.from_columns(ring, draw(st.permutations(cols)), rows=r)


def solvable_over_q(A, b):
    rows = [list(row) for row in A.data]
    return (len(dense_rref(rows)[1])
            == len(dense_rref([row + [y] for row, y in zip(rows, b)])[1]))


class TestColumnReduction:
    @settings(max_examples=300, deadline=None)
    @given(integer_matrices())
    def test_integer_kernel_equals_smith_oracle(self, A):
        assert dense_kernel(A) == snf_kernel(A)

    def test_integer_kernel_empty_shapes(self):
        for r, c in [(0, 0), (0, 3), (3, 0), (2, 2)]:
            A = Matrix.zeros(ZZ, r, c)
            assert dense_kernel(A) == snf_kernel(A)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from((ZZ, QQ)).flatmap(dependent_matrices),
           st.randoms(use_true_random=False))
    def test_non_echelon_solver_matches_oracle(self, A, rng):
        s = solver(A)
        assert s.T is not None
        kind = int if A.ring == ZZ else Fraction
        rhs = []
        for _ in range(4):
            b = list(A.apply([rng.randint(-3, 3) for _ in range(A.cols)]))
            rhs.append(tuple(b))
            if b:
                b[rng.randrange(len(b))] += rng.choice((1, 2, -1))
                rhs.append(tuple(b))
        for b in rhs:
            x = s.solve(b)
            if A.ring == ZZ:
                assert (x is not None) == snf_solvable(A, b)
            else:
                assert (x is not None) == solvable_over_q(A, b)
            if x is not None:
                assert len(x) == A.cols and all(type(v) is kind for v in x)
                assert A.apply(x) == b


def ring_matrices(ring):
    entries = small_ints if ring == ZZ else rationals
    return matrices(entries).map(lambda shape: Matrix(ring, shape[2], shape[0], shape[1]))


any_ring_matrices = st.sampled_from((ZZ, QQ)).flatmap(
    lambda ring: st.one_of(ring_matrices(ring), dependent_matrices(ring)))


@st.composite
def coarse_lattices(draw):
    """integer_matrices() with drawn columns multiplied by 2 or 3, so the
    Hermite basis of the lattice often has a column of content g > 1."""
    A = draw(integer_matrices())
    f = [draw(st.sampled_from((1, 2, 3))) for _ in range(A.cols)]
    return Matrix(ZZ, [[x * k for x, k in zip(row, f)] for row in A.data], A.rows, A.cols)


def reader_rhs(A, rng):
    """Right-hand sides for A: in the span, moved off it at one entry, and
    over Z, for each column of content g > 1, that column over g (in the
    span over Q; in the lattice only if another column makes up the rest)."""
    rhs, z = [], A.ring == ZZ
    for _ in range(3):
        x = [rng.randint(-3, 3) if z else Fraction(rng.randint(-3, 3), rng.randint(1, 3))
             for _ in range(A.cols)]
        b = list(A.apply(x))
        rhs.append(tuple(b))
        if b:
            b[rng.randrange(len(b))] += rng.choice((1, 2, -1) if z else (1, Fraction(1, 2)))
            rhs.append(tuple(b))
    for j in range(A.cols if z else 0):
        g = gcd(*A.col(j))
        if g > 1:
            rhs.append(tuple(v // g for v in A.col(j)))
            rhs.append(tuple(v // g + w for v, w in zip(A.col(j), rhs[0])))
    return rhs


def assert_reads_like_oracle(A, rhs, shaped):
    """_Solver.solve and _Solver.coordinates on A against DenseSolver: the
    same verdict on every b, A x = b, the unique x when A's columns are a
    basis the reader takes as it is (shaped), and coordinates that rebuild b
    from the kept integer columns and scales."""
    s, oracle = solver(A), DenseSolver(A)
    assert (s.T is None) == shaped
    kind = int if A.ring == ZZ else Fraction
    for b in rhs:
        x, y = s.solve(b), oracle.solve(b)
        assert (x is None) == (y is None)
        if x is not None:
            assert A.apply(x) == tuple(b) and all(type(v) is kind for v in x)
            assert not shaped or x == y
        d = lcm(*(Fraction(v).denominator for v in b))
        c = s.coordinates({i: int(v * d) for i, v in enumerate(b) if v}, d)
        assert (c is None) == (y is None)
        if c is not None:
            assert all(c.values())
            got = [0] * len(b)
            for k, v in c.items():
                for i, w in s.columns[k].items():
                    got[i] += v * Fraction(w, s.scales[k])
            assert got == list(b)
            assert not shaped or tuple(c.get(k, 0) for k in range(A.cols)) == y


class TestOneReader:
    """The one coordinate reader against the dense row-substitution oracle,
    on each basis shape it reads directly and on the fallback."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.tuples(coarse_lattices().map(hnf_columns), st.just(True)),
                     st.tuples(integer_matrices().map(dense_kernel), st.just(True)),
                     st.tuples(dependent_matrices(ZZ), st.just(False))),
           st.randoms(use_true_random=False))
    def test_integer_reader_matches_oracle(self, case, rng):
        A, shaped = case
        assert_reads_like_oracle(A, reader_rhs(A, rng), shaped)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.tuples(ring_matrices(QQ).map(echelon_columns), st.just(True)),
                     st.tuples(ring_matrices(QQ).map(dense_kernel), st.just(True)),
                     st.tuples(dependent_matrices(QQ), st.just(False))),
           st.randoms(use_true_random=False))
    def test_rational_reader_matches_oracle(self, case, rng):
        A, shaped = case
        assert_reads_like_oracle(A, reader_rhs(A, rng), shaped)


@st.composite
def repeated_columns(draw):
    """An integer matrix with some of its columns repeated, negated or
    doubled, in a drawn order."""
    A = draw(st.one_of(integer_matrices(), nonunit_matrices()))
    cols = [A.col(j) for j in range(A.cols)]
    if cols:
        extra = draw(st.lists(st.tuples(st.integers(0, len(cols) - 1),
                                        st.sampled_from((1, -1, 2))), max_size=3))
        cols += [tuple(k * x for x in cols[j]) for j, k in extra]
    return Matrix.from_columns(ZZ, draw(st.permutations(cols)), rows=A.rows)


class TestEchelon:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(integer_matrices(), repeated_columns()))
    def test_hnf_columns_equals_dense_oracle(self, A):
        expect = dense_hnf_columns([list(row) for row in A.data])
        assert hnf_columns(A) == Matrix.from_columns(ZZ, expect, rows=A.rows)

    def test_hnf_columns_examples(self):
        for r, c in [(0, 0), (0, 3), (3, 0), (2, 2)]:
            assert hnf_columns(Matrix.zeros(ZZ, r, c)) == Matrix.zeros(ZZ, r, 0)
        # pivots made positive, entries above them reduced into [0, pivot)
        assert hnf_columns(mz([[-2, 1], [0, -3]])) == mz([[1, 0], [3, 6]])
        assert hnf_columns(mz([[4, 0], [7, -3]])) == mz([[4, 0], [1, 3]])

    @settings(max_examples=300, deadline=None)
    @given(any_ring_matrices)
    def test_column_reduce_equals_oracle(self, A):
        H, T, K = column_reduce(A)
        assert A * T == H
        assert (A * K).is_zero()
        assert (H, T, K) == oracle_column_reduce(A)

    @settings(max_examples=200, deadline=None)
    @given(ring_matrices(QQ))
    def test_rational_kernel_is_the_free_column_basis(self, A):
        R, pivots = dense_rref([list(row) for row in A.data])
        basis = []
        for f in (j for j in range(A.cols) if j not in pivots):
            v = [Fraction(int(j == f)) for j in range(A.cols)]
            for i, p in enumerate(pivots):
                v[p] = -R[i][f]
            basis.append(v)
        assert dense_kernel(A) == Matrix.from_columns(QQ, basis, rows=A.cols)


class TestTorsionTarget:
    def build(self):
        # Z --(4,0)--> Z^2 --(x+y mod 2, 0)--> Z/2 + Z: the cycles are the
        # lattice x + y even, a kernel basis cut to the rows of Z^2
        d_in = ModuleMap(FgModule.free(ZZ, 1), FgModule.free(ZZ, 2), mz([[4], [0]]))
        d_out = ModuleMap(FgModule.free(ZZ, 2), FgModule(ZZ, 1, (2,)),
                          mz([[1, 1], [0, 0]]))
        return subquotient(d_in, d_out)

    def test_class_of_lift_round_trips(self):
        sq = self.build()
        assert sq.module == FgModule(ZZ, 1, (2,))
        for j in range(sq.module.ngens):
            expect = tuple(int(i == j) for i in range(sq.module.ngens))
            assert dense(sq.class_of(sq.lift(j)), sq.module.ngens) == expect
        assert sq._solver.T is None

    def test_non_cycle_raises(self):
        sq = self.build()
        with pytest.raises(ValueError, match="not a cycle"):
            sq.class_of(vec((1, 0)))


# -- sparse elementary divisors and lazy subquotients --------------------------

@st.composite
def nonunit_matrices(draw):
    """integer_matrices() with at least one entry outside {0, 1, -1}, so the
    elimination leaves a residual for smith_normal_form."""
    A = draw(integer_matrices())
    rows = [list(r) for r in A.data]
    if rows and A.cols:
        i, j = draw(st.integers(0, A.rows - 1)), draw(st.integers(0, A.cols - 1))
        rows[i][j] = draw(st.sampled_from((2, -2, 3, 4, -6)))
    return Matrix(ZZ, rows, A.rows, A.cols)


@st.composite
def residual_matrices(draw):
    """Integer matrices of up to 5 x 5 with no unit entry and drawn rows and
    columns zeroed out: the shape of what unit pivots leave."""
    r, c = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entries = st.one_of(st.just(0), st.integers(-30, 30).filter(lambda x: abs(x) > 1))
    rows = draw(st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r))
    zero_rows = draw(st.sets(st.integers(0, max(r - 1, 0)), max_size=r))
    zero_cols = draw(st.sets(st.integers(0, max(c - 1, 0)), max_size=c))
    return Matrix(ZZ, [[0 if i in zero_rows or j in zero_cols else x
                        for j, x in enumerate(row)] for i, row in enumerate(rows)], r, c)


class TestElementaryDivisors:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(integer_matrices(), nonunit_matrices()))
    def test_equals_naive_diagonal(self, A):
        rows = [list(r) for r in A.data]
        assert elementary_divisors(ZZ, cols(A)) == tuple(naive_diagonal(rows))

    @settings(max_examples=100, deadline=None)
    @given(nonunit_matrices().filter(lambda A: A.rows <= 4 and A.cols <= 5))
    def test_equals_minor_gcds(self, A):
        rows = [list(r) for r in A.data]
        assert elementary_divisors(ZZ, cols(A)) == tuple(minor_gcd_divisors(rows))

    @settings(max_examples=200, deadline=None)
    @given(matrices(rationals))
    def test_rational_rank(self, shape):
        r, c, rows = shape
        rank = len(dense_rref(rows)[1])
        assert elementary_divisors(QQ, cols(Matrix(QQ, rows, r, c))) == (1,) * rank

    def test_empty_shapes(self):
        for r, c in [(0, 0), (0, 3), (3, 0), (2, 2)]:
            for ring in (ZZ, QQ):
                assert elementary_divisors(ring, cols(Matrix.zeros(ring, r, c))) == ()

    def test_residual_only_when_no_unit_is_left(self, monkeypatch):
        import tannakit.linalg as linalg
        seen = []
        real = linalg._residual_divisors
        monkeypatch.setattr(linalg, "_residual_divisors",
                            lambda rows: seen.append(rows) or real(rows))

        def dense(rows):
            cols = sorted({c for r in rows for c in r})
            return tuple(tuple(r.get(c, 0) for c in cols) for r in rows)
        assert elementary_divisors(ZZ, cols(mz([[1, 1, 0], [1, -1, 0], [0, 0, 4]]))) == (1, 2, 4)
        assert [dense(rows) for rows in seen] == [((-2, 0), (0, 4))]
        seen.clear()
        assert elementary_divisors(ZZ, cols(mz([[1, 0], [1, 1]]))) == (1, 1)
        assert seen == []

    @settings(max_examples=300, deadline=None)
    @given(residual_matrices())
    def test_residual_divisors_equal_smith_form(self, A):
        _, D, _, _, _ = dense_smith_normal_form(A)
        factors = tuple(D[i, i] for i in range(min(A.rows, A.cols)) if D[i, i])
        rows = [{j: x for j, x in enumerate(row) if x} for row in A.data]
        assert _residual_divisors(rows) == factors
        assert rows == [{j: x for j, x in enumerate(row) if x} for row in A.data]

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from((ZZ, QQ)).flatmap(ring_matrices))
    def test_cokernel_equals_module_from_relations(self, A):
        assert (FgModule.cokernel(A.ring, cols(A), A.rows)
                == module_from_relations(A.ring, A.rows, cols(A))[0])


class TestLazySubquotient:
    def lazy(self, div_in=(2,), div_out=(1,)):
        # Z^2 --[[2, 0], [2, 0]]--> Z^2 --[1, -1]--> Z: H = Z/2 in the middle,
        # with the elementary divisors (2,) and (1,) of the two boundaries
        m_in, m_out = mz([[2, 0], [2, 0]]), mz([[1, -1]])
        return Subquotient.free(ZZ, 2, div_in, div_out, lambda: (
            cols(m_in), cols(m_out), m_out.rows))

    def test_module_before_basis(self):
        sq = self.lazy()
        assert sq.module == FgModule(ZZ, 0, (2,))
        assert sq._build is not None
        assert sq.class_of(vec((1, 1))) == vec((1,))
        assert sq._build is None
        assert sq.class_of(sq.lift(0)) == vec((1,))

    def test_corrupted_divisors_trip_the_basis_check(self):
        assert self.lazy((2,), (1,)).class_of(vec((1, 1))) == vec((1,))
        for div_in, div_out in [((1,), (1,)), ((4,), (1,)), ((2,), ())]:
            sq = self.lazy(div_in, div_out)
            with pytest.raises(AssertionError, match="elementary divisors"):
                sq.class_of(vec((1, 1)))
            with pytest.raises(AssertionError, match="elementary divisors"):
                sq.lift(0)

    @staticmethod
    def presented():
        """(build, module) pairs of presented subquotients with torsion, and
        the module complex Z --2--> Z of the last one: Z --(4,0)--> Z^2
        --(x+y mod 2, 0)--> Z/2 + Z, then Z/2 + Z/3 with no maps, then the
        homology of that complex in degree 0."""
        z1, z2 = FgModule.free(ZZ, 1), FgModule.free(ZZ, 2)
        d_in = ModuleMap(z1, z2, mz([[4], [0]]))
        d_out = ModuleMap(z2, FgModule(ZZ, 1, (2,)), mz([[1, 1], [0, 0]]))
        mc = ModuleComplex(ZZ, {0: z1, 1: z1}, {1: ModuleMap(z1, z1, mz([[2]]))})
        return [
            (lambda: subquotient(d_in, d_out), FgModule(ZZ, 1, (2,))),
            (lambda: presented(Matrix.zeros(ZZ, 2, 0), mz([[2, 0], [0, 3]]),
                               Matrix.zeros(ZZ, 0, 2), Matrix.zeros(ZZ, 0, 0)),
             FgModule(ZZ, 0, (6,))),
            (lambda: subquotient(mc.differential(1), mc.differential(0)), FgModule(ZZ, 0, (2,))),
        ], mc

    def test_presented_module_needs_no_smith_form(self, monkeypatch):
        """The module of a presented subquotient, and so ModuleComplex's
        homology, comes from elementary divisors; the Smith form with its
        transforms is built on the first class_of or lift, once, and gives
        the same module."""
        forms, real = None, smith.smith_normal_form

        def counted(A):
            if forms is None:
                raise AssertionError("Smith form built for a module")
            forms.append(A)
            return real(A)
        monkeypatch.setattr(smith, "smith_normal_form", counted)
        cases, mc = self.presented()
        built = [(build(), module) for build, module in cases]
        assert [sq.module for sq, _ in built] == [module for _, module in built]
        assert [mc.homology(n) for n in (0, 1)] == [FgModule(ZZ, 0, (2,)), FgModule.zero(ZZ)]
        forms = []
        for sq, module in built:
            count = len(forms)
            for j in range(module.ngens):
                unit = tuple(int(i == j) for i in range(module.ngens))
                assert sq.class_of(sq.lift(j)) == module.normalize_vector(vec(unit))
            assert len(forms) == count + 1 and sq._build is None

    def test_corrupted_cokernel_trips_the_lazy_check(self, monkeypatch):
        cases, _ = self.presented()
        real = FgModule.cokernel.__func__
        monkeypatch.setattr(FgModule, "cokernel", classmethod(
            lambda cls, ring, columns, rows: FgModule(
                ZZ, real(cls, ring, columns, rows).free_rank + 1)))
        for build, module in cases:
            sq = build()
            assert sq.module != module
            with pytest.raises(AssertionError, match="elementary divisors"):
                sq.lift(0)


# -- the sparse kernel and cycle bases against dense oracles --------------------

def oracle_integer_kernel(A):
    """The Hermite basis of ker(A) over Z by the dense oracles, as sparse
    columns: the columns of V past the rank of the Smith form U A V = D, put
    in Hermite form by dense Euclid steps."""
    _, D, V, _, _ = dense_smith_normal_form(A)
    rank = sum(1 for i in range(min(D.rows, D.cols)) if D[i, i])
    rows = [list(row[rank:]) for row in V.data]
    return [{i: x for i, x in enumerate(col) if x} for col in dense_hnf_columns(rows)]


def oracle_free_column_kernel(A):
    """The free-column kernel basis of the reduced row echelon form of A, by
    dense_rref, as sparse columns."""
    R, pivots = dense_rref([list(row) for row in A.data])
    basis = []
    for f in (j for j in range(A.cols) if j not in pivots):
        v = {f: Fraction(1)}
        for i, p in enumerate(pivots):
            if R[i][f]:
                v[p] = -R[i][f]
        basis.append(v)
    return basis


@st.composite
def chain_pairs(draw):
    """(ring, d_in, d_out) with d_out d_in = 0: d_out drawn, d_in its Hermite
    kernel basis times a drawn integer matrix, over Q with each column
    scaled by a drawn fraction."""
    ring = draw(st.sampled_from((ZZ, QQ)))
    d_out = draw(st.one_of(integer_matrices(), nonunit_matrices()))
    K = Matrix.from_sparse(ZZ, oracle_integer_kernel(d_out), d_out.cols)
    c = draw(st.integers(0, 4))
    d_in = K * Matrix(ZZ, [[draw(small_ints) for _ in range(c)] for _ in range(K.cols)],
                      K.cols, c)
    if ring == QQ:
        scales = [Fraction(draw(st.integers(1, 3)), draw(st.integers(1, 3))) for _ in range(c)]
        d_in = Matrix(QQ, [[x * f for x, f in zip(row, scales)] for row in d_in.data],
                      d_in.rows, c)
        d_out = d_out.to_ring(QQ)
    return ring, d_in, d_out


class TestSparseKernel:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(integer_matrices(), nonunit_matrices(), repeated_columns()))
    def test_integer_kernel_equals_dense_hermite_oracle(self, A):
        assert kernel(ZZ, _nonzero_columns(A), A.rows) == oracle_integer_kernel(A)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(ring_matrices(QQ), dependent_matrices(QQ)))
    def test_rational_kernel_equals_dense_echelon_oracle(self, A):
        """The free-column basis, column for column; read backwards on the
        matrix read backwards, the reduced column echelon basis of the
        kernel (the End algebra's Q basis)."""
        cols, n = _nonzero_columns(A), A.cols
        K = kernel(QQ, cols, A.rows)
        assert K == oracle_free_column_kernel(A)
        back = [{n - 1 - i: x for i, x in c.items()} for c in kernel(QQ, cols[::-1], A.rows)]
        assert back[::-1] == _nonzero_columns(echelon_columns(Matrix.from_sparse(QQ, K, n)))

    def test_integral_copies_integer_vectors(self):
        """Each vector scaled by the lcm of its denominators to ints; one
        that holds only ints comes back equal, in a dict of its own."""
        ints = {0: 3, 4: -6}
        out = _integral([ints, {1: Fraction(1, 2), 2: Fraction(3)}, {}, {0: Fraction(4)}])
        assert out == [{0: 3, 4: -6}, {1: 1, 2: 6}, {}, {0: 4}]
        assert all(type(x) is int for v in out for x in v.values())
        out[0][0] = 5
        assert ints == {0: 3, 4: -6}

    @settings(max_examples=200, deadline=None)
    @given(chain_pairs(), st.randoms(use_true_random=False))
    def test_free_subquotient_equals_presented_subquotient(self, case, rng):
        """Subquotient.free and presented_subquotient on the sparse columns
        of the same boundaries give one module, the same lifts, cycles of
        d_out, and the same classes: those of the drawn coordinates, and
        those DenseSolver reads off the dense lifts and boundaries."""
        ring, d_in, d_out = case
        n = d_out.cols
        pres = presented(d_in, Matrix.zeros(ring, n, 0), d_out, Matrix.zeros(ring, d_out.rows, 0))
        sq = Subquotient.free(ring, n, elementary_divisors(ring, cols(d_in)),
                              elementary_divisors(ring, cols(d_out)),
                              lambda: (cols(d_in), cols(d_out), d_out.rows))
        assert sq.module == pres.module
        g = sq.module.ngens
        lifts = [sq.lift(j) for j in range(g)]
        assert lifts == [pres.lift(j) for j in range(g)]
        assert not any(any(d_out.apply(dense(z, n))) for z in lifts)
        oracle = DenseSolver(Matrix.from_sparse(ring, lifts, n).hstack(d_in))
        for _ in range(4):
            # a drawn combination of the lifts plus a drawn boundary
            x = [rng.randint(-3, 3) for _ in lifts]
            b = d_in.apply([rng.randint(-2, 2) for _ in range(d_in.cols)])
            v = tuple(y + sum(a * z.get(i, 0) for a, z in zip(x, lifts))
                      for i, y in enumerate(b))
            expect = sq.module.normalize_vector(vec(x))
            assert sq.class_of(vec(v)) == pres.class_of(vec(v)) == expect
            assert sq.module.normalize_vector(vec(oracle.solve(v)[:g])) == expect


# -- tensor-factor swaps as row and column reorders ---------------------------

@st.composite
def swap_cases(draw):
    """A ring, a shape (a, b, c, d) and a matrix with a*b*c*d rows."""
    ring = draw(st.sampled_from((ZZ, QQ)))
    dims = draw(st.tuples(*[st.integers(0, 3)] * 4))
    size = dims[0] * dims[1] * dims[2] * dims[3]
    width = draw(st.integers(0, 3))
    row = st.lists(small_ints, min_size=width, max_size=width)
    return ring, dims, Matrix(ring, draw(st.lists(row, min_size=size, max_size=size)),
                              size, width)


class TestTensorSwap:
    @settings(max_examples=150, deadline=None)
    @given(swap_cases())
    def test_reorders_match_permutation_products(self, case):
        ring, dims, M = case
        P = Matrix(ring, middle_swap_matrix(*dims), M.rows, M.rows)
        order = tensor_swap(*dims)
        assert M.take_rows(order) == P * M
        N = M.transpose()
        assert N.take_cols(order) == N * P.transpose()

    @pytest.mark.parametrize("ring", [ZZ, QQ])
    def test_swap_matrix_is_the_flip(self, ring):
        """The flip v (x) w -> w (x) v is a column reorder by tensor_swap."""
        for left in range(4):
            for right in range(4):
                flip = Matrix(ring, middle_swap_matrix(1, left, right, 1),
                              left * right, left * right)
                M = Matrix(ring, [list(range(k, k + left * right)) for k in range(2)],
                           2, left * right)
                assert M.take_cols(tensor_swap(1, right, left, 1)) == M * flip
