"""Dense <-> sparse for the tests.  tannakit passes every map, presentation
and coordinate vector as sparse columns {row: entry} and sparse vectors
{index: entry} over their nonzeros; many tests write their inputs and
expected values as dense matrices and tuples, and the dense oracles read
the maps tannakit keeps sparse through mat and the views built on it."""

from tannakit.linalg import ZZ
from tannakit.maps import _nonzero_columns, _Solver, presented_subquotient
from tannakit.matrix import Matrix

cols = _nonzero_columns


def vec(t):
    """The nonzeros {i: x} of a dense vector."""
    return {i: x for i, x in enumerate(t) if x}


def dense(v, n):
    """The tuple of length n of a sparse vector {i: x}."""
    return tuple(v.get(i, 0) for i in range(n))


def solver(A):
    """The _Solver of a dense Matrix A."""
    return _Solver(A.ring, cols(A), A.rows)


def solve(A, b):
    """One exact x with A x = b for a dense Matrix A and tuple b, or None."""
    return solver(A).solve(b)


def presented(m_in, rel_b, m_out, rel_c):
    """presented_subquotient of the dense maps m_in into and m_out out of B
    and the dense relations rel_b of B and rel_c of m_out's target."""
    return presented_subquotient(m_out.ring, m_out.cols, cols(m_in) + cols(rel_b),
                                 cols(m_out) + cols(rel_c), m_out.rows)


def mat(ring, columns, rows):
    """The dense Matrix of sparse columns {row: entry} with rows rows."""
    return Matrix.from_sparse(ring, columns, rows)


def rho_matrix(co):
    """A Comodule's (n k) x k coaction."""
    return mat(co.coalgebra.ring, co.columns, co.coalgebra.rank * co.ngens)


def delta_matrix(A):
    """A CoalgebraTrunc's rank^2 x rank comultiplication."""
    return mat(A.ring, A.delta_columns, A.rank * A.rank)


def counit_matrix(A):
    """A CoalgebraTrunc's 1 x rank counit."""
    return mat(A.ring, A.counit_columns, 1)


def tau_matrix(t, inverse=False):
    """A TauIso, or its inverse, as a square Matrix."""
    return mat(t.ring, t.inverse_columns if inverse else t.columns, len(t.columns))


def mu_matrix(m):
    """A MuFragment: dim H x (dim F dim G)."""
    return mat(m.EH.ring, m.columns, m.EH.dim)


def transition_matrix(t):
    """A TransitionMap: rank A_G x rank A_F."""
    return mat(t.target.ring, t.columns, t.target.rank)


def basis_matrix(E):
    """An EndAlgebra's basis columns: total x dim."""
    return mat(E.ring, E.basis_columns, E.total)


def component_matrix(E, i, v):
    """The block at vertex v of E's basis family i: r x r, entry (a, b) at
    flat index offsets[v] + a r + b."""
    r, off, col = E.rep.rank(v), E.offsets[v], E.basis_columns[i]
    return mat(E.ring, [{a: col.get(off + a * r + b, 0) for a in range(r)} for b in range(r)], r)


def smith_views(form):
    """(U, D, V, U^-1) of a SmithForm: its sparse rows as Matrices, and
    U^-1 read column by column by inverse_columns."""
    m, n = len(form.u_rows), len(form.v_rows)
    return (mat(ZZ, form.u_rows, m).transpose(), mat(ZZ, form.d_rows, n).transpose(),
            mat(ZZ, form.v_rows, n).transpose(), mat(ZZ, form.inverse_columns(range(m)), m))


def boundary_matrix(cc, d):
    """A ChainComplex's boundary of degree d: rank(d - 1) x rank(d)."""
    return mat(cc.ring, cc.columns(d), cc.rank(d - 1))


def chain_matrix(f, d):
    """A ChainMap's degree d, read off its images of the basis chains."""
    return mat(f.source.ring, [f.apply(d, {j: 1}) for j in range(f.source.rank(d))],
               f.target.rank(d))
