"""Dense <-> sparse for the tests.  tannakit passes every map, presentation
and coordinate vector as sparse columns {row: entry} and sparse vectors
{index: entry} over their nonzeros; many tests write their inputs and
expected values as dense matrices and tuples."""

from tannakit.maps import _nonzero_columns, _Solver, presented_subquotient

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
