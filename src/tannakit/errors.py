"""Exception types shared across the toolkit.

Exit-code convention for the CLI: InputError subclasses mean malformed
input (exit 1), CheckFailed subclasses mean a mathematical check did not
hold (exit 2).  Everything derives from TannakitError.
"""


class TannakitError(Exception):
    pass


class InputError(TannakitError):
    """Malformed or inconsistent input data."""


class CheckFailed(TannakitError):
    """A mathematical condition that should hold was violated."""


# exact-linalg
class CompositionNonzero(CheckFailed):
    """d_out composed with d_in is not zero."""


class TorsionPresent(InputError):
    """An operation requiring free modules met torsion."""


# simplicial
class InvalidPair(InputError):
    """Z is not a subcomplex of X."""


class NotPairMap(InputError):
    """The map does not send Z into Z'."""


class NotNested(InputError):
    """X >= Z >= W fails."""


class NotACover(InputError):
    """The union of the cover sets is not the whole complex."""


class NotSimplicial(InputError):
    """A vertex assignment does not send simplices to simplices."""


# filtration
class InvalidFiltration(InputError):
    """Levels not nested, wrong top level, or dimension bound broken."""


class TorsionTerm(CheckFailed):
    """A filtration-complex term has torsion although free terms were demanded."""


class BudgetExceeded(TannakitError):
    """The refinement search ran out of its candidate budget."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


# tannaka
class NonFreeVertex(InputError):
    """A subdiagram vertex carries a non-free module."""


class AxiomViolation(CheckFailed):
    """A coalgebra/comodule axiom failed on data that should satisfy it."""


# bialgebra
class NotGoodPair(InputError):
    """A vertex involved in a Kunneth isomorphism is not a good pair."""


class ProductEscape(CheckFailed):
    """Restriction to product vertices left the expected tensor subspace."""


class MissingProducts(InputError):
    """A required product vertex or tau datum is absent."""


class WrongRank(InputError):
    """A designated vertex does not have the required rank."""


# comodule
class DimensionMismatch(InputError):
    """Coaction matrix dimensions do not fit coalgebra and module."""
