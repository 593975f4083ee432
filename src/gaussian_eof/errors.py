"""Exception hierarchy.

An input fault is a DomainError (an argument outside the domain,
non-finite numbers included) or an InvalidState (no bona fide state).
Numerical errors signal a failed solve on otherwise valid input;
verification errors signal that a cross-check caught an inconsistency.
The CLI maps these groups to exit codes 1, 2 and 3.
"""


class GaussianEofError(Exception):
    """Base class for all library errors."""


# --- input validation ---

class DomainError(GaussianEofError):
    """Argument outside the mathematical domain of an operation."""


class InvalidState(GaussianEofError):
    """Inputs describe no bona fide state, or internal consistency failed."""


# --- numerical failures ---

class NoRoot(GaussianEofError):
    """Bracketed search found no sign change (invalid input parameters)."""


class Degenerate(GaussianEofError):
    """Pure-state limit where the critical Duan parameter is indeterminate."""


class Infeasible(GaussianEofError):
    """Constrained minimization has no feasible point."""


class NotPsd(GaussianEofError):
    """Decomposition weight matrix has a negative eigenvalue beyond tolerance."""


# --- verification failures ---

class SandwichViolation(GaussianEofError):
    """EOF fell outside the lower/upper bound sandwich; implementation bug."""


INPUT_ERRORS = (DomainError, InvalidState)
NUMERICAL_ERRORS = (NoRoot, Degenerate, Infeasible, NotPsd)
VERIFICATION_ERRORS = (SandwichViolation,)
