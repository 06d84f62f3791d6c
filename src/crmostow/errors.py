"""Exception taxonomy shared across the library.

Every library-specific failure derives from :class:`CrmostowError` so callers
(and the CLI, which maps exception types to exit codes) can distinguish
domain errors from programming errors.
"""

from __future__ import annotations


class CrmostowError(Exception):
    """Base class for all library-specific errors."""


class ClosureError(CrmostowError):
    """A vector span failed to be closed under the matrix commutator.

    Attributes
    ----------
    left, right:
        The two basis elements whose commutator escaped the span, when known.
    """

    def __init__(self, message: str, left=None, right=None):
        super().__init__(message)
        self.left = left
        self.right = right


class IrrationalWeightsError(CrmostowError):
    """An element of a radical has an eigenvalue outside the Gaussian rationals."""


class NonConvergenceError(CrmostowError):
    """An iterative numerical solver exhausted its budget without converging."""


class RestartDisagreementError(CrmostowError):
    """Optimizer restarts disagreed where the decomposition is provably unique."""
