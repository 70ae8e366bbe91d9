"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: argument/domain problems exit 2,
numerical failures exit 3, I/O failures exit 4.
"""


class RindlerSpinError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(RindlerSpinError, ValueError):
    """An argument lies outside the physical domain of an operation."""


class ValidationError(RindlerSpinError, ValueError):
    """A state object violates its structural invariants."""


class NumericError(RindlerSpinError, RuntimeError):
    """A numerical routine failed to reach its accuracy target.

    Carries the offending residual estimate when one is available.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class IntegrationInstabilityError(NumericError):
    """Fixed-step integration left the physical state space; reduce dt."""


class BlochBoundWarning(UserWarning):
    """Coefficients lie outside the generalized Bloch ball (unphysical state)."""
