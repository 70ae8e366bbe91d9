"""Exception hierarchy shared by all modules: one library error per exit code.

The CLI maps these onto exit codes: ``DomainError`` (an argument outside
an operation's domain, or a state that breaks its invariants) exits 2,
``NumericError`` (a numerical failure) exits 3, and an ``OSError`` from
writing the output file or a closed stdout exits 4.
"""


class RindlerSpinError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(RindlerSpinError, ValueError):
    """An argument lies outside the domain of an operation, or a state object
    violates its structural invariants."""


class NumericError(RindlerSpinError, RuntimeError):
    """A numerical routine failed to reach its accuracy target.

    Carries the offending residual estimate when one is available.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class BlochBoundWarning(UserWarning):
    """Coefficients lie outside the generalized Bloch ball (unphysical state)."""
