"""Exception hierarchy shared by all fiberprod modules."""


class FiberprodError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(FiberprodError):
    """An input violated a documented invariant. CLI exit code 1."""


class NotAUnit(ValidationError):
    """Series inversion requires a constant term of 1 or -1."""


class OrderMismatch(ValidationError):
    """Truncation orders are incompatible for the requested operation."""


class ZeroModule(ValidationError):
    """A Poincare series with constant term 0 describes the zero module."""


class TrivialFiberProduct(ValidationError):
    """Nontriviality (beta_1 of the common quotient over both factors) failed."""


class InvalidBetti(ValidationError):
    """A Betti sequence for a cyclic module must start with beta_0 = 1."""


class InvalidDenominator(ValidationError):
    """Denominator coefficients must satisfy b_0 = 1 and b_i <= 0 for i >= 1."""


class IndexOutOfRange(ValidationError):
    """A requested homological index exceeds the supplied data."""


class BudgetExceeded(FiberprodError):
    """A resolution hit its internal-degree budget before completing, or a
    result has an integer with more digits than the interpreter prints.

    CLI exit code 2.  ``partial`` carries whatever result was computed.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class InternalInconsistency(FiberprodError):
    """A cross-check inside the tool itself failed. CLI exit code 3."""
