"""Exception types raised across the library."""


class QlossError(Exception):
    """Base class for all library errors."""


class NotHermitianError(QlossError):
    """Matrix expected to be Hermitian is not, beyond tolerance."""


class NotPSDError(QlossError):
    """Matrix expected to be positive semidefinite has a negative eigenvalue."""


class ConvergenceFailureError(QlossError):
    """An iterative matrix factorization (SVD) failed to converge."""


class InvalidDimensionError(QlossError):
    """A subsystem dimension is outside the supported range."""


class DimensionMismatchError(QlossError):
    """Operand shapes or subsystem dimensions are inconsistent."""


class InvalidSubsystemError(QlossError):
    """A subsystem index does not address an existing subsystem."""


class RankDeficientError(QlossError):
    """A marginal is rank deficient where full local rank is required."""


class NoConvergenceError(QlossError):
    """Normal-form filtering did not reach the target.

    ``reason`` says why it stopped: ``cap`` (the iteration cap), ``stalled``
    (marginals frozen above the tolerance), ``breakdown`` (a marginal left
    the PSD cone or the state collapsed) or ``no_normal_form`` (a rank-2
    state whose pencil has no normal form; decided before any step).
    """

    def __init__(self, message, iterations=None, reason=None):
        super().__init__(message)
        self.iterations = iterations
        self.reason = reason


class KetSyntaxError(QlossError):
    """Ket expression could not be parsed; carries the byte offset of the fault."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class LabelOutOfRangeError(QlossError):
    """A basis label in a ket expression is >= the subsystem dimension."""


class EmptyStateError(QlossError):
    """Expression or amplitude vector describes no state (empty or zero norm)."""


class DegenerateFamilyError(QlossError):
    """Family parameters leave the state undefined."""


class InvalidParamsError(QlossError):
    """Constructor parameters violate the family's constraints."""


class StateFileError(QlossError):
    """A state file does not follow the expected text format."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line
