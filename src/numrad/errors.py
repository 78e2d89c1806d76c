"""Exception types shared across the package."""


class NumradError(Exception):
    """Base class for all errors raised by this package."""


class NotSquare(NumradError):
    """A square matrix was required."""


class NotHermitian(NumradError):
    """A Hermitian matrix was required."""


class NoConvergence(NumradError):
    """No certified result: the eigensolver failed, an intermediate
    overflowed, or a bracket could not be closed to the tolerance."""


class Timeout(NumradError):
    """Iterative refinement exhausted its round budget."""


class BadExponent(NumradError):
    """Exponent outside the supported range."""


class BadAlpha(NumradError):
    """Mixing parameter alpha outside [0, 1]."""


class NotUnit(NumradError):
    """A unit vector was required."""


class BadEnsemble(NumradError):
    """Unknown random matrix ensemble."""


class NotABNormal(NumradError):
    """The certificate does not establish (alpha, beta)-normality."""


class ParseError(NumradError):
    """Matrix file could not be parsed.  Carries a 1-based line/column."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


class DimensionMismatch(NumradError):
    """Declared matrix dimensions disagree with the number of entries."""
