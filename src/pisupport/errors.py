"""Exception types shared across the package."""


class ExactAlgebraError(Exception):
    """Base class for package-specific errors."""


class CompositeCharacteristic(ExactAlgebraError, ValueError):
    pass


class ReduciblePolynomial(ExactAlgebraError, ValueError):
    pass


class DuplicateVariable(ExactAlgebraError, ValueError):
    pass


class DivisionByZero(ExactAlgebraError, ZeroDivisionError):
    pass


class FieldMismatch(ExactAlgebraError, ValueError):
    pass


class NotARefinement(ExactAlgebraError, ValueError):
    pass


class NonPolynomialEntry(ExactAlgebraError, ValueError):
    pass


class NotPNilpotent(ExactAlgebraError, ValueError):
    pass


class SpecMismatch(ExactAlgebraError, ValueError):
    pass


class BlockTooBig(ExactAlgebraError, ValueError):
    pass


class InfiniteExtension(ExactAlgebraError, ValueError):
    pass


class AllCoefficientsZero(ExactAlgebraError, ValueError):
    pass


class NotFlat(ExactAlgebraError, ValueError):
    pass


class ZeroLinearPart(ExactAlgebraError, ValueError):
    pass


class BudgetExceeded(ExactAlgebraError, ValueError):
    pass


class DimensionTooLarge(ExactAlgebraError, ValueError):
    pass


class ModuleFileSyntaxError(ExactAlgebraError, ValueError):
    """Malformed module file text.  Carries a 1-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(ExactAlgebraError, ValueError):
    pass
