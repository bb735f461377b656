"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class UndefinedValueError(LookupError):
    """A table-backed arithmetic function has no rule for the requested argument."""


class OracleScaleError(ValueError):
    """A brute-force oracle was asked to sum more terms, or a value to print
    more digits, than it is rated for."""


class InconsistencyError(ArithmeticError):
    """Two exact evaluation paths disagreed; indicates an internal bug."""


class FactorizationBudgetError(DomainError):
    """Pollard rho ran out of its work budget before splitting a cofactor."""
