"""Exception types shared across the package."""


class Fitts3dError(Exception):
    """Base class for all package-specific failures."""


class DomainError(Fitts3dError, ValueError):
    """An argument lies outside the mathematical domain of a formula."""


class RankDeficient(Fitts3dError):
    """Design matrix columns are linearly dependent (or constant) at the
    working tolerance, so the least-squares coefficients are not unique."""


class InsufficientData(Fitts3dError):
    """Too few observations (or too few distinct conditions) for the fit."""


class InvalidNesting(Fitts3dError):
    """Models passed to a partial F test are not nested on the same data."""


class EmptyCondition(Fitts3dError):
    """A task condition has zero successful trials, so its mean movement
    time is undefined."""


class InvalidTruth(Fitts3dError):
    """A planted ground-truth model is unusable (missing coefficients or
    nonpositive predicted movement time somewhere on the grid)."""


class ConvergenceError(Fitts3dError):
    """An iterative numerical routine failed to reach its tolerance."""


class SchemaError(Fitts3dError):
    """A file does not match the expected header or document schema."""


class ParseError(Fitts3dError):
    """A data row failed validation.

    Carries the 1-based line number, the offending column name (when one
    can be named) and the violated constraint.
    """

    def __init__(self, line, reason, column=None):
        self.line = line
        self.column = column
        self.reason = reason
        where = f"line {line}"
        if column:
            where += f", column '{column}'"
        super().__init__(f"{where}: {reason}")
