"""Exception types shared across the package."""


class FbmcfError(Exception):
    """Base class for all package-specific errors."""


class ChartRangeError(FbmcfError):
    """Chart coordinates outside the validity radius of the tubular map."""


class NewtonConvergenceError(FbmcfError):
    """Newton inversion of the tubular map failed to converge."""


class SingularMetricError(FbmcfError):
    """Metric determinant is non-positive (chart or graph overreach)."""


class PastSingularityError(FbmcfError):
    """An exact shrinking solution was requested at or past its singular time."""


class CflViolationError(FbmcfError):
    """Time step above the stability bound of the explicit scheme."""


class NonFiniteError(FbmcfError):
    """Non-finite height after a step."""


class TimeWindowError(FbmcfError):
    """Boundary-kernel time window exceeded for a curved support surface."""


class PatchFieldError(ValueError):
    """A support-patch setting breaks the graph-patch rules; `field` names it."""

    def __init__(self, message, field):
        super().__init__(message)
        self.field = field


class ScenarioError(FbmcfError):
    """Scenario or query file failed to parse or validate.  The message ends with
    where: the key, such as `(key: grid.h)`, else the line and column if known."""

    def __init__(self, message, key=None, line=None, column=None):
        where = f" (key: {key})" if key else f" (line {line}, column {column})" if line else ""
        super().__init__(message + where)
        self.key, self.line, self.column = key, line, column
