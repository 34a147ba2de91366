"""Exception taxonomy shared across the toolkit."""


class MaggeoError(Exception):
    """Base class for all toolkit errors."""


class DegenerateMetricError(MaggeoError):
    """Metric is singular or not positive definite at a queried point."""


class DerivativeStepError(MaggeoError):
    """Finite-difference step underflowed at the queried point."""


class FrameError(MaggeoError):
    """Frame precondition violated (non-unit vector, non-orthogonal pair,
    or Gram-Schmidt breakdown)."""


class ChartExitError(MaggeoError):
    """Trajectory left the chart domain and no transition rule is available."""


class StiffTrajectoryError(MaggeoError):
    """Adaptive integration collapsed its step size."""


class ActionUndefinedError(MaggeoError):
    """No global primitive; the action value is undefined for this loop."""


class NotCriticalError(MaggeoError):
    """Loop is not a numerical zero of the action form (gate violated)."""


class ExpressionError(MaggeoError):
    """Base class for expression parse/eval failures."""


class ParseError(ExpressionError):
    """Syntax error with a byte offset."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EvalError(ExpressionError):
    """Domain violation during expression evaluation."""


class ConfigError(MaggeoError):
    """Config schema violations, carrying the offending key paths."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
