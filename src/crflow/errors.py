"""Exception taxonomy shared across the package."""


class CrflowError(Exception):
    """Base class for all package errors."""


class DomainError(CrflowError):
    """Point lies outside the chart where a provider is defined."""


class DegenerateMetricError(CrflowError):
    """Metric is numerically degenerate (smallest eigenvalue below threshold)."""

    def __init__(self, point, min_eig, threshold=1e-12):
        self.point = point
        self.min_eig = min_eig
        self.threshold = threshold
        super().__init__(
            f"degenerate metric at {point}: min eigenvalue {min_eig:.3e} "
            f"below {threshold:.0e}"
        )


class DerivativeOrderError(CrflowError):
    """Operation needs deeper derivative access than the metric declares."""


class FlowBreakdownError(CrflowError):
    """Positivity lost during a flow step; carries the offending location."""

    def __init__(self, time, where, detail=""):
        self.time = time
        self.where = where
        msg = f"flow breakdown at t={time:.6g}, location {where}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class PreconditionError(CrflowError):
    """A check's stated precondition is violated; the check is skipped."""


class InputsNotKEError(PreconditionError):
    """Uniqueness diagnostic got a metric that is not Kahler-Einstein."""


class ConfigError(CrflowError):
    """Invalid scenario configuration; message lists every violation."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid config: " + "; ".join(self.violations))


class ManifestError(CrflowError):
    """Suite manifest is missing or refers to missing configs."""
