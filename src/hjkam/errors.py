"""Exception types shared across the package."""


class HjkamError(Exception):
    """Base class for all solver and configuration failures."""


class ConfigError(HjkamError):
    """Invalid configuration: unknown keys, bad values, malformed files."""


class NumericalDomain(HjkamError):
    """A model evaluator returned a non-finite value."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class SolverDiverged(HjkamError):
    """An iterative solver failed to converge."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class SigmaExceeded(HjkamError):
    """A short-time operation was requested beyond the twist window."""


class TrajectoryEscape(HjkamError):
    """The flow left the admissible phase-space region."""

    def __init__(self, message, exit_time=None):
        super().__init__(message)
        self.exit_time = exit_time


class ExistenceHorizonExceeded(HjkamError):
    """Classical Cauchy solve requested past the guaranteed horizon."""


class FoldDetected(HjkamError):
    """The propagated front lost graph structure where it should not have."""


class MultistartExhausted(HjkamError):
    """No start of a minimal-action solve meets the momentum-jump criterion;
    the residual is the worst momentum jump."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class SearchRadiusExceeded(HjkamError):
    """A discrete infimum was attained on the search-radius boundary twice;
    the residual is the last kernel half-width tried, in cells."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class LevelBelowCritical(HjkamError):
    """Level too low: a Mane potential below the critical value (diverges),
    or a calibrated orbit through a point where ``min_p H >= a``."""


class NonConvergence(HjkamError):
    """A fixed-point or extrapolation loop did not settle within budget."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result
