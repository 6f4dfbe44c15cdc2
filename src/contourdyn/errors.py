"""Exception types shared across the package."""

from __future__ import annotations


class ContourError(Exception):
    """Base class for all package-specific errors."""


class DegenerateParametrization(ContourError):
    """|dz/dalpha| fell below the arc floor; singular quadratures would blow up."""


class SelfIntersection(ContourError):
    """Two distinct parameter nodes map to (nearly) the same point."""


class NoConvergence(ContourError):
    """A fixed-point iteration exhausted its iteration budget."""

    def __init__(self, iterations: int, last_residual: float, what: str = "fixed-point iteration"):
        super().__init__(
            f"{what} did not converge after {iterations} iterations "
            f"(last residual {last_residual:.3e})"
        )
        self.iterations = iterations
        self.last_residual = last_residual


class BottomContact(ContourError):
    """Minimum depth reached the contact tolerance; the run must terminate."""

    def __init__(self, t: float, min_depth: float):
        super().__init__(f"interface reached the bottom at t={t:.6g} (min depth {min_depth:.3e})")
        self.t = t
        self.min_depth = min_depth


class StabilityFailure(ContourError):
    """A monitored norm exceeded its blow-up cap (or became non-finite)."""

    def __init__(self, t: float, what: str, value: float):
        super().__init__(f"{what} = {value:.3e} exceeded its cap at t={t:.6g}")
        self.t = t
        self.what = what
        self.value = value


class OutOfRegime(ContourError):
    """A diagnostic was requested outside its domain of validity."""


class FitFailure(ContourError):
    """The depth series cannot support a double-exponential bound fit."""


class ConfigError(ContourError):
    """Base class for configuration problems."""


class ParseError(ConfigError):
    """Malformed configuration text."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class ValidationError(ConfigError):
    """Structurally valid input with inconsistent or out-of-range values."""
