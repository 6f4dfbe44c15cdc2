"""Initial-data families: windowed perturbations of the flat interface.

Every profile is compactly supported inside the grid window so the far-field
flatness invariant holds exactly at the decay bands.  The window is an
infinitely smooth plateau bump (exact 1 on a central plateau, exact 0 outside),
so windowing never limits the order of the finite-difference stencils.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ValidationError
from .geometry import DECAY_BAND, DECAY_TOL, FloatArray, Grid, InterfaceCurve, _smooth_step
from .kernels import VorticityStrength

# The [initial] keys each profile and omega profile reads; InitialSpec rejects any other.
PROFILES = {"flat": (), "cosine": ("amplitude", "window_flat", "window_ramp"),
            "pinch": ("delta", "window_ramp"),
            "monotone": ("amplitude", "window_flat", "window_ramp", "z1_wiggle")}
OMEGA_PROFILES = {"zero": (), "gaussian": ("omega_amplitude", "omega_center", "omega_sigma")}


def plateau_window(x: FloatArray, flat_half: float, ramp: float) -> FloatArray:
    """Smooth even window: 1 on |x| <= flat_half, 0 on |x| >= flat_half + ramp."""
    if flat_half < 0.0 or ramp <= 0.0:
        raise ValidationError("window needs flat_half >= 0 and ramp > 0")
    return _smooth_step((flat_half + ramp - np.abs(x)) / ramp)


@dataclass(frozen=True)
class InitialSpec:
    """The initial curve and sheet strength; a key their profiles do not read keeps its default."""

    profile: str = "flat"
    amplitude: float = 0.0
    window_flat: float = 6.0
    window_ramp: float = 6.0
    delta: float = 0.1
    z1_wiggle: float = 0.0
    omega_profile: str = "zero"
    omega_amplitude: float = 0.0
    omega_center: float = 0.0
    omega_sigma: float = 1.0

    def __post_init__(self) -> None:
        for key, value in vars(self).items():
            if isinstance(value, float) and not np.isfinite(value):
                raise ValidationError(f"{key} must be finite, got {value}")
        if self.profile not in PROFILES:
            raise ValidationError(f"unknown profile {self.profile!r}; choose from {tuple(PROFILES)}")
        if self.omega_profile not in OMEGA_PROFILES:
            raise ValidationError(
                f"unknown omega profile {self.omega_profile!r}; choose from {tuple(OMEGA_PROFILES)}"
            )
        read = ("profile", "omega_profile", *PROFILES[self.profile],
                *OMEGA_PROFILES[self.omega_profile])
        for f in fields(self):
            if f.name not in read and getattr(self, f.name) != f.default:
                raise ValidationError(f"{f.name} is not read by profile {self.profile!r} with "
                                      f"omega_profile {self.omega_profile!r}; remove it")
        if not 0.0 < self.delta < 1.0:  # off pinch, delta keeps its default 0.1
            raise ValidationError(f"pinch depth must lie in (0, 1), got {self.delta}")
        if self.omega_sigma <= 0.0:
            raise ValidationError("omega_sigma must be positive")


def _window_or_fail(grid: Grid, flat_half: float, ramp: float) -> FloatArray:
    support = flat_half + ramp
    usable = grid.half_width - (grid.spacing * (DECAY_BAND + 1))
    if support >= usable:
        raise ValidationError(
            f"window support {support:.3g} reaches the decay band of the grid "
            f"(usable half-width {usable:.3g}); widen the grid or narrow the window"
        )
    return plateau_window(grid.alpha, flat_half, ramp)


def build_initial(spec: InitialSpec, grid: Grid) -> tuple[InterfaceCurve, VorticityStrength]:
    """Construct the initial curve and sheet strength described by ``spec``."""
    alpha = grid.alpha
    z1 = alpha.copy()
    if spec.profile == "flat":
        z2 = np.ones_like(alpha)
    elif spec.profile == "pinch":
        w = _window_or_fail(grid, 0.0, max(spec.window_ramp, grid.spacing * 4))
        z2 = 1.0 - (1.0 - spec.delta) * w
    else:  # cosine or monotone
        w = _window_or_fail(grid, spec.window_flat, spec.window_ramp)
        z2 = 1.0 + spec.amplitude * np.cos(alpha) * w
        if spec.profile == "monotone":
            z1 = alpha + spec.z1_wiggle * np.sin(alpha) * w

    if np.any(z2 <= 0.0):
        raise ValidationError(
            f"profile {spec.profile!r} with amplitude {spec.amplitude} dips below the bottom"
        )
    curve = InterfaceCurve(grid, z1, z2)
    if spec.profile == "monotone":
        d1x, _ = curve.d1
        if float(np.min(d1x)) < 0.0:
            raise ValidationError(
                f"monotone profile violated: min d(z1)/dalpha = {float(np.min(d1x)):.3e}"
            )

    if spec.omega_profile == "zero":
        return curve, VorticityStrength(grid, np.zeros_like(alpha))
    omega_arr = spec.omega_amplitude * np.exp(
        -((alpha - spec.omega_center) ** 2) / (2.0 * spec.omega_sigma**2)
    )
    band = grid.band_mask
    worst = float(np.max(np.abs(omega_arr[band])))
    if worst > DECAY_TOL:
        raise ValidationError(
            f"omega profile does not decay inside the grid window (band value {worst:.3e})"
        )
    return curve, VorticityStrength(grid, np.where(band, 0.0, omega_arr))
