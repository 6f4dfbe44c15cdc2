"""Shared builders for curve/strength test data, imported by the test modules."""

from __future__ import annotations

import tracemalloc

import numpy as np

from contourdyn.geometry import Grid, InterfaceCurve
from contourdyn.kernels import VorticityStrength
from contourdyn.profiles import plateau_window


def bump_curve(grid: Grid, amplitude: float, flat: float = 5.0, ramp: float = 5.0,
               z1_amp: float = 0.0) -> InterfaceCurve:
    """Windowed cosine perturbation of the flat interface."""
    w = plateau_window(grid.alpha, flat, ramp)
    z2 = 1.0 + amplitude * np.cos(grid.alpha) * w
    z1 = grid.alpha + z1_amp * np.sin(grid.alpha) * w
    return InterfaceCurve(grid, z1, z2)


def gaussian_strength(grid: Grid, amplitude: float = 1.0, center: float = 0.0,
                      sigma: float = 1.0) -> VorticityStrength:
    om = amplitude * np.exp(-((grid.alpha - center) ** 2) / (2.0 * sigma**2))
    om = np.where(grid.band_mask, 0.0, om)
    return VorticityStrength(grid, om)


def random_smooth_pair(grid: Grid, rng: np.random.Generator,
                       curve_scale: float = 0.25, omega_scale: float = 0.5):
    """Random low-wavenumber curve and strength, windowed to the grid interior."""
    w = plateau_window(grid.alpha, 0.25 * grid.half_width, 0.25 * grid.half_width)
    z2 = np.ones(grid.node_count)
    z1 = grid.alpha.copy()
    om = np.zeros(grid.node_count)
    for k in range(1, 5):
        a, b, c = rng.uniform(-1.0, 1.0, size=3)
        pa, pb, pc = rng.uniform(0.0, 2.0 * np.pi, size=3)
        z2 = z2 + (curve_scale / 4.0) * a * np.cos(0.7 * k * grid.alpha + pa) * w
        z1 = z1 + (curve_scale / 8.0) * b * np.cos(0.5 * k * grid.alpha + pb) * w
        om = om + (omega_scale / 4.0) * c * np.cos(0.9 * k * grid.alpha + pc) * w
    return InterfaceCurve(grid, z1, z2), VorticityStrength(grid, om)


def traced_peak(fn, *args) -> int:
    """Peak bytes traced by tracemalloc while fn(*args) runs."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
