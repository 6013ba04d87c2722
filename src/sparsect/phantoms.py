"""Synthetic test images in [0, 1] on normalized [-1, 1]^2 coordinates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Modified head phantom: (amplitude, a, b, x0, y0, phi_deg). Amplitudes are
# the additive contrasts that keep the summed image inside [0, 1].
_HEAD_ELLIPSES = (
    (1.0, 0.69, 0.92, 0.0, 0.0, 0.0),
    (-0.8, 0.6624, 0.874, 0.0, -0.0184, 0.0),
    (-0.2, 0.11, 0.31, 0.22, 0.0, -18.0),
    (-0.2, 0.16, 0.41, -0.22, 0.0, 18.0),
    (0.1, 0.21, 0.25, 0.0, 0.35, 0.0),
    (0.1, 0.046, 0.046, 0.0, 0.1, 0.0),
    (0.1, 0.046, 0.046, 0.0, -0.1, 0.0),
    (0.1, 0.046, 0.023, -0.08, -0.605, 0.0),
    (0.1, 0.023, 0.023, 0.0, -0.606, 0.0),
    (0.1, 0.023, 0.046, 0.06, -0.605, 0.0),
)


def _grid_coords(grid: tuple[int, int]):
    m1, m2 = grid
    x = (np.arange(m2) - 0.5 * (m2 - 1)) / (0.5 * m2)
    y = (0.5 * (m1 - 1) - np.arange(m1)) / (0.5 * m1)
    return np.meshgrid(x, y)


def _render_ellipses(grid, ellipses) -> np.ndarray:
    """Sum ellipse parts; 6-tuples are hard indicators, 7-tuples add a
    profile power so the part decays as max(0, 1 - q)^power (dome)."""
    X, Y = _grid_coords(grid)
    img = np.zeros(grid)
    for part in ellipses:
        amp, a, b, x0, y0, phi_deg = part[:6]
        phi = np.deg2rad(phi_deg)
        c, s = np.cos(phi), np.sin(phi)
        xr = (X - x0) * c + (Y - y0) * s
        yr = -(X - x0) * s + (Y - y0) * c
        q = (xr / a) ** 2 + (yr / b) ** 2
        if len(part) == 7:
            img += amp * np.maximum(0.0, 1.0 - q) ** part[6]
        else:
            img += amp * (q <= 1.0)
    return np.clip(img, 0.0, 1.0)


def shepp_logan(grid: tuple[int, int]) -> np.ndarray:
    """Standard ten-ellipse head phantom with contrasts in [0, 1]."""
    return _render_ellipses(grid, _HEAD_ELLIPSES)


def disk(grid: tuple[int, int], radius: float, value: float = 1.0) -> np.ndarray:
    """Centered disk; radius is relative to the half-width of the grid."""
    X, Y = _grid_coords(grid)
    return np.where(X * X + Y * Y <= radius * radius, float(value), 0.0)


@dataclass(frozen=True)
class EllipseCloudSpec:
    """Knobs for the random multi-ellipse phantom family.

    profile_power=None gives hard-edged ellipses; a (low, high) range draws
    a per-ellipse exponent and renders smooth domes instead. The background
    disk stays hard either way.
    """

    n_ellipses: tuple[int, int] = (3, 7)
    amplitude: tuple[float, float] = (-0.4, 0.5)
    axis: tuple[float, float] = (0.08, 0.45)
    center_radius: float = 0.55
    background: float = 0.25
    support_radius: float = 0.88
    profile_power: tuple[float, float] | None = None


def random_ellipses(
    grid: tuple[int, int], seed: int, spec: EllipseCloudSpec = EllipseCloudSpec()
) -> np.ndarray:
    """Random overlapping ellipses on a disk background, clipped to [0, 1]."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(spec.n_ellipses[0], spec.n_ellipses[1] + 1))
    parts = [(spec.background, spec.support_radius, spec.support_radius, 0.0, 0.0, 0.0)]
    for _ in range(n):
        amp = rng.uniform(*spec.amplitude)
        a = rng.uniform(*spec.axis)
        b = rng.uniform(*spec.axis)
        r = spec.center_radius * np.sqrt(rng.uniform())
        th = rng.uniform(0.0, 2.0 * np.pi)
        phi = rng.uniform(0.0, 180.0)
        x0, y0 = r * np.cos(th), r * np.sin(th)
        if spec.profile_power is None:
            parts.append((amp, a, b, x0, y0, phi))
        else:
            parts.append((amp, a, b, x0, y0, phi, rng.uniform(*spec.profile_power)))
    img = _render_ellipses(grid, parts)
    # Ellipses may go negative against the background; phantom stays in range.
    return np.clip(img, 0.0, 1.0)


def phantom_batch(
    grid: tuple[int, int], seeds, spec: EllipseCloudSpec = EllipseCloudSpec()
) -> list[np.ndarray]:
    return [random_ellipses(grid, int(s), spec) for s in seeds]
