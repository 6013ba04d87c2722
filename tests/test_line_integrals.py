"""The projector and FBP against exact line integrals of smooth phantoms.

Every other operator test checks the code against itself (adjointness, a
matrix probed from the same rays, tables rebuilt by the same builders). Here
the rays come from `ScanGeometry`'s conventions alone, written out below
rather than taken from `projector._view_rays`, and each ray's integral
through a sum of ellipse domes is exact. So a wrong fan magnification, a
flipped detector axis or a wrong pixel scaling in the projector fails these
tests, as does one in the backprojector that FBP runs on.

Conventions: an image (m1, m2) is indexed [row, col], and pixel (r, c) has
its centre at x = (c - (m2 - 1)/2) * pixel_size, y = (r - (m1 - 1)/2) *
pixel_size, in mm. At view angle theta the parallel rays run along
(cos theta, sin theta), and detector cell k sits at det_offsets[k] along
(-sin theta, cos theta). In a fan the source sits at src_dist * (cos theta,
sin theta), and cell k at det_offsets[k] along (-sin theta, cos theta) from
the panel centre, -det_dist * (cos theta, sin theta).

A dome (1 - q)^p, q the ellipse's quadratic form, met by the line
p0 + t d (|d| = 1) has q = A t^2 + B t + C, and its integral is c^(2p+1) /
sqrt(A) * sqrt(pi) Gamma(p + 1) / Gamma(p + 3/2), with c^2 = 1 - min_t q
(Kak & Slaney, Principles of Computerized Tomographic Imaging, ch. 3).
"""

import functools
import math

import numpy as np
import pytest

from sparsect.fbp import FbpOperator
from sparsect.geometry import FAN, scaled_preset, sparse_subset
from sparsect.projector import JosephProjector

POWER = 2
# (amplitude, a, b, x0, y0, phi in degrees): semi-axes and centre in units
# of the grid's half-width (a, x0) and half-height (b, y0). Every dome lies
# inside the grid, and none is symmetric under a flip of the detector axis.
DOMES = (
    (1.0, 0.78, 0.66, 0.04, -0.05, 20.0),
    (0.6, 0.34, 0.22, -0.30, 0.24, -35.0),
    (-0.4, 0.24, 0.36, 0.30, 0.22, 60.0),
)

# Relative L2 errors of the projector on the subsets below, measured on a
# 2-vCPU x86 VM (NumPy 2.4): 32x32 fan 4.65e-3 and parallel 4.61e-3, 64x64
# fan 1.18e-3 and parallel 1.18e-3, 32x24 fan 6.35e-3 and 64x48 1.60e-3. So
# the error falls 3.9-4.0 times per halving of the pixel, second order; a
# first-order error would halve. Errors planted in `projector._view_rays`
# read, at 64x64: 0.21 for a flipped detector axis, 9.7e-3 for a fan
# magnification 1% too small, and 9.8e-3 for parallel rays spaced as if
# the pixels were 1% smaller; each also stops the error from falling.
RATIO_LEAST = 3.5
ERROR_64_MOST = 2e-3
# FBP of the exact sinogram on the full view set, against the rendered
# image: 1.16e-4 (fan) and 5.8e-5 (parallel) at 32x32, and 1.14e-4 and
# 5.7e-5 at 64x64, since the scaled presets keep the detector and view
# sampling fixed relative to the grid. The same errors planted in the
# backprojector's taps read 0.35-0.37, 1.7e-2 and 1.7e-2.
FBP_MOST = {"fan-1024": 2e-4, "parallel-720": 1e-4}
# Views of the projector tests: enough to sample every direction, few
# enough that the module runs in about a second.
VIEWS = {"fan-1024": 128, "parallel-720": 90}


def domes_mm(geom):
    """DOMES in mm on the grid of `geom`: (amp, a, b, x0, y0, phi in rad)."""
    half_x = 0.5 * geom.grid[1] * geom.pixel_size
    half_y = 0.5 * geom.grid[0] * geom.pixel_size
    return [(amp, a * half_x, b * half_y, x0 * half_x, y0 * half_y, math.radians(phi))
            for amp, a, b, x0, y0, phi in DOMES]


def render(geom) -> np.ndarray:
    """The domes sampled at the pixel centres."""
    m1, m2 = geom.grid
    x = (np.arange(m2) - 0.5 * (m2 - 1)) * geom.pixel_size
    y = (np.arange(m1) - 0.5 * (m1 - 1)) * geom.pixel_size
    X, Y = np.meshgrid(x, y)
    img = np.zeros(geom.grid)
    for amp, a, b, x0, y0, phi in domes_mm(geom):
        c, s = math.cos(phi), math.sin(phi)
        u, v = (X - x0) * c + (Y - y0) * s, (Y - y0) * c - (X - x0) * s
        img += amp * np.maximum(0.0, 1.0 - (u / a) ** 2 - (v / b) ** 2) ** POWER
    return img


def rays(geom, angles):
    """(point, unit direction) of every cell's ray at each angle: x and y
    on the first axis, broadcasting to (n_angles, n_det) on the others."""
    th = np.asarray(angles)[:, None]
    u = geom.det_offsets
    along = np.stack([np.cos(th), np.sin(th)])
    axis = np.stack([-np.sin(th), np.cos(th)])
    if geom.beam == FAN:
        source = geom.src_dist * along
        d = -geom.det_dist * along + u * axis - source
        return source, d / np.hypot(*d)
    return u * axis, along


def exact_sinogram(geom, indices) -> np.ndarray:
    """Exact integrals of the domes along the rays of full views `indices`."""
    p, d = rays(geom, geom.view_angles_full[indices])
    out = 0.0
    gamma = math.sqrt(math.pi) * math.gamma(POWER + 1) / math.gamma(POWER + 1.5)
    for amp, a, b, x0, y0, phi in domes_mm(geom):
        c, s = math.cos(phi), math.sin(phi)
        pu = (p[0] - x0) * c + (p[1] - y0) * s
        pv = (p[1] - y0) * c - (p[0] - x0) * s
        du, dv = d[0] * c + d[1] * s, d[1] * c - d[0] * s
        A = (du / a) ** 2 + (dv / b) ** 2
        B = 2.0 * (pu * du / a**2 + pv * dv / b**2)
        C = (pu / a) ** 2 + (pv / b) ** 2
        c2 = np.maximum(0.0, 1.0 - C + B * B / (4.0 * A))
        out += amp * gamma * c2 ** (POWER + 0.5) / np.sqrt(A)
    return out


def rel_l2(a, b) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


@functools.cache
def projector_error(preset: str, grid) -> float:
    """Relative L2 error of the projector on the rendered domes."""
    geom = scaled_preset(preset, grid)
    subset = sparse_subset(geom, VIEWS[preset])
    sino = JosephProjector(geom, subset).apply(render(geom))
    return rel_l2(sino, exact_sinogram(geom, subset.indices))


@pytest.mark.parametrize("preset, coarse, fine", [
    ("fan-1024", (32, 32), (64, 64)),
    ("parallel-720", (32, 32), (64, 64)),
    ("fan-1024", (32, 24), (64, 48)),
], ids=["fan", "parallel", "fan-non-square"])
def test_projector_error_is_second_order(preset, coarse, fine):
    assert projector_error(preset, coarse) / projector_error(preset, fine) > RATIO_LEAST


@pytest.mark.parametrize("preset", ["fan-1024", "parallel-720"])
def test_projector_error_at_64(preset):
    assert projector_error(preset, (64, 64)) < ERROR_64_MOST


@pytest.mark.parametrize("preset", ["fan-1024", "parallel-720"])
def test_fbp_of_the_exact_sinogram(preset):
    geom = scaled_preset(preset, (32, 32))
    sino = exact_sinogram(geom, np.arange(geom.n_views_full))
    assert rel_l2(FbpOperator(geom).apply(sino), render(geom)) < FBP_MOST[preset]
