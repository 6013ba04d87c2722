"""Scalar image-quality metrics (no differentiation machinery involved).

`ssim_value` deliberately re-derives SSIM from windowed central moments
rather than the raw-moment route the training graph uses; the two share
the window and constants of `losses`, agree to rounding and serve as mutual
checks. `psnr` takes the images' range as 1, as the SSIM constants do.
`rmse_hu` maps attenuation to Hounsfield units with water at `MU_WATER`.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .losses import (
    SSIM_C1, SSIM_C2, SSIM_SIGMA, SSIM_WIN_SIZE, effective_win_size, gaussian_window,
)

# Attenuation of water in reconstruction units: 0 HU.
MU_WATER = 0.2


def psnr(x: np.ndarray, ref: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB for a peak of 1; identical inputs
    give +inf."""
    if np.shape(x) != np.shape(ref):
        raise ValueError(f"shape mismatch {np.shape(x)} vs {np.shape(ref)}")
    mse = float(np.mean((np.asarray(x) - np.asarray(ref)) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


def ssim_value(x: np.ndarray, ref: np.ndarray) -> float:
    """Mean local SSIM over valid Gaussian windows."""
    x = np.asarray(x, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if x.shape != ref.shape:
        raise ValueError("shape mismatch")
    win = effective_win_size(SSIM_WIN_SIZE, x.shape)
    kern = gaussian_window(win, SSIM_SIGMA)
    c1, c2 = SSIM_C1, SSIM_C2

    wx = sliding_window_view(x, (win, win))
    wy = sliding_window_view(ref, (win, win))
    mu_x = np.tensordot(wx, kern, axes=([2, 3], [0, 1]))
    mu_y = np.tensordot(wy, kern, axes=([2, 3], [0, 1]))
    dx = wx - mu_x[..., None, None]
    dy = wy - mu_y[..., None, None]
    var_x = np.tensordot(dx * dx, kern, axes=([2, 3], [0, 1]))
    var_y = np.tensordot(dy * dy, kern, axes=([2, 3], [0, 1]))
    cov = np.tensordot(dx * dy, kern, axes=([2, 3], [0, 1]))
    lum = (2.0 * (mu_x * mu_y) + c1) / ((mu_x * mu_x) + (mu_y * mu_y) + c1)
    con = (2.0 * cov + c2) / (var_x + var_y + c2)
    return float(np.mean(lum * con))


def rmse_hu(x: np.ndarray, ref: np.ndarray) -> float:
    """Root-mean-square error after mapping both images to HU."""
    if np.shape(x) != np.shape(ref):
        raise ValueError(f"shape mismatch {np.shape(x)} vs {np.shape(ref)}")
    d = _to_hu(x) - _to_hu(ref)
    return float(np.sqrt(np.mean(d * d)))


def _to_hu(x: np.ndarray) -> np.ndarray:
    return 1000.0 * (np.asarray(x) - MU_WATER) / MU_WATER
