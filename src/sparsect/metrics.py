"""Scalar image-quality metrics (no differentiation machinery involved).

`ssim_value` deliberately re-derives SSIM from windowed central moments
rather than the raw-moment route the training graph uses; the two agree to
rounding and serve as mutual checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .losses import LossConfig, effective_win_size, gaussian_window


def psnr(x: np.ndarray, ref: np.ndarray, data_range: float = 1.0) -> float:
    """Peak signal-to-noise ratio in dB; identical inputs give +inf."""
    if np.shape(x) != np.shape(ref):
        raise ValueError(f"shape mismatch {np.shape(x)} vs {np.shape(ref)}")
    mse = float(np.mean((np.asarray(x) - np.asarray(ref)) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(data_range * data_range / mse)


def ssim_value(
    x: np.ndarray, ref: np.ndarray, cfg: LossConfig = LossConfig()
) -> float:
    """Mean local SSIM over valid Gaussian windows."""
    x = np.asarray(x, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if x.shape != ref.shape:
        raise ValueError("shape mismatch")
    win = effective_win_size(cfg.win_size, x.shape)
    kern = gaussian_window(win, cfg.sigma)
    c1 = (cfg.k1 * cfg.data_range) ** 2
    c2 = (cfg.k2 * cfg.data_range) ** 2

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


@dataclass(frozen=True)
class HuMap:
    """Affine map from reconstruction units to Hounsfield units."""

    mu_water: float = 0.2
    slope: float = 1.0

    def to_hu(self, x: np.ndarray) -> np.ndarray:
        return 1000.0 * self.slope * (np.asarray(x) - self.mu_water) / self.mu_water


def rmse_hu(x: np.ndarray, ref: np.ndarray, hu: HuMap = HuMap()) -> float:
    """Root-mean-square error after mapping both images to HU."""
    if np.shape(x) != np.shape(ref):
        raise ValueError(f"shape mismatch {np.shape(x)} vs {np.shape(ref)}")
    d = hu.to_hu(x) - hu.to_hu(ref)
    return float(np.sqrt(np.mean(d * d)))
