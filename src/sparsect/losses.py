"""Training objectives built from the differentiation primitives.

The structural term uses mean local SSIM with a Gaussian window in valid
mode (windows fully inside the image), so constant inputs reduce to the
closed-form luminance ratio and ssim(x, x) is exactly 1. Windows shrink to
the largest odd size that fits when the image is smaller than the
configured width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import autodiff as ad
from .refine import StageContext


@dataclass(frozen=True)
class LossConfig:
    gamma: float = 1.0
    win_size: int = 11
    sigma: float = 1.5
    k1: float = 0.01
    k2: float = 0.03
    data_range: float = 1.0


def gaussian_window(win_size: int, sigma: float) -> np.ndarray:
    """Normalized 2-D Gaussian window."""
    r = np.arange(win_size) - 0.5 * (win_size - 1)
    g = np.exp(-(r * r) / (2.0 * sigma * sigma))
    g /= g.sum()
    return np.outer(g, g)


def effective_win_size(win_size: int, shape: tuple[int, int]) -> int:
    fit = min(win_size, min(shape))
    return fit if fit % 2 == 1 else fit - 1


class GaussianWindowOp:
    """Valid-mode windowed averaging as a linear operator with transpose."""

    def __init__(self, shape: tuple[int, int], win_size: int, sigma: float):
        self.kernel = gaussian_window(win_size, sigma)
        self.win = win_size
        self.in_shape = shape
        self.out_shape = (shape[0] - win_size + 1, shape[1] - win_size + 1)
        if min(self.out_shape) < 1:
            raise ValueError("window larger than the image")

    def apply(self, x: np.ndarray) -> np.ndarray:
        wins = sliding_window_view(x, (self.win, self.win))
        return np.tensordot(wins, self.kernel, axes=([2, 3], [0, 1]))

    def applyT(self, y: np.ndarray) -> np.ndarray:
        out = np.zeros(self.in_shape)
        ho, wo = self.out_shape
        for a in range(self.win):
            for b in range(self.win):
                out[a: a + ho, b: b + wo] += self.kernel[a, b] * y
        return out


def l1_loss(x: ad.TensorNode, target: ad.TensorNode) -> ad.TensorNode:
    """Mean absolute difference; the subgradient at ties is zero."""
    return ad.mean_(ad.abs_(x - target))


def ssim_graph(
    x: ad.TensorNode, target: ad.TensorNode, cfg: LossConfig = LossConfig()
) -> ad.TensorNode:
    """Mean local SSIM between two (H, W) nodes as a scalar node."""
    shape = x.value.shape
    win = effective_win_size(cfg.win_size, shape)
    op = GaussianWindowOp(shape, win, cfg.sigma)
    c1 = (cfg.k1 * cfg.data_range) ** 2
    c2 = (cfg.k2 * cfg.data_range) ** 2

    mx = ad.linear_op(x, op)
    my = ad.linear_op(target, op)
    mxx = ad.linear_op(x * x, op)
    myy = ad.linear_op(target * target, op)
    mxy = ad.linear_op(x * target, op)
    vx = mxx - mx * mx
    vy = myy - my * my
    cxy = mxy - mx * my
    lum = (2.0 * (mx * my) + c1) / ((mx * mx) + (my * my) + c1)
    con = (2.0 * cxy + c2) / (vx + vy + c2)
    return ad.mean_(lum * con)


def total_loss(
    x: ad.TensorNode, target: ad.TensorNode, cfg: LossConfig = LossConfig()
):
    """Pixel L1 plus gamma * (1 - SSIM); returns (total, l1, ssim_term)."""
    l1 = l1_loss(x, target)
    ssim_term = (1.0 - ssim_graph(x, target, cfg)) * cfg.gamma
    return l1 + ssim_term, l1, ssim_term


def unsupervised_loss(
    x: ad.TensorNode, ctx: StageContext, cfg: LossConfig = LossConfig()
):
    """Measurement-consistency objective needing no reference image.

    Compares the sparse-view FBP of the reprojected output against the
    sparse-view FBP of the data with the same L1 + gamma*(1-SSIM) combo.
    Zero (to rounding) when reprojection reproduces the data exactly.
    """
    back = ad.linear_op(ad.linear_op(x, ctx.bundle.proj_s), ctx.bundle.fbp_s)
    return total_loss(back, x.tape.constant(ctx.x0), cfg)
