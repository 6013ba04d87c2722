"""Iterative reconstruction baseline: monotone FISTA with isotropic TV.

Objective: 0.5*||A x - y||^2 + lam * TV(x), x >= 0. The solve starts from
the FBP clamped at 0 and clamps each candidate. The TV proximal map uses
Chambolle's dual fixed-point iteration with a fixed inner budget
(`TV_ITERS` steps of size `TV_TAU`) so runs are deterministic, and the data
term's Lipschitz constant comes from `POWER_ITERS` seeded power steps.
Only the outer iteration count is a setting. The monotone variant keeps the
best objective seen, so the recorded objective trace never increases.

The TV terms work on flat (row-major) images: a row difference is the
image minus itself shifted by one row (W pixels), a column difference the
image minus itself shifted by one pixel, so each is one contiguous NumPy
pass. The row differences' last row and the column differences' last
column are held at +0, and so are the dual's: the shifted terms that fall
past the last row or wrap from one row's end into the next row then add or
subtract exact zeros, and each pixel gets the bytes of the 2-D slices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .fbp import FbpOperator
from .geometry import Image, Sinogram, _check_count
from .metrics import psnr
from .projector import _STORE, JosephProjector

TV_TAU = 0.125  # dual step of the TV prox
TV_ITERS = 20  # dual steps per TV prox
POWER_ITERS = 20  # power steps of the Lipschitz estimate


@dataclass(frozen=True)
class FistaConfig:
    n_iters: int = 60

    def __post_init__(self):
        _check_count("n_iters", self.n_iters, 0)


@dataclass
class FistaResult:
    image: Image
    objectives: list[float] = field(default_factory=list)
    lipschitz: float = 0.0


def _grad_into(x: np.ndarray, shape: tuple[int, int], g: np.ndarray):
    """A step writing the forward differences of the flat image x (of 2-D
    `shape`) into the flat rows of g. g[0]'s last row is never written and
    must hold 0; g[1]'s last column, where the shift by one pixel pairs a
    row's end with the next row's start, is reset to 0. The views are made
    here, once."""
    width = shape[1]
    up, down, left, right = x[:-width], x[width:], x[:-1], x[1:]
    gx, gy = g[0, :-width], g[1, :-1]
    gy_last = g[1].reshape(shape)[:, -1:]

    def grad() -> None:
        np.subtract(down, up, out=gx)
        np.subtract(right, left, out=gy)
        gy_last[...] = 0.0

    return grad


def _div_into(p: np.ndarray, shape: tuple[int, int], out: np.ndarray):
    """A step writing the discrete divergence of the flat dual p, the
    negative adjoint of `_grad_into`'s, into the flat out. With px's last
    row and py's last column at +0, each pixel takes the 2-D form's steps
    in its order: 0 + px - px(row above) + py - py(pixel left)."""
    width = shape[1]
    px, py = p[0, :-width], p[1, :-1]
    up, down, left, right = out[:-width], out[width:], out[:-1], out[1:]
    last_row = out[-width:]

    def div() -> None:
        last_row.fill(0.0)
        np.add(0.0, px, out=up)
        np.subtract(down, px, out=down)
        np.add(left, py, out=left)
        np.subtract(right, py, out=right)

    return div


def tv_value(x: np.ndarray) -> float:
    if abs(x.strides[0]) < abs(x.strides[1]):
        # TV is unchanged by transposing, and the sum below then runs in
        # x's memory order, as a sum over arrays laid out like x does.
        x = x.T
    g = np.zeros((2, x.size))
    _grad_into(x.ravel(), x.shape, g)()
    np.multiply(g, g, out=g)
    np.add(g[0], g[1], out=g[0])
    return float(np.sqrt(g[0], out=g[0]).sum())


def tv_prox(
    b: np.ndarray, weight: float, n_iters: int = TV_ITERS, tau: float = TV_TAU
) -> np.ndarray:
    """argmin_x 0.5*||x-b||^2 + weight*TV(x), via the dual ascent of Chambolle.

    Each step is p <- (p + tau*g) / (1 + tau*|g|) with
    g = grad(div(p) - b/weight), in place on seven preallocated flat
    buffers, as many as the 2-D form used. The dual p = (px, py) and the
    gradient g = (gx, gy) are each one (2, H*W) array: a difference is one
    contiguous pass over slices shifted by W or by 1, and the dual update
    one call over both components. gx's last row is never written and gy's
    last column is reset after each gradient (H strided writes), so px's
    last row and py's last column stay +0 and the shifted terms past an
    edge are exact zeros: the output has the 2-D form's bytes, for any
    memory layout of b.
    """
    _check_count("n_iters", n_iters, 0)
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"tau must be finite and > 0, got {tau}")
    if np.isnan(weight):
        raise ValueError("TV weight is NaN")
    if weight == math.inf:
        raise ValueError("TV weight is infinite")
    if weight <= 0:
        return b.copy()
    b_w = np.divide(b, weight).ravel()
    p = np.zeros((2, b.size))
    g = np.zeros((2, b.size))
    gx, gy = g
    out = np.empty(b.shape)
    tmp = out.reshape(-1)
    denom = np.empty(b.size)
    div, grad = _div_into(p, b.shape, tmp), _grad_into(tmp, b.shape, g)
    for _ in range(n_iters):
        div()
        np.subtract(tmp, b_w, out=tmp)
        grad()
        np.multiply(gx, gx, out=denom)
        np.multiply(gy, gy, out=tmp)
        np.add(denom, tmp, out=denom)
        np.sqrt(denom, out=denom)
        np.multiply(tau, denom, out=denom)
        np.add(1.0, denom, out=denom)
        np.multiply(tau, g, out=g)
        np.add(p, g, out=p)
        np.divide(p, denom, out=p)
    div()
    np.multiply(weight, tmp, out=tmp)
    return np.subtract(b, out, out=out)


def estimate_lipschitz(proj: JosephProjector, n_iters: int = POWER_ITERS) -> float:
    """Largest eigenvalue of A^T A by seeded power iteration (data-term Lipschitz)."""
    _check_count("n_iters", n_iters, 1)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(proj.in_shape)
    x /= np.linalg.norm(x)
    lam = 1.0
    for _ in range(n_iters):
        z = proj.applyT(proj.apply(x))
        lam = float(np.linalg.norm(z))
        x = z / lam
    return lam


def fista_tv(y: Sinogram, lam: float, cfg: FistaConfig = FistaConfig()) -> FistaResult:
    """Monotone FISTA (Beck & Teboulle 2009) with one apply and one applyT per step.

    A is linear and z is a fixed combination of x, x_prev and cand, so A z is
    formed from the carried projections A x, A x_prev and A cand instead of
    projecting z again. The Lipschitz estimate is kept in the process-wide
    table store, so solves on one (geometry, subset) run the power
    iteration once, and their projector and FBP tables are shared there too.
    """
    if not 0 < lam < math.inf:
        raise ValueError(f"TV weight must be positive and finite, got {lam}")
    proj = JosephProjector(y.geom, y.subset)
    data = y.data

    def objective(x: np.ndarray, ax: np.ndarray) -> float:
        r = ax - data
        return 0.5 * float((r * r).sum()) + lam * tv_value(x)

    x = np.maximum(FbpOperator(y.geom, y.subset).apply(data), 0.0)

    # The power iteration is seeded, so a stored estimate equals a fresh one.
    lip = _STORE.get(
        ("lipschitz", y.geom.fingerprint, y.subset.indices.tobytes()),
        lambda: estimate_lipschitz(proj, POWER_ITERS),
    )
    step = 1.0 / lip

    ax = proj.apply(x)
    z, az = x, ax
    t = 1.0
    f_x = objective(x, ax)
    objectives = [f_x]

    for _ in range(cfg.n_iters):
        grad_z = proj.applyT(az - data)
        cand = tv_prox(z - step * grad_z, lam * step, TV_ITERS, TV_TAU)
        np.maximum(cand, 0.0, out=cand)
        a_cand = proj.apply(cand)
        f_cand = objective(cand, a_cand)
        x_prev, ax_prev = x, ax
        if f_cand <= f_x:  # monotone restep: never accept a worse iterate
            x, ax, f_x = cand, a_cand, f_cand
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        a, c = t / t_next, (t - 1.0) / t_next
        z = x + a * (cand - x) + c * (x - x_prev)
        az = ax + a * (a_cand - ax) + c * (ax - ax_prev)
        t = t_next
        objectives.append(f_x)

    return FistaResult(image=Image(x, y.geom), objectives=objectives, lipschitz=lip)


def tune_lambda(
    sinograms: Sequence[Sinogram],
    references: Sequence[np.ndarray],
    lambdas: Sequence[float],
    cfg: FistaConfig = FistaConfig(),
) -> tuple[float, dict[float, float]]:
    """Pick the TV weight maximizing mean PSNR on (sinogram, reference) pairs."""
    if len(sinograms) != len(references):
        raise ValueError("need one reference per sinogram")
    if not sinograms:
        raise ValueError("need at least one (sinogram, reference) pair to score a TV weight")
    if not lambdas:
        raise ValueError("need at least one TV weight to choose from")
    table: dict[float, float] = {}
    for lam in lambdas:
        scores = [
            psnr(fista_tv(y, lam, cfg).image.data, ref)
            for y, ref in zip(sinograms, references)
        ]
        table[float(lam)] = float(np.mean(scores))
    best = max(table, key=table.get)
    return best, table
