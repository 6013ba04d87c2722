"""Iterative reconstruction baseline: monotone FISTA with isotropic TV.

Objective: 0.5*||A x - y||^2 + lam * TV(x), x >= 0. The TV proximal map
uses Chambolle's dual fixed-point iteration with a fixed inner budget so
runs are deterministic. The monotone variant keeps the best objective seen,
so the recorded objective trace never increases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .fbp import FbpOperator
from .geometry import Image, Sinogram
from .metrics import psnr
from .projector import _STORE, JosephProjector


@dataclass(frozen=True)
class FistaConfig:
    n_iters: int = 60
    tv_iters: int = 20
    power_iters: int = 20
    tau: float = 0.125  # dual step for the TV prox
    nonneg: bool = True
    fbp_init: bool = True


@dataclass
class FistaResult:
    image: Image
    objectives: list[float] = field(default_factory=list)
    lipschitz: float = 0.0


def _grad(x: np.ndarray, gx: np.ndarray, gy: np.ndarray) -> None:
    """Forward differences of x into gx, gy; their last row and column must hold 0."""
    np.subtract(x[1:, :], x[:-1, :], out=gx[:-1, :])
    np.subtract(x[:, 1:], x[:, :-1], out=gy[:, :-1])


def _div(px: np.ndarray, py: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Discrete divergence of (px, py), the negative adjoint of _grad, into out."""
    out.fill(0.0)
    out[:-1, :] += px[:-1, :]
    out[1:, :] -= px[:-1, :]
    out[:, :-1] += py[:, :-1]
    out[:, 1:] -= py[:, :-1]
    return out


def tv_value(x: np.ndarray) -> float:
    gx = np.zeros_like(x)
    gy = np.zeros_like(x)
    _grad(x, gx, gy)
    return float(np.sqrt(gx * gx + gy * gy).sum())


def tv_prox(b: np.ndarray, weight: float, n_iters: int = 20, tau: float = 0.125) -> np.ndarray:
    """argmin_x 0.5*||x-b||^2 + weight*TV(x), via the dual ascent of Chambolle.

    The inner loop works in place on six preallocated buffers; each step is
    px <- (px + tau*gx) / (1 + tau*|g|) with g = grad(div(p) - b/weight).
    """
    if np.isnan(weight):
        raise ValueError("TV weight is NaN")
    if weight <= 0:
        return b.copy()
    b_w = b / weight
    px = np.zeros_like(b)
    py = np.zeros_like(b)
    gx = np.zeros_like(b)
    gy = np.zeros_like(b)
    tmp = np.empty_like(b)
    denom = np.empty_like(b)
    for _ in range(n_iters):
        _div(px, py, tmp)
        np.subtract(tmp, b_w, out=tmp)
        _grad(tmp, gx, gy)
        np.multiply(gx, gx, out=denom)
        np.multiply(gy, gy, out=tmp)
        np.add(denom, tmp, out=denom)
        np.sqrt(denom, out=denom)
        np.multiply(tau, denom, out=denom)
        np.add(1.0, denom, out=denom)
        for p, g in ((px, gx), (py, gy)):
            np.multiply(tau, g, out=tmp)
            np.add(p, tmp, out=p)
            np.divide(p, denom, out=p)
    _div(px, py, tmp)
    np.multiply(weight, tmp, out=tmp)
    return np.subtract(b, tmp, out=tmp)


def estimate_lipschitz(proj: JosephProjector, n_iters: int = 20) -> float:
    """Largest eigenvalue of A^T A by seeded power iteration (data-term Lipschitz)."""
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
    if not lam > 0:
        raise ValueError(f"TV weight must be positive, got {lam}")
    proj = JosephProjector(y.geom, y.subset)
    data = y.data

    def objective(x: np.ndarray, ax: np.ndarray) -> float:
        r = ax - data
        return 0.5 * float((r * r).sum()) + lam * tv_value(x)

    if cfg.fbp_init:
        x = FbpOperator(y.geom, y.subset).apply(data)
        if cfg.nonneg:
            x = np.maximum(x, 0.0)
    else:
        x = np.zeros(proj.in_shape)

    # The power iteration is seeded, so a stored estimate equals a fresh one.
    lip = _STORE.get(
        ("lipschitz", y.geom.fingerprint, y.subset.indices.tobytes(), cfg.power_iters),
        lambda: estimate_lipschitz(proj, cfg.power_iters),
    )
    step = 1.0 / lip

    ax = proj.apply(x)
    z, az = x, ax
    t = 1.0
    f_x = objective(x, ax)
    objectives = [f_x]

    for _ in range(cfg.n_iters):
        grad_z = proj.applyT(az - data)
        cand = tv_prox(z - step * grad_z, lam * step, cfg.tv_iters, cfg.tau)
        if cfg.nonneg:
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
