"""Desk-scale experiment recipes shared by the CLI, scripts, and tests.

Everything here runs on synthetic ellipse phantoms over a small fan-beam
layout so a full train/evaluate cycle fits in minutes on one CPU.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .fbp import FbpOperator
from .fista import FistaConfig, fista_tv, tune_lambda
from .geometry import ScanGeometry, Sinogram, make_geometry, perturb_geometry, sparse_subset
from .metrics import psnr
from .model import ReconNet
from .phantoms import EllipseCloudSpec, random_ellipses
from .projector import JosephProjector
from .refine import variant_groups
from .training import TrainConfig, TrainResult, train_loop

TOY_SCHEDULE = (15, 30)

# Smooth dome profiles rather than hard indicator ellipses: at this
# measurement budget the hard-edged family is essentially solved by the
# TV baseline, which leaves the learned model nothing to win on.
TOY_PHANTOM_SPEC = EllipseCloudSpec(profile_power=(1.25, 3.0))


def toy_geometry() -> ScanGeometry:
    """Fan layout small enough that one training step is tens of milliseconds.

    Deliberately few detector bins: at 15 of 60 views the measurement count
    sits well below the pixel count, which is the regime where a learned
    family prior separates from tuned TV instead of tying it.
    """
    return make_geometry(
        "fan",
        n_views=60,
        n_det=17,
        det_spacing=6.2,
        grid=(32, 32),
        pixel_size=1.0,
        src_dist=60.0,
        det_dist=60.0,
    )


def toy_phantoms(n: int, seed0: int) -> list[np.ndarray]:
    return [random_ellipses((32, 32), seed=seed0 + i, spec=TOY_PHANTOM_SPEC) for i in range(n)]


def toy_splits(
    n_train: int = 500, n_val: int = 4, n_test: int = 16, seed: int = 0
) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]]:
    """Blocked seed ranges so the three splits never share a phantom."""
    base = 1000 * (3 * seed + 1)
    return (
        toy_phantoms(n_train, base),
        toy_phantoms(n_val, base + 1000),
        toy_phantoms(n_test, base + 2000),
    )


@dataclass(frozen=True)
class ToySpec:
    variant: str = "g"
    width: int = 8
    depth: int = 2
    n_stages: int = 3
    steps: int = 500
    lr: float = 3e-3
    gamma: float = 0.25
    seed: int = 0
    schedule: tuple[int, ...] = TOY_SCHEDULE


def toy_model(spec: ToySpec = ToySpec()) -> ReconNet:
    return ReconNet(
        toy_geometry(),
        width=spec.width,
        depth=spec.depth,
        n_stages=spec.n_stages,
        variant=spec.variant,
        seed=spec.seed,
    )


def train_toy(
    spec: ToySpec = ToySpec(),
    images: Sequence[np.ndarray] | None = None,
    log_path: str | Path | None = None,
    checkpoint_path: str | Path | None = None,
) -> tuple[ReconNet, TrainResult]:
    model = toy_model(spec)
    if images is None:
        images, _, _ = toy_splits(seed=spec.seed)
    cfg = TrainConfig(
        steps=spec.steps,
        view_schedule=spec.schedule,
        lr=spec.lr,
        gamma=spec.gamma,
        seed=spec.seed,
    )
    result = train_loop(model, images, cfg, log_path=log_path, checkpoint_path=checkpoint_path)
    return model, result


def _sino(geom: ScanGeometry, proj: JosephProjector, x: np.ndarray) -> Sinogram:
    return Sinogram(proj.apply(x), geom, proj.subset)


def eval_model(model: ReconNet, images: Sequence[np.ndarray], q: int) -> list[float]:
    """Held-out PSNR per image; outputs clipped to [0, 1] like every method."""
    bundle = model.register_views(q)
    out = []
    for x in images:
        y = Sinogram(bundle.proj_s.apply(x), model.geom, bundle.subset)
        rec = np.clip(model.forward(y).data, 0.0, 1.0)
        out.append(psnr(rec, x))
    return out


def eval_fbp(geom: ScanGeometry, images: Sequence[np.ndarray], q: int) -> list[float]:
    subset = sparse_subset(geom, q)
    proj = JosephProjector(geom, subset)
    op = FbpOperator(geom, subset)
    return [
        psnr(np.clip(op.apply(_sino(geom, proj, x).data), 0.0, 1.0), x) for x in images
    ]


def eval_fista(
    geom: ScanGeometry,
    images: Sequence[np.ndarray],
    q: int,
    lam: float,
    cfg: FistaConfig = FistaConfig(),
) -> list[float]:
    subset = sparse_subset(geom, q)
    proj = JosephProjector(geom, subset)
    return [
        psnr(np.clip(fista_tv(_sino(geom, proj, x), lam, cfg).image.data, 0.0, 1.0), x)
        for x in images
    ]


def tuned_fista_lambda(
    geom: ScanGeometry,
    val_images: Sequence[np.ndarray],
    q: int,
    lambdas: Sequence[float] = (0.003, 0.01, 0.03, 0.1, 0.3),
    cfg: FistaConfig = FistaConfig(),
) -> float:
    subset = sparse_subset(geom, q)
    proj = JosephProjector(geom, subset)
    sinos = [_sino(geom, proj, x) for x in val_images]
    best, _ = tune_lambda(sinos, val_images, lambdas, cfg)
    return best


@dataclass
class AblationRow:
    variant: str
    psnr_by_views: dict[int, float]


def run_ablation(variants: Sequence[str], spec: ToySpec = ToySpec()) -> list[AblationRow]:
    """Train each channel-subset variant identically and score held-out PSNR."""
    for v in variants:  # every letter, before any variant trains
        variant_groups(v)
    train_imgs, _, test_imgs = toy_splits(seed=spec.seed)
    rows = []
    for v in variants:
        model, _ = train_toy(replace(spec, variant=v), images=train_imgs)
        scores = {q: float(np.mean(eval_model(model, test_imgs, q))) for q in spec.schedule}
        rows.append(AblationRow(variant=v, psnr_by_views=scores))
    return rows


def perturbed_pnp_psnr(
    model: ReconNet,
    x_true: np.ndarray,
    q: int,
    n_iters: int = 20,
    rel: float = 0.01,
    seed: int = 0,
) -> list[float]:
    """PSNR trace of plug-and-play iteration under mis-specified fan distances.

    The trained weights are applied through operators whose source/detector
    distances are perturbed by up to +-rel, and the measurements come from
    the same perturbed layout, so train and test geometry disagree.
    """
    pg = perturb_geometry(model.geom, rel=rel, seed=seed)
    shifted = model.with_geometry(pg)
    subset = sparse_subset(pg, q)
    y = Sinogram(JosephProjector(pg, subset).apply(x_true), pg, subset)
    traj = shifted.run_pnp(y, n_iters, metric=lambda im: psnr(np.clip(im, 0.0, 1.0), x_true))
    return traj.metrics
