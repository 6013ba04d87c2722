"""Training and finetuning loops.

Single-image batches; each step draws a training image, a view count from
the schedule, and (optionally) horizontal/vertical flips from one RNG
stream, so a run checkpointed mid-way and resumed reproduces the
uninterrupted run bit for bit.
"""

from __future__ import annotations

import math
import os
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import takewhile
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .checkpoint import (
    load_checkpoint,
    restore_model,
    restore_optimizer,
    restore_rng,
    save_checkpoint,
)
from .geometry import Sinogram, _checked
from .losses import LossConfig, total_loss, unsupervised_loss
from .model import ReconNet
from .optim import Adam, AdamConfig


class TrainingDivergedError(Exception):
    pass


@dataclass(frozen=True)
class TrainConfig:
    steps: int
    view_schedule: tuple[int, ...]
    lr: float = 1e-4
    gamma: float = 1.0
    seed: int = 0
    augment_flips: bool = True
    checkpoint_every: int = 0  # 0 = final checkpoint only

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if not self.view_schedule:
            raise ValueError("view_schedule must not be empty")
        # The configs the loop builds from lr and gamma check them.
        AdamConfig(lr=self.lr)
        LossConfig(gamma=self.gamma)


@dataclass
class TrainResult:
    rows: list[tuple[int, int, float, float, float]] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.rows[-1][2] if self.rows else math.nan


LOG_HEADER = "step\tview_count\tloss\tl1\tssim_term"


def _open_log(log_path: str | Path | None, start: int):
    """Open the TSV log of a run that starts at step `start`.

    A resumed run keeps the header and the complete rows before `start`. It
    drops the rows logged after its checkpoint and then writes them again.
    """
    if log_path is None:
        return nullcontext()
    path = Path(log_path)
    lines = path.read_bytes().splitlines(keepends=True) if start and path.exists() else []
    rows = takewhile(
        lambda ln: ln.endswith(b"\n") and int(ln.split(b"\t", 1)[0]) < start, lines[1:]
    )
    kept = sum(map(len, [*lines[:1], *rows]))
    if kept:
        os.truncate(path, kept)
    else:
        path.write_text(LOG_HEADER + "\n")
    return open(path, "a")


def _collect_grads(pnode_sets) -> dict[str, np.ndarray]:
    return {
        f"p{i}.{name}": np.zeros_like(node.value) if node.grad is None else node.grad
        for i, pn in enumerate(pnode_sets)
        for name, node in pn.items()
    }


def _run_steps(
    model: ReconNet, optimizer: Adam, steps: range, draw, log_path, after_row=lambda step: None
) -> TrainResult:
    """One optimizer step per entry of `steps`, each logged as one row.

    `draw()` returns the step's sinogram and a loss function of the network
    output and stage context; `after_row(step)` runs after the row is logged.
    """
    result = TrainResult()
    with _open_log(log_path, steps.start) as log_f:
        for step in steps:
            y, loss_fn = draw()
            tape = ad.Tape()
            out, pnode_sets, ctx = model.forward_graph(y, tape)
            loss, l1, ssim_term = loss_fn(out, ctx)
            if not np.isfinite(loss.value):
                raise TrainingDivergedError(f"non-finite loss at step {step}")
            ad.backward(loss)
            optimizer.step(_collect_grads(pnode_sets))
            row = (step, y.subset.q1, float(loss.value), float(l1.value), float(ssim_term.value))
            result.rows.append(row)
            if log_f is not None:
                print(*row[:2], *(f"{v:.10e}" for v in row[2:]), sep="\t", file=log_f, flush=True)
            after_row(step)
    return result


def _draw_sample(rng, images, cfg: TrainConfig):
    idx = int(rng.integers(len(images)))
    q = int(cfg.view_schedule[rng.integers(len(cfg.view_schedule))])
    x = images[idx]
    if cfg.augment_flips:
        if rng.integers(2):
            x = x[:, ::-1]
        if rng.integers(2):
            x = x[::-1, :]
    return np.ascontiguousarray(x), q


def train_loop(
    model: ReconNet,
    images: Sequence[np.ndarray],
    cfg: TrainConfig,
    log_path: str | Path | None = None,
    checkpoint_path: str | Path | None = None,
    resume_from: str | Path | None = None,
) -> TrainResult:
    """Supervised training against known images; measurements are synthesized.

    `resume_from` restores weights, optimizer moments, and the RNG stream
    from a checkpoint written by this loop and continues at the step after
    the one it was saved on; the log is rewound to that step. A checkpoint
    that already ran `cfg.steps` steps or more raises ValueError.
    """
    if not images:
        raise ValueError("need at least one training image")
    for x in images:
        _checked(x, model.geom.grid, "image")
    for q in cfg.view_schedule:
        model.register_views(q)

    loss_cfg = LossConfig(gamma=cfg.gamma)
    optimizer = Adam(model.named_parameters(), AdamConfig(lr=cfg.lr))
    rng = np.random.default_rng(cfg.seed)
    if resume_from is not None:
        ckpt = load_checkpoint(resume_from)
        restore_model(model, ckpt)
        restore_optimizer(optimizer, ckpt)
        restore_rng(rng, ckpt)
        if optimizer.t >= cfg.steps:
            raise ValueError(
                f"checkpoint {resume_from} already ran {optimizer.t} steps of {cfg.steps}; "
                "nothing is left to train"
            )

    def draw():
        x_true, q = _draw_sample(rng, images, cfg)
        bundle = model.register_views(q)
        y = Sinogram(bundle.proj_s.apply(x_true), model.geom, bundle.subset)
        return y, lambda out, ctx: total_loss(out, out.tape.constant(x_true), loss_cfg)

    def checkpoint(step: int):
        due = cfg.checkpoint_every and (step + 1) % cfg.checkpoint_every == 0
        if checkpoint_path is not None and (due or step == cfg.steps - 1):
            save_checkpoint(checkpoint_path, model, cfg.gamma, optimizer, rng)

    return _run_steps(model, optimizer, range(optimizer.t, cfg.steps), draw, log_path, checkpoint)


def finetune_unsupervised(
    model: ReconNet,
    y: Sinogram,
    steps: int,
    lr: float = 1e-5,
    gamma: float = 1.0,
    log_path: str | Path | None = None,
) -> TrainResult:
    """Adapt weights to one measured sinogram via reprojection consistency.

    steps=0 leaves the model untouched (useful as a no-op baseline).
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    loss_cfg = LossConfig(gamma=gamma)
    optimizer = Adam(model.named_parameters(), AdamConfig(lr=lr))
    loss_fn = lambda out, ctx: unsupervised_loss(out, ctx, loss_cfg)
    return _run_steps(model, optimizer, range(steps), lambda: (y, loss_fn), log_path)
