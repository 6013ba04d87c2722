"""The benchmark's three closed-loop workloads.

Each workload has one caller that sends its next op only after the previous
one returned. A workload builds its seed-free parts (`build`), generates its
inputs from the workload seed (`inputs`), makes a warm-up op on a fixed
input whose output is checked against the golden reference stored in
`golden/` (`setup`), runs ops until a deadline (`run`) and checks what the
timed ops left behind (`finish`).

Golden checks use a relative tolerance of `REL_TOL`: rounding-level drift
(about 1e-16, as from reordering float64 sums) passes, a dropped or zeroed
channel does not.
"""

from __future__ import annotations

import gc
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sparsect import checkpoint, experiments, training
from sparsect.fista import FistaConfig, fista_tv
from sparsect.geometry import Sinogram, make_geometry, sparse_subset
from sparsect.metrics import psnr
from sparsect.model import ReconNet
from sparsect.optim import Adam
from sparsect.phantoms import random_ellipses
from sparsect.projector import JosephProjector

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
REL_TOL = 1e-9


@dataclass
class OpLog:
    """Outcomes of the ops of one timed phase.

    `start` opens an op and `tick` closes it and opens the next, so an op's
    latency is the gap between successive ticks. A tracer attached here is
    told the id of the op in progress.
    """

    latencies_s: list[float] = field(default_factory=list)
    op_walls: dict[int, float] = field(default_factory=dict)
    psnr_db: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    tracer: object = None
    _last: float = 0.0

    def start(self):
        self._last = time.perf_counter()
        if self.tracer is not None:
            self.tracer.op = self.attempted

    def tick(self, ok: bool = True):
        now = time.perf_counter()
        op = self.attempted
        self.attempted += 1
        if ok:
            self.latencies_s.append(now - self._last)
            self.op_walls[op] = now - self._last
        else:
            self.failed += 1
        self._last = now
        if self.tracer is not None:
            self.tracer.op = self.attempted

    def fail(self, what: str):
        """Record an op that raised; call from inside the `except` block."""
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"{what}: {traceback.format_exc(limit=3)}")

    def gate(self, ok: bool, what: str):
        """Record a correctness check made outside the timed ops."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def relative_error(got, want) -> float:
    """max |got - want| over max |want|; inf on a shape mismatch or non-finite value."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    if got.shape != want.shape or not np.all(np.isfinite(got)):
        return math.inf
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))


def golden_check(name: str, got, want) -> tuple[bool, str]:
    err = relative_error(got, want)
    ok = err <= REL_TOL
    return ok, f"{name}: relative error {err:.3e} against golden (tolerance {REL_TOL:g})"


def load_golden() -> dict[str, np.ndarray]:
    """Golden value per workload: train-toy's loss trace, recon-mid's output
    image, fista-tv's [PSNR in dB, final objective]."""
    golden = {k: np.asarray(v) for k, v in json.loads((GOLDEN_DIR / "golden.json").read_text()).items()}
    golden["recon-mid"] = np.load(GOLDEN_DIR / "recon_mid.npy")
    return golden


def _phantom_seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(2**31, size=n)]


def _non_increasing(values) -> bool:
    v = np.asarray(values, dtype=np.float64)
    return bool(np.all(np.isfinite(v)) and np.all(np.diff(v) <= 0.0))


# ---------------------------------------------------------------------------
# train-toy
# ---------------------------------------------------------------------------

@dataclass
class TrainState:
    model: ReconNet
    initial: dict[str, np.ndarray]
    images: list[np.ndarray]
    eval_images: list[np.ndarray]
    train_seed: int
    workdir: Path
    gate: tuple[bool, str]
    snapshot: dict[str, np.ndarray] | None = None


class TrainToy:
    """`training.train_loop` on the toy recipe, resumed every `EPISODE` steps."""

    name = "train-toy"
    SPEC = experiments.ToySpec()
    EPISODE = 20
    CHECKPOINT_EVERY = 10
    N_TRAIN = 32
    N_EVAL = 16
    EVAL_VIEWS = 15
    GOLDEN_STEPS = 3
    GOLDEN_SEEDS = (11, 12, 13, 14)

    def build(self) -> ReconNet:
        return experiments.toy_model(self.SPEC)

    def inputs(self, seed: int) -> dict:
        seeds = _phantom_seeds(seed, self.N_TRAIN + self.N_EVAL)
        images = [random_ellipses((32, 32), s, experiments.TOY_PHANTOM_SPEC) for s in seeds]
        return {
            "images": images[: self.N_TRAIN],
            "eval_images": images[self.N_TRAIN:],
            "train_seed": seed,
        }

    def _config(self, steps: int, seed: int, checkpoint_every: int = 0) -> training.TrainConfig:
        s = self.SPEC
        return training.TrainConfig(
            steps=steps, view_schedule=s.schedule, lr=s.lr, gamma=s.gamma,
            seed=seed, checkpoint_every=checkpoint_every,
        )

    def golden_value(self, model: ReconNet) -> list[float]:
        """Losses of a short run on fixed phantoms; weights are put back after."""
        saved = {k: v.copy() for k, v in model.named_parameters().items()}
        images = [random_ellipses((32, 32), s, experiments.TOY_PHANTOM_SPEC)
                  for s in self.GOLDEN_SEEDS]
        try:
            result = training.train_loop(model, images, self._config(self.GOLDEN_STEPS, 0))
        finally:
            for k, v in model.named_parameters().items():
                v[...] = saved[k]
        return [row[2] for row in result.rows]

    def setup(self, seed: int, workdir: Path, golden: dict) -> TrainState:
        model = self.build()
        initial = {k: v.copy() for k, v in model.named_parameters().items()}
        gate = golden_check(self.name, self.golden_value(model), golden[self.name])
        return TrainState(model=model, initial=initial, workdir=workdir, gate=gate,
                          **self.inputs(seed))

    def run(self, st: TrainState, seconds: float, log: OpLog):
        ckpt, tsv = st.workdir / "model.ckpt", st.workdir / "train.tsv"
        for p in (ckpt, tsv):
            p.unlink(missing_ok=True)
        original_step = Adam.step

        def step_and_tick(self, grads):
            original_step(self, grads)
            log.tick()

        steps, resume = 0, None
        deadline = time.perf_counter() + seconds
        Adam.step = step_and_tick
        try:
            log.start()
            while time.perf_counter() < deadline:
                steps += self.EPISODE
                cfg = self._config(steps, st.train_seed, self.CHECKPOINT_EVERY)
                try:
                    result = training.train_loop(st.model, st.images, cfg, log_path=tsv,
                                                 checkpoint_path=ckpt, resume_from=resume)
                except Exception:
                    log.fail(f"{self.name} episode ending at step {steps}")
                    break
                resume = ckpt
                bad = sum(not math.isfinite(row[2]) for row in result.rows)
                if bad:
                    log.failed += bad
                    log.problems.append(f"{bad} non-finite losses before step {steps}")
                if st.snapshot is None:
                    st.snapshot = {k: v.copy() for k, v in st.model.named_parameters().items()}
        finally:
            Adam.step = original_step

    def finish(self, st: TrainState, log: OpLog):
        """Reload the last checkpoint; score the weights after the first episode."""
        ckpt = st.workdir / "model.ckpt"
        if ckpt.exists():
            stored = checkpoint.load_checkpoint(ckpt).params
            own = st.model.named_parameters()
            same = own.keys() == stored.keys() and all(
                np.array_equal(own[k], stored[k]) for k in own)
            log.gate(same, f"{self.name}: last checkpoint does not reload to the model's weights")
        if st.snapshot is not None:
            scored = self.build()
            for k, v in scored.named_parameters().items():
                v[...] = st.snapshot[k]
            log.psnr_db += experiments.eval_model(scored, st.eval_images, self.EVAL_VIEWS)
        # Put the weights back so a later phase starts from the same model.
        for k, v in st.model.named_parameters().items():
            v[...] = st.initial[k]
        st.snapshot = None


# ---------------------------------------------------------------------------
# recon-mid and fista-tv: one reconstruction per op
# ---------------------------------------------------------------------------

@dataclass
class ScanState:
    solver: object
    scans: list[tuple[Sinogram, np.ndarray]]
    gate: tuple[bool, str]


class ScanWorkload:
    """One reconstruction per op, cycling through a pool of seeded ellipse phantoms."""

    name = ""
    GRID = (128, 128)
    POOL = 5
    GOLDEN_SEED = 2024

    def inputs(self, seed: int) -> dict:
        return {"phantoms": [random_ellipses(self.GRID, s) for s in _phantom_seeds(seed, self.POOL)]}

    def setup(self, seed: int, workdir: Path, golden: dict) -> ScanState:
        solver = self.build()
        scans = [(self.scan(solver, x), x) for x in self.inputs(seed)["phantoms"]]
        gate = golden_check(self.name, self.golden_value(solver), golden[self.name])
        return ScanState(solver=solver, scans=scans, gate=gate)

    def golden_value(self, solver):
        """Output of the warm-up op on the fixed golden phantom."""
        x = random_ellipses(self.GRID, self.GOLDEN_SEED)
        return self.golden_op(solver, self.scan(solver, x), x)

    def run(self, st: ScanState, seconds: float, log: OpLog):
        """Solve scans in pool order until the deadline, and at least the whole pool
        once, so that the mean PSNR covers the same phantoms however fast the ops are."""
        deadline = time.perf_counter() + seconds
        i = 0
        while time.perf_counter() < deadline or i < len(st.scans):
            y, x = st.scans[i % len(st.scans)]
            i += 1
            # Tape nodes and their tape form reference cycles, so a finished
            # forward pass is freed only by the cycle collector. Collect here,
            # outside the op, so peak memory is one op's and not the collector's
            # timing (recon-mid peaked at 5.9 GiB without it).
            gc.collect()
            log.start()
            try:
                out, ok = self.solve(st.solver, y)
            except Exception:
                log.fail(f"{self.name} op {i}")
                continue
            log.tick(ok)
            if not ok:
                log.problems.append(f"{self.name} op {i}: output fails its check")
            elif i <= len(st.scans):
                log.psnr_db.append(psnr(np.clip(out, 0.0, 1.0), x))

    def finish(self, st: ScanState, log: OpLog):
        pass


class ReconMid(ScanWorkload):
    """`model.ReconNet.forward` once per scan."""

    name = "recon-mid"
    VIEWS = 32

    def build(self) -> ReconNet:
        geom = make_geometry("fan", n_views=256, n_det=256, det_spacing=2.0, grid=self.GRID,
                             pixel_size=0.7, src_dist=125.0, det_dist=125.0)
        model = ReconNet(geom, width=32, depth=5, n_stages=3, variant="g", seed=0)
        model.register_views(self.VIEWS)
        return model

    def scan(self, model: ReconNet, x: np.ndarray) -> Sinogram:
        bundle = model.register_views(self.VIEWS)
        return Sinogram(bundle.proj_s.apply(x), model.geom, bundle.subset)

    def solve(self, model: ReconNet, y: Sinogram) -> tuple[np.ndarray, bool]:
        out = model.forward(y).data
        return out, bool(np.all(np.isfinite(out)))

    def golden_op(self, model: ReconNet, y: Sinogram, x: np.ndarray) -> np.ndarray:
        """The network's output image."""
        return self.solve(model, y)[0]


class FistaTv(ScanWorkload):
    """`fista.fista_tv` with the default config and a fixed TV weight."""

    name = "fista-tv"
    VIEWS = 45
    LAM = 0.01
    POOL = 8
    CONFIG = FistaConfig()

    def build(self) -> JosephProjector:
        geom = make_geometry("parallel", n_views=180, n_det=183, det_spacing=1.0,
                             grid=self.GRID, pixel_size=1.0)
        return JosephProjector(geom, sparse_subset(geom, self.VIEWS))

    def scan(self, proj: JosephProjector, x: np.ndarray) -> Sinogram:
        return Sinogram(proj.apply(x), proj.geom, proj.subset)

    def solve(self, proj: JosephProjector, y: Sinogram) -> tuple[np.ndarray, bool]:
        # fista_tv builds its own projector for y's subset; `proj` only made the scans.
        res = fista_tv(y, self.LAM, self.CONFIG)
        out = res.image.data
        return out, bool(np.all(np.isfinite(out))) and _non_increasing(res.objectives)

    def golden_op(self, proj: JosephProjector, y: Sinogram, x: np.ndarray) -> list[float]:
        """[PSNR in dB, final objective]; NaN when the objective trace increases."""
        res = fista_tv(y, self.LAM, self.CONFIG)
        if not _non_increasing(res.objectives):
            return [math.nan, math.nan]
        return [psnr(np.clip(res.image.data, 0.0, 1.0), x), res.objectives[-1]]


WORKLOADS = {w.name: w for w in (TrainToy(), ReconMid(), FistaTv())}
