#!/usr/bin/env python3
"""Time one paper-scale run and report its peak memory as one JSON line.

Runs:
  forward                 ReconNet.forward in the paper's configuration:
                          the fan-1024 preset (512x512), width 32, depth 5,
                          7 stages, variant g, on the Shepp-Logan sinogram at
                          q=64 views.
  correction N            the correction network alone (width 32, depth 5,
                          9 input channels, seed-0 weights) on a seeded
                          random N x N stack, without a gradient graph.
  train-step N STAGES     one train_loop step (q=64, no flips) of a
                          STAGES-stage model on the fan-1024 preset scaled to
                          N x N, width 32, depth 5, variant g.
  operators N             the projector's and FbpOperator's apply and applyT
                          on the fan-1024 preset scaled to N x N, at q=64 and
                          on the full view set, on seeded random inputs: one
                          warm-up call, then the median of REPEAT calls each.
  fista N                 one fista_tv solve (default config, lam 0.01) on
                          the Shepp-Logan sinogram of the fan-1024 preset
                          scaled to N x N, at q=64 views.

Each invocation makes one run and prints one line: the run's settings,
`wall_s` (the timed call only: `forward`, `apply_correction` or
`train_loop` or `fista_tv`; building the model and its input, and for a
training step registering its views, is reported apart as `setup_s`),
`peak_rss_mib` (the process's ru_maxrss, so run one row per process) and
`hash` (the first 16 hex digits of the SHA-256 of the output: the image,
or for a training step the updated parameters in name order, or for a
FISTA solve the image and then its objective trace). An
`operators` row gives, per call, its median `ms` and its output's `hash`
under `calls`, and `wall_s` is the time of all its calls. Set PYTHONPATH
to choose which source tree it measures.
"""

import argparse
import hashlib
import json
import resource
import time

import numpy as np

from sparsect import autodiff as ad
from sparsect.correction import CorrectionConfig, apply_correction, init_params
from sparsect.fbp import FbpOperator
from sparsect.fista import fista_tv
from sparsect.geometry import Image, Sinogram, geometry_preset, scaled_preset, sparse_subset
from sparsect.model import ReconNet
from sparsect.phantoms import random_ellipses, shepp_logan
from sparsect.projector import JosephProjector, forward_project
from sparsect.training import TrainConfig, train_loop

WIDTH, DEPTH, VIEWS, VARIANT = 32, 5, 64, "g"
FISTA_LAM = 0.01
REPEAT = 3


def _hash(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def run_forward(args) -> dict:
    t0 = time.perf_counter()
    geom = geometry_preset("fan-1024")
    model = ReconNet(geom, width=WIDTH, depth=DEPTH, n_stages=7, variant=VARIANT, seed=0)
    y = forward_project(Image(shepp_logan(geom.grid), geom), sparse_subset(geom, VIEWS))
    t1 = time.perf_counter()
    out = model.forward(y).data
    t2 = time.perf_counter()
    return {"setup_s": t1 - t0, "wall_s": t2 - t1, "hash": _hash([out]),
            "finite": bool(np.isfinite(out).all())}


def run_correction(args) -> dict:
    n = args.n
    t0 = time.perf_counter()
    cfg = CorrectionConfig(width=WIDTH, depth=DEPTH, c_in=9)
    tape = ad.Tape()
    pnodes = {k: tape.constant(v) for k, v in init_params(cfg, seed=0).items()}
    stack = tape.constant(np.random.default_rng(1).standard_normal((9, n, n)))
    t1 = time.perf_counter()
    out = apply_correction(stack, pnodes, cfg).value
    t2 = time.perf_counter()
    return {"setup_s": t1 - t0, "wall_s": t2 - t1, "hash": _hash([out]),
            "finite": bool(np.isfinite(out).all())}


def run_train_step(args) -> dict:
    n = args.n
    t0 = time.perf_counter()
    model = ReconNet(scaled_preset("fan-1024", (n, n)), width=WIDTH, depth=DEPTH,
                     n_stages=args.stages, variant=VARIANT, seed=0)
    model.register_views(VIEWS)
    image = random_ellipses((n, n), seed=5)
    t1 = time.perf_counter()
    result = train_loop(model, [image],
                        TrainConfig(steps=1, view_schedule=(VIEWS,), augment_flips=False))
    t2 = time.perf_counter()
    params = model.named_parameters()
    loss = result.final_loss
    return {"setup_s": t1 - t0, "wall_s": t2 - t1, "loss": loss,
            "hash": _hash(params[k] for k in sorted(params)),
            "finite": bool(np.isfinite(loss))}


def run_operators(args) -> dict:
    n = args.n
    t0 = time.perf_counter()
    geom = scaled_preset("fan-1024", (n, n))
    rng = np.random.default_rng(2)
    x = rng.standard_normal(geom.grid)
    cases = []
    for views, subset in ((f"q{VIEWS}", sparse_subset(geom, VIEWS)), ("full", None)):
        proj, op = JosephProjector(geom, subset), FbpOperator(geom, subset)
        y = rng.standard_normal(proj.out_shape)
        cases += [(f"projector.apply {views}", proj.apply, x),
                  (f"projector.applyT {views}", proj.applyT, y),
                  (f"fbp.apply {views}", op.apply, y),
                  (f"fbp.applyT {views}", op.applyT, x)]
    t1 = time.perf_counter()
    calls, outs = {}, []
    for name, fn, arg in cases:
        out = fn(arg)
        outs.append(out)
        times = []
        for _ in range(REPEAT):
            start = time.perf_counter()
            fn(arg)
            times.append(time.perf_counter() - start)
        calls[name] = {"ms": 1e3 * sorted(times)[REPEAT // 2], "hash": _hash([out])}
    t2 = time.perf_counter()
    return {"setup_s": t1 - t0, "wall_s": t2 - t1, "calls": calls, "hash": _hash(outs)}


def run_fista(args) -> dict:
    n = args.n
    t0 = time.perf_counter()
    geom = scaled_preset("fan-1024", (n, n))
    subset = sparse_subset(geom, VIEWS)
    y = Sinogram(JosephProjector(geom, subset).apply(shepp_logan(geom.grid)), geom, subset)
    t1 = time.perf_counter()
    result = fista_tv(y, FISTA_LAM)
    t2 = time.perf_counter()
    image = result.image.data
    return {"setup_s": t1 - t0, "wall_s": t2 - t1, "objective": result.objectives[-1],
            "hash": _hash([image, np.array(result.objectives)]),
            "finite": bool(np.isfinite(image).all())}


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="run", required=True)
    sub.add_parser("forward", help="the paper forward at 512x512, 7 stages")
    p = sub.add_parser("correction", help="the correction network alone at N x N")
    p.add_argument("n", type=_positive)
    p = sub.add_parser("train-step", help="one training step at N x N")
    p.add_argument("n", type=_positive)
    p.add_argument("stages", type=_positive)
    p = sub.add_parser("operators", help="the tomographic operators at N x N, q=64 and full")
    p.add_argument("n", type=_positive)
    p = sub.add_parser("fista", help="one FISTA-TV solve at N x N, q=64")
    p.add_argument("n", type=_positive)
    args = ap.parse_args()

    runs = {"forward": run_forward, "correction": run_correction, "train-step": run_train_step,
            "operators": run_operators, "fista": run_fista}
    row = {"run": args.run, **{k: v for k, v in vars(args).items() if k != "run"}}
    row.update(runs[args.run](args))
    row["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(row))


if __name__ == "__main__":
    main()
