"""Command-line front end.

Images and sinograms travel as binary tensor files; geometry is named on
the command line (preset or key=value config file) because the tensor
container intentionally stores no scan metadata.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

import numpy as np

from .checkpoint import (
    CheckpointError,
    build_model,
    load_checkpoint,
    save_checkpoint,
)
from .correction import param_count
from .experiments import ToySpec, run_ablation
from .fbp import fbp
from .geometry import (
    PRESETS,
    GeometryError,
    Image,
    Sinogram,
    full_subset,
    resolve_geometry,
    sparse_subset,
)
from .metrics import psnr, rmse_hu, ssim_value
from .model import ReconNet
from .phantoms import disk, random_ellipses, shepp_logan
from .projector import JosephProjector, forward_project
from .tensorio import TensorFormatError, load_manifest, load_tensor, save_tensor
from .training import TrainConfig, TrainingDivergedError, train_loop, finetune_unsupervised

_TYPED_ERRORS = (
    GeometryError,
    CheckpointError,
    TensorFormatError,
    TrainingDivergedError,
    ValueError,
    KeyError,
    OSError,
)


def _geom(args):
    return resolve_geometry(args.geometry)


def _subset(geom, views):
    return full_subset(geom) if views is None else sparse_subset(geom, views)


def _load(path, make):
    """`make(tensor at path)`, naming the file in a scan-contract fault."""
    data = load_tensor(path)
    try:
        return make(data)
    except GeometryError as e:
        raise GeometryError(f"{path}: {e}") from None


def _load_sino(path, geom, views) -> Sinogram:
    return _load(path, lambda d: Sinogram(d, geom, _subset(geom, views)))


def _load_image(path, geom) -> Image:
    return _load(path, lambda d: Image(d, geom))


# -- subcommands ---------------------------------------------------------------


def cmd_phantom(args) -> int:
    geom = _geom(args)
    if args.kind == "shepp_logan":
        img = shepp_logan(geom.grid)
    elif args.kind == "disk":
        img = disk(geom.grid, radius=args.radius)
    else:
        img = random_ellipses(geom.grid, seed=args.seed)
    save_tensor(args.out, img)
    print(f"wrote {args.kind} phantom {geom.grid[0]}x{geom.grid[1]} -> {args.out}")
    return 0


def cmd_project(args) -> int:
    geom = _geom(args)
    y = forward_project(_load_image(args.image, geom), _subset(geom, args.views))
    save_tensor(args.out, y.data)
    print(f"wrote sinogram {y.data.shape[0]}x{y.data.shape[1]} -> {args.out}")
    return 0


def cmd_fbp(args) -> int:
    geom = _geom(args)
    rec = fbp(_load_sino(args.sinogram, geom, args.views))
    save_tensor(args.out, rec.data)
    print(f"wrote reconstruction {rec.data.shape[0]}x{rec.data.shape[1]} -> {args.out}")
    return 0


def cmd_train(args) -> int:
    geom = _geom(args)
    man = load_manifest(args.manifest)
    # The manifest names its geometry as --geometry does; a config path is
    # relative to the manifest, like its split paths.
    spec = man.geometry
    if spec not in PRESETS:
        spec = str(Path(args.manifest).parent / spec)
    if resolve_geometry(spec).fingerprint != geom.fingerprint:
        raise GeometryError(
            f"manifest geometry {man.geometry!r} differs from --geometry {args.geometry!r}"
        )
    images = [_load_image(p, geom).data for p in man.paths("train")]
    schedule = tuple(int(v) for v in args.views.split(","))
    steps = args.steps if args.steps is not None else args.epochs * len(images)
    if steps == 0:
        raise ValueError("train needs at least one step; --steps or --epochs gives 0")
    model = ReconNet(
        geom,
        width=args.width,
        depth=args.depth,
        n_stages=args.stages,
        variant=args.variant,
        seed=args.seed,
    )
    cfg = TrainConfig(
        steps=steps,
        view_schedule=schedule,
        lr=args.lr,
        gamma=args.gamma,
        seed=args.seed,
        checkpoint_every=args.checkpoint_every,
    )
    result = train_loop(
        model,
        images,
        cfg,
        log_path=args.log,
        checkpoint_path=args.checkpoint,
        resume_from=args.resume_from,
    )
    if args.checkpoint is None:
        print("warning: no --checkpoint given, weights discarded", file=sys.stderr)
    print(f"trained {steps} steps on {len(images)} images, final loss {result.final_loss:.6f}")
    return 0


def cmd_reconstruct(args) -> int:
    geom = _geom(args)
    model = build_model(geom, load_checkpoint(args.checkpoint))
    rec = model.forward(_load_sino(args.sinogram, geom, args.views))
    save_tensor(args.out, rec.data)
    print(f"wrote reconstruction {rec.data.shape[0]}x{rec.data.shape[1]} -> {args.out}")
    return 0


def cmd_pnp(args) -> int:
    geom = _geom(args)
    model = build_model(geom, load_checkpoint(args.checkpoint))
    y = _load_sino(args.sinogram, geom, args.views)
    metric = None
    if args.reference is not None:
        ref = _load_image(args.reference, geom).data
        metric = lambda im: psnr(np.clip(im, 0.0, 1.0), ref)
    traj = model.run_pnp(y, args.iters, metric=metric)
    save_tensor(args.out, traj.images[-1])
    if traj.metrics is not None:
        print("iter\tpsnr")
        for i, v in enumerate(traj.metrics):
            print(f"{i}\t{v:.4f}")
    print(f"wrote iterate {args.iters} -> {args.out}")
    return 0


def cmd_finetune(args) -> int:
    geom = _geom(args)
    ckpt = load_checkpoint(args.checkpoint)
    model = build_model(geom, ckpt)
    y = _load_sino(args.sinogram, geom, args.views)
    result = finetune_unsupervised(
        model, y, steps=args.epochs, lr=args.lr, gamma=args.gamma, log_path=args.log
    )
    save_checkpoint(args.out, model, gamma=args.gamma)
    tail = f", final loss {result.final_loss:.6f}" if result.rows else " (no-op)"
    print(f"finetuned {args.epochs} steps{tail} -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    a = load_tensor(args.image).astype(np.float64)
    b = load_tensor(args.reference).astype(np.float64)
    row = f"{psnr(a, b):.6g}\t{ssim_value(a, b):.6g}\t{rmse_hu(a, b):.6g}"
    print("psnr\tssim\trmse_hu", row, sep="\n")
    return 0


def cmd_ablate(args) -> int:
    variants = args.variants.split(",")
    spec = ToySpec(steps=args.steps, seed=args.seed)
    rows = run_ablation(variants, spec)
    views = sorted(rows[0].psnr_by_views)
    header = "variant\t" + "\t".join(f"psnr@{q}" for q in views)
    lines = [header] + [
        r.variant + "\t" + "\t".join(f"{r.psnr_by_views[q]:.4f}" for q in views)
        for r in rows
    ]
    text = "\n".join(lines)
    print(text)
    if args.out is not None:
        Path(args.out).write_text(text + "\n")
    return 0


def cmd_selftest(args) -> int:
    failures = 0

    got = param_count(32, 5, 8)
    print(f"param_count(32,5,8)={got}")
    table = {2: 130049, 3: 184513, 4: 238977, 5: 293441, 6: 347905}
    for depth, want in table.items():
        have = param_count(32, depth, 8)
        ok = have == want
        failures += not ok
        print(f"  depth {depth}: {have} {'ok' if ok else f'EXPECTED {want}'}")

    from .geometry import make_geometry

    rng = np.random.default_rng(0)
    for beam in ("parallel", "fan"):
        geom = make_geometry(
            beam, n_views=12, n_det=24,
            det_spacing=1.1 if beam == "parallel" else 2.6,
            grid=(16, 16), pixel_size=1.0, src_dist=40.0, det_dist=40.0,
        )
        proj = JosephProjector(geom, sparse_subset(geom, 12))
        x = rng.standard_normal(geom.grid)
        y = rng.standard_normal(proj.out_shape)
        px = proj.apply(x)
        lhs = float((px * y).sum())
        rhs = float((x * proj.applyT(y)).sum())
        rel = abs(lhs - rhs) / (np.linalg.norm(px) * np.linalg.norm(y))
        ok = rel < 1e-10
        failures += not ok
        print(f"  adjoint {beam}: rel {rel:.2e} {'ok' if ok else 'FAIL'}")

    from . import autodiff as ad

    tape = ad.Tape()
    w = tape.leaf(rng.standard_normal((2, 1, 3, 3)))
    x = tape.leaf(rng.standard_normal((1, 6, 6)))
    out = ad.mean_(ad.abs_(ad.conv3x3(x, w, tape.leaf(np.zeros(2)))))
    ad.backward(out)
    h = 1e-6
    i = (0, 0, 1, 1)
    wp = w.value.copy(); wp[i] += h
    wm = w.value.copy(); wm[i] -= h

    def f(warr):
        t2 = ad.Tape()
        return ad.mean_(
            ad.abs_(ad.conv3x3(t2.leaf(x.value), t2.leaf(warr), t2.leaf(np.zeros(2))))
        ).value

    fd = (f(wp) - f(wm)) / (2 * h)
    rel = abs(w.grad[i] - fd) / max(abs(fd), 1e-12)
    ok = rel < 1e-4
    failures += not ok
    print(f"  gradient check: rel {rel:.2e} {'ok' if ok else 'FAIL'}")

    print("selftest:", "ok" if failures == 0 else f"{failures} failures")
    return 0 if failures == 0 else 1


# -- parser ----------------------------------------------------------------------


def _add_geometry(p):
    p.add_argument("--geometry", required=True, help="preset name or key=value config file")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads any token of a minus sign and a digit,
    or a minus sign, a point and a digit, as a value.

    Before Python 3.13 argparse's negative-number pattern has no exponent
    form, so `--lr -1e-5` failed as a missing argument instead of reaching
    the config check. No option of this CLI starts with a digit, and
    subparsers are built from this class too.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="sparsect", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="generate a test image")
    _add_geometry(p)
    p.add_argument("--kind", choices=["shepp_logan", "random_ellipses", "disk"],
                   default="shepp_logan")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--radius", type=float, default=0.5, help="disk radius, fraction of half-width")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_phantom)

    p = sub.add_parser("project", help="image -> sinogram")
    _add_geometry(p)
    p.add_argument("--views", type=int, default=None, help="sparse view count (default full)")
    p.add_argument("image")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_project)

    p = sub.add_parser("fbp", help="filtered backprojection reconstruction")
    _add_geometry(p)
    p.add_argument("--views", type=int, default=None)
    p.add_argument("sinogram")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_fbp)

    p = sub.add_parser("train", help="train on a manifest's train split")
    _add_geometry(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--views", required=True, help="comma-separated view-count schedule")
    p.add_argument("--epochs", type=int, default=1, help="passes over the train split")
    p.add_argument("--steps", type=int, default=None, help="total steps (overrides --epochs)")
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--stages", type=int, default=7)
    p.add_argument("--depth", type=int, default=5)
    p.add_argument("--width", type=int, default=32)
    p.add_argument("--variant", default="g", choices=list("abcdefg"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--checkpoint-every", type=int, default=0)
    p.add_argument("--resume-from", default=None)
    p.add_argument("--log", default=None, help="tab-separated metrics log path")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("reconstruct", help="checkpoint + sinogram -> image")
    _add_geometry(p)
    p.add_argument("--views", type=int, default=None)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("sinogram")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_reconstruct)

    p = sub.add_parser("pnp", help="iterate the trained stage past its unfolded depth")
    _add_geometry(p)
    p.add_argument("--views", type=int, default=None)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--iters", type=int, default=20)
    p.add_argument("--reference", default=None, help="ground-truth image for a PSNR trace")
    p.add_argument("sinogram")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_pnp)

    p = sub.add_parser("finetune", help="unsupervised adaptation to one sinogram")
    _add_geometry(p)
    p.add_argument("--views", type=int, default=None)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--epochs", type=int, default=0, help="steps on the single measurement")
    p.add_argument("--lr", type=float, default=1e-5)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--log", default=None)
    p.add_argument("sinogram")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_finetune)

    p = sub.add_parser("eval", help="print psnr/ssim/rmse_hu for an image pair")
    p.add_argument("image")
    p.add_argument("reference")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("ablate", help="train channel-subset variants on the toy setup")
    p.add_argument("--variants", default="a,g", help="comma-separated letters a..g")
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("selftest", help="adjoint, gradient, and parameter-count checks")
    p.set_defaults(fn=cmd_selftest)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _TYPED_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
