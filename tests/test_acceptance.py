"""Acceptance gate: one test per shipped guarantee.

Each test appends a single PASS/FAIL line to the run summary (printed by
the conftest terminal hook) and pins its tolerance in the assert. The toy
training run is a module fixture so the uplift, ablation, blind-view, and
plug-and-play checks share one trained model.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

import numpy as np
import pytest

from sparsect import autodiff as ad
from sparsect.correction import param_count
from sparsect.experiments import (
    ToySpec,
    eval_fbp,
    eval_fista,
    eval_model,
    perturbed_pnp_psnr,
    run_ablation,
    toy_geometry,
    toy_splits,
    train_toy,
    tuned_fista_lambda,
)
from sparsect.fista import FistaConfig
from sparsect.geometry import Sinogram, full_subset, make_geometry, sparse_subset
from sparsect.losses import LossConfig, ssim_graph, total_loss, unsupervised_loss
from sparsect.metrics import psnr, ssim_value
from sparsect.model import ReconNet
from sparsect.phantoms import random_ellipses, shepp_logan
from sparsect.projector import JosephProjector
from sparsect.refine import build_bundle, build_context, stage_channel_arrays
from sparsect.fbp import FbpOperator, fbp


def report(lines: list[str], n: int, ok: bool, detail: str) -> None:
    line = f"criterion {n:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    lines.append(line)
    assert ok, line


# -- 1: parameter-count reproduction ---------------------------------------------


def test_criterion_01_param_counts(acceptance_report):
    table = {2: 130049, 3: 184513, 4: 238977, 5: 293441, 6: 347905}
    got = {n: param_count(32, n, 8) for n in table}
    geom = make_geometry("fan", n_views=12, n_det=24, det_spacing=2.6,
                         grid=(16, 16), pixel_size=1.0, src_dist=40.0, det_dist=40.0)
    unshared = ReconNet(geom, width=32, depth=5, n_stages=7, variant="g",
                        share_stage_params=False).param_count
    ok = got == table and unshared == 7 * 293441 == 2054087
    report(acceptance_report, 1, ok,
           f"depth 2..6 -> {sorted(got.values())}, unshared 7-stage {unshared}")


# -- 2: adjoint identity ----------------------------------------------------------


def test_criterion_02_adjoint_identity(acceptance_report):
    rng = np.random.default_rng(7)
    worst = 0.0
    for beam, spacing in (("parallel", 1.1), ("fan", 2.6)):
        geom = make_geometry(beam, n_views=12, n_det=24, det_spacing=spacing,
                             grid=(16, 16), pixel_size=1.0,
                             src_dist=40.0, det_dist=40.0)
        proj = JosephProjector(geom, sparse_subset(geom, 12))
        for _ in range(5):
            x = rng.standard_normal(geom.grid)
            y = rng.standard_normal(proj.out_shape)
            px = proj.apply(x)
            num = abs(float((px * y).sum()) - float((x * proj.applyT(y)).sum()))
            rel = num / (np.linalg.norm(px) * np.linalg.norm(y))
            worst = max(worst, rel)
    report(acceptance_report, 2, worst < 1e-10,
           f"max relative adjoint mismatch {worst:.2e} (bound 1e-10)")


# -- 3: dense-oracle equivalence --------------------------------------------------


def _dense(apply_fn, in_shape, out_shape):
    n_in = int(np.prod(in_shape))
    mat = np.zeros((int(np.prod(out_shape)), n_in))
    e = np.zeros(n_in)
    for j in range(n_in):
        e[j] = 1.0
        mat[:, j] = apply_fn(e.reshape(in_shape)).ravel()
        e[j] = 0.0
    return mat


def test_criterion_03_dense_oracle(acceptance_report):
    geom = make_geometry("fan", n_views=12, n_det=13, det_spacing=2.2,
                         grid=(8, 8), pixel_size=1.0, src_dist=25.0, det_dist=25.0)
    subset = sparse_subset(geom, 4)
    bundle = build_bundle(geom, subset)
    grid, q1, qf, nd = geom.grid, 4, 12, geom.n_det

    A_s = _dense(bundle.proj_s.apply, grid, (q1, nd))
    A_f = _dense(bundle.proj_f.apply, grid, (qf, nd))
    B_s = _dense(bundle.fbp_s.apply, (q1, nd), grid)
    B_f = _dense(bundle.fbp_f.apply, (qf, nd), grid)
    U = _dense(bundle.upsampler.apply, (q1, nd), (qf, nd))

    rng = np.random.default_rng(3)
    x = rng.random(grid)
    x_true = rng.random(grid)
    y = Sinogram((A_s @ x_true.ravel()).reshape(q1, nd), geom, subset)
    ctx = build_context(y, bundle)
    chans = stage_channel_arrays(x, ctx)

    xv, yv = x.ravel(), y.data.ravel()
    r = B_s @ yv  # the refinement's running estimate collapses to sparse FBP
    want = {
        "x_interp": B_f @ U @ yv,
        "e_interp": B_f @ (U @ A_s @ xv - A_f @ xv),
        "e_full_x": xv - B_f @ A_f @ xv,
        "e_full_r": r - B_f @ A_f @ r,
        "e_data": B_s @ (yv - A_s @ xv),
        "e_null": xv - B_s @ A_s @ xv,
        "e_null_r": r - B_s @ A_s @ r,
    }
    worst = max(
        float(np.abs(chans[k].ravel() - v).max()) for k, v in want.items()
    )
    # forward/back projection against the same explicit matrices
    worst = max(worst, float(np.abs(bundle.proj_s.apply(x).ravel() - A_s @ xv).max()))
    worst = max(worst, float(np.abs(bundle.proj_s.applyT(y.data).ravel()
                                    - A_s.T @ yv).max()))
    report(acceptance_report, 3, worst < 1e-8,
           f"six error extractors + projector pair, max abs diff {worst:.2e} (bound 1e-8)")


# -- 4: FBP round trip ------------------------------------------------------------


def test_criterion_04_fbp_round_trip(acceptance_report):
    t0 = time.time()
    # preset view/detector counts on a quarter-area grid; detector span scaled to cover
    geom = make_geometry("parallel", n_views=720, n_det=729, det_spacing=0.5,
                         grid=(256, 256), pixel_size=1.0)
    ph = shepp_logan((256, 256))
    proj = JosephProjector(geom, full_subset(geom))
    y = Sinogram(proj.apply(ph), geom, full_subset(geom))
    rec = fbp(y).data
    score = psnr(rec, ph)
    report(acceptance_report, 4, score >= 30.0,
           f"shepp-logan 256x256 full-view FBP {score:.2f} dB "
           f"(bound 30, {time.time() - t0:.0f}s)")


# -- 5: end-to-end gradient -------------------------------------------------------


@pytest.mark.slow
def test_criterion_05_end_to_end_gradient(acceptance_report):
    t0 = time.time()
    geom = make_geometry("fan", n_views=12, n_det=13, det_spacing=2.2,
                         grid=(8, 8), pixel_size=1.0, src_dist=25.0, det_dist=25.0)
    model = ReconNet(geom, width=4, depth=2, n_stages=1, variant="g", seed=0)
    ph = random_ellipses((8, 8), seed=5)
    subset = sparse_subset(geom, 6)
    y = Sinogram(JosephProjector(geom, subset).apply(ph), geom, subset)
    cfg = LossConfig(gamma=0.5)

    tape = ad.Tape()
    out, pnode_sets, _ = model.forward_graph(y, tape)
    # offset target so no pixel sits on the L1 kink where the subgradient is ambiguous
    target = out.value + 0.25 + 0.1 * ph
    tot, _, _ = total_loss(out, tape.constant(target), cfg)
    ad.backward(tot)

    def loss_now() -> float:
        t2 = ad.Tape()
        o, _, _ = model.forward_graph(y, t2)
        v, _, _ = total_loss(o, t2.constant(target), cfg)
        return float(v.value)

    worst = 0.0
    checked = 0
    for name, arr in model.param_sets[0].items():
        grad = pnode_sets[0][name].grad
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            h = 1e-6 * max(1.0, abs(arr[i]))
            keep = arr[i]
            arr[i] = keep + h
            fp = loss_now()
            arr[i] = keep - h
            fm = loss_now()
            arr[i] = keep
            fd = (fp - fm) / (2 * h)
            a = grad[i]
            # relative bound with an absolute floor: near-zero gradients are
            # roundoff-limited in central differences, not wrong
            tol = 1e-4 * max(abs(a), abs(fd)) + 1e-8
            worst = max(worst, abs(a - fd) / tol)
            checked += 1
    report(acceptance_report, 5, worst <= 1.0,
           f"{checked} parameters, worst FD mismatch {worst:.2f}x of "
           f"tolerance 1e-4*max(|a|,|fd|)+1e-8 ({time.time() - t0:.0f}s)")


# -- 6..9: shared toy training run ------------------------------------------------


@pytest.fixture(scope="module")
def toy():
    t0 = time.time()
    spec = ToySpec()
    geom = toy_geometry()
    train_imgs, val_imgs, test_imgs = toy_splits(seed=spec.seed)
    model, _ = train_toy(spec, images=train_imgs)
    fista_cfg = FistaConfig(n_iters=100)
    lam = tuned_fista_lambda(geom, val_imgs, 15, cfg=fista_cfg)
    scores = {
        ("model", q): float(np.mean(eval_model(model, test_imgs, q)))
        for q in (15, 30)
    }
    for q in (15, 30):
        scores[("fbp", q)] = float(np.mean(eval_fbp(geom, test_imgs, q)))
    scores[("fista", 15)] = float(np.mean(eval_fista(geom, test_imgs, 15, lam, fista_cfg)))
    return SimpleNamespace(
        spec=spec, geom=geom, model=model, test_imgs=test_imgs,
        scores=scores, lam=lam, elapsed=time.time() - t0,
    )


@pytest.mark.slow
def test_criterion_06_toy_training_uplift(acceptance_report, toy):
    s = toy.scores
    margins = {q: s[("model", q)] - s[("fbp", q)] for q in (15, 30)}
    vs_fista = s[("model", 15)] - s[("fista", 15)]
    ok = margins[15] >= 3.0 and margins[30] >= 3.0 and vs_fista >= 0.0
    report(acceptance_report, 6, ok,
           f"vs FBP +{margins[15]:.2f}/+{margins[30]:.2f} dB at 15/30 views "
           f"(bound 3), vs FISTA-TV {vs_fista:+.2f} dB at 15 views (bound 0), "
           f"{toy.elapsed:.0f}s (bound 900)")
    assert toy.elapsed < 900.0


@pytest.mark.slow
def test_criterion_07_ablation_ordering(acceptance_report, toy):
    t0 = time.time()
    row_a = run_ablation(("a",), toy.spec)[0]
    base_score = float(np.mean(list(row_a.psnr_by_views.values())))
    full_score = float(np.mean([toy.scores[("model", q)] for q in (15, 30)]))
    elapsed = time.time() - t0 + toy.elapsed
    ok = full_score >= base_score and elapsed < 1800.0
    report(acceptance_report, 7, ok,
           f"all-channel variant {full_score:.2f} dB >= plain variant "
           f"{base_score:.2f} dB, {elapsed:.0f}s combined (bound 1800)")


@pytest.mark.slow
def test_criterion_08_untrained_view_count(acceptance_report, toy):
    t0 = time.time()
    model_20 = float(np.mean(eval_model(toy.model, toy.test_imgs, 20)))
    fbp_20 = float(np.mean(eval_fbp(toy.geom, toy.test_imgs, 20)))
    elapsed = time.time() - t0
    ok = model_20 >= fbp_20 and elapsed < 60.0
    report(acceptance_report, 8, ok,
           f"20-of-60 views without retraining: model {model_20:.2f} dB vs "
           f"FBP {fbp_20:.2f} dB, {elapsed:.0f}s (bound 60)")


@pytest.mark.slow
def test_criterion_09_pnp_stability(acceptance_report, toy):
    t0 = time.time()
    trace = perturbed_pnp_psnr(toy.model, toy.test_imgs[0], q=15,
                               n_iters=20, rel=0.01, seed=0)
    finite = all(np.isfinite(v) for v in trace)
    ok = finite and len(trace) == 21 and trace[-1] >= trace[1]
    report(acceptance_report, 9, ok,
           f"perturbed-geometry plug-and-play: iter1 {trace[1]:.2f} dB -> "
           f"iter20 {trace[-1]:.2f} dB, finite={finite}, "
           f"{time.time() - t0:.0f}s (bound 120)")


# -- 10: SSIM identity and oracle --------------------------------------------------


def test_criterion_10_ssim_identity_and_oracle(acceptance_report):
    rng = np.random.default_rng(11)
    exact = all(
        ssim_value(x, x) == 1.0
        for x in (rng.random((16, 16)), rng.random((11, 13)), rng.random((32, 32)))
    )
    worst = 0.0
    for _ in range(100):
        a = rng.random((16, 16))
        b = np.clip(a + 0.1 * rng.standard_normal((16, 16)), 0.0, 1.0)
        tape = ad.Tape()
        g = ssim_graph(tape.constant(a), tape.constant(b)).value
        worst = max(worst, abs(float(g) - ssim_value(a, b)))
    ok = exact and worst < 1e-10
    report(acceptance_report, 10, ok,
           f"self-SSIM exactly 1.0: {exact}; graph vs scalar max diff "
           f"{worst:.2e} on 100 pairs (bound 1e-10)")


# -- 11: noiseless fixed point -----------------------------------------------------


def test_criterion_11_noiseless_fixed_point(acceptance_report):
    geom = make_geometry("fan", n_views=12, n_det=13, det_spacing=2.2,
                         grid=(8, 8), pixel_size=1.0, src_dist=25.0, det_dist=25.0)
    subset = sparse_subset(geom, 6)
    bundle = build_bundle(geom, subset)
    x_star = random_ellipses((8, 8), seed=2)
    y = Sinogram(bundle.proj_s.apply(x_star), geom, subset)
    ctx = build_context(y, bundle)

    e_data = stage_channel_arrays(x_star, ctx)["e_data"]
    tape = ad.Tape()
    tot, _, _ = unsupervised_loss(tape.constant(x_star), ctx)
    resid = float(np.abs(e_data).max())
    loss = abs(float(tot.value))
    ok = resid <= 1e-12 and loss <= 1e-12
    report(acceptance_report, 11, ok,
           f"data-consistency residual {resid:.1e}, unsupervised loss {loss:.1e} "
           f"(bounds 1e-12)")
