import numpy as np
import pytest

from sparsect import fista as fista_module
from sparsect.experiments import toy_geometry
from sparsect.fbp import FbpOperator
from sparsect.fista import (
    FistaConfig,
    FistaResult,
    estimate_lipschitz,
    fista_tv,
    tune_lambda,
    tv_prox,
    tv_value,
)
from sparsect.geometry import Image, Sinogram, sparse_subset
from sparsect.metrics import psnr
from sparsect.phantoms import random_ellipses
from sparsect.projector import JosephProjector

from conftest import dense_from_op

RNG = np.random.default_rng(67)


def _reference_tv_prox(b, weight, n_iters=20, tau=0.125):
    """tv_prox as first written, one fresh array per operation."""

    def grad(x):
        gx = np.zeros_like(x)
        gy = np.zeros_like(x)
        gx[:-1, :] = x[1:, :] - x[:-1, :]
        gy[:, :-1] = x[:, 1:] - x[:, :-1]
        return gx, gy

    def div(px, py):
        out = np.zeros_like(px)
        out[:-1, :] += px[:-1, :]
        out[1:, :] -= px[:-1, :]
        out[:, :-1] += py[:, :-1]
        out[:, 1:] -= py[:, :-1]
        return out

    if weight <= 0:
        return b.copy()
    px = np.zeros_like(b)
    py = np.zeros_like(b)
    for _ in range(n_iters):
        gx, gy = grad(div(px, py) - b / weight)
        denom = 1.0 + tau * np.sqrt(gx * gx + gy * gy)
        px = (px + tau * gx) / denom
        py = (py + tau * gy) / denom
    return b - weight * div(px, py)


def _reference_fista_tv(y, lam, cfg=FistaConfig()):
    """fista_tv as first written: it projects z and every candidate directly."""
    proj = JosephProjector(y.geom, y.subset)
    data = y.data

    def objective(x):
        r = proj.apply(x) - data
        return 0.5 * float((r * r).sum()) + lam * tv_value(x)

    lip = estimate_lipschitz(proj, cfg.power_iters)
    step = 1.0 / lip
    if cfg.fbp_init:
        x = FbpOperator(y.geom, y.subset).apply(data)
        if cfg.nonneg:
            x = np.maximum(x, 0.0)
    else:
        x = np.zeros(proj.in_shape)
    z = x.copy()
    t = 1.0
    f_x = objective(x)
    objectives = [f_x]
    for _ in range(cfg.n_iters):
        grad_z = proj.applyT(proj.apply(z) - data)
        cand = tv_prox(z - step * grad_z, lam * step, cfg.tv_iters, cfg.tau)
        if cfg.nonneg:
            np.maximum(cand, 0.0, out=cand)
        f_cand = objective(cand)
        x_prev = x
        if f_cand <= f_x:
            x, f_x = cand, f_cand
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        z = x + (t / t_next) * (cand - x) + ((t - 1.0) / t_next) * (x - x_prev)
        t = t_next
        objectives.append(f_x)
    return FistaResult(image=Image(x, y.geom), objectives=objectives, lipschitz=lip)


def make_measurement(geom, q=5, seed=7):
    x = random_ellipses(geom.grid, seed=seed)
    subset = sparse_subset(geom, q)
    proj = JosephProjector(geom, subset)
    return Sinogram(proj.apply(x), geom, subset), x


def count_projector_calls(monkeypatch) -> dict[str, int]:
    """Counts of JosephProjector.apply and applyT calls from here on."""
    calls = {"apply": 0, "applyT": 0}
    for name in calls:
        method = getattr(JosephProjector, name)

        def counted(self, arr, _name=name, _method=method):
            calls[_name] += 1
            return _method(self, arr)

        monkeypatch.setattr(JosephProjector, name, counted)
    return calls


class TestTotalVariation:
    def test_hand_value(self):
        x = np.array([[0.0, 1.0], [0.0, 1.0]])
        # one unit jump along each of the two rows
        assert tv_value(x) == pytest.approx(2.0, abs=1e-14)

    def test_constant_image_has_zero_tv(self):
        assert tv_value(np.full((9, 9), 3.7)) == 0.0

    def test_prox_of_constant_is_identity(self):
        b = np.full((8, 8), 0.4)
        out = tv_prox(b, 0.5)
        assert np.array_equal(out, b)

    def test_prox_nonpositive_weight_copies_input(self):
        b = RNG.random((6, 6))
        out = tv_prox(b, 0.0)
        assert np.array_equal(out, b)
        assert out is not b

    def test_prox_nan_weight_rejected(self):
        with pytest.raises(ValueError):
            tv_prox(RNG.random((6, 6)), float("nan"))

    def test_prox_lowers_the_prox_objective(self):
        b = RNG.random((12, 12))
        w = 0.3
        out = tv_prox(b, w, n_iters=40)

        def prox_obj(x):
            return 0.5 * float(((x - b) ** 2).sum()) + w * tv_value(x)

        assert prox_obj(out) < prox_obj(b)

    def test_prox_preserves_mean(self):
        # the dual update writes the output as b minus a divergence field,
        # and discrete divergences telescope to zero total sum
        b = RNG.random((10, 11))
        out = tv_prox(b, 0.7, n_iters=30)
        assert out.mean() == pytest.approx(b.mean(), abs=1e-12)

    @pytest.mark.parametrize("shape", [(12, 12), (9, 14), (15, 6)])
    @pytest.mark.parametrize("weight", [0.02, 0.3, 5.0])
    @pytest.mark.parametrize("n_iters", [1, 20])
    def test_prox_matches_reference_bitwise(self, shape, weight, n_iters):
        b = np.random.default_rng(11).standard_normal(shape)
        out = tv_prox(b, weight, n_iters=n_iters)
        ref = _reference_tv_prox(b, weight, n_iters=n_iters)
        assert out.tobytes() == ref.tobytes()

    def test_huge_weight_flattens_the_image(self):
        b = RNG.random((16, 16))
        out = tv_prox(b, 100.0, n_iters=200)
        assert out.var() < 1e-2 * b.var()


class TestLipschitz:
    def test_matches_dense_largest_singular_value(self, tiny_parallel):
        subset = sparse_subset(tiny_parallel, 5)
        proj = JosephProjector(tiny_parallel, subset)
        A = dense_from_op(proj.apply, tiny_parallel.grid, (5, tiny_parallel.n_det))
        sigma_sq = np.linalg.svd(A, compute_uv=False)[0] ** 2
        est = estimate_lipschitz(proj, n_iters=300)
        assert est == pytest.approx(sigma_sq, rel=1e-6)

    def test_estimate_is_deterministic(self, tiny_fan):
        proj = JosephProjector(tiny_fan, sparse_subset(tiny_fan, 5))
        assert estimate_lipschitz(proj) == estimate_lipschitz(proj)


class TestFista:
    def test_nonpositive_tv_weight_rejected(self, tiny_fan):
        y, _ = make_measurement(tiny_fan)
        for lam in (0.0, -0.1):
            with pytest.raises(ValueError):
                fista_tv(y, lam)

    def test_nan_tv_weight_rejected(self, tiny_fan):
        y, _ = make_measurement(tiny_fan)
        with pytest.raises(ValueError):
            fista_tv(y, float("nan"))

    def test_objective_trace_is_monotone(self, tiny_fan):
        y, _ = make_measurement(tiny_fan)
        res = fista_tv(y, 0.05, FistaConfig(n_iters=30))
        obj = np.array(res.objectives)
        assert len(obj) == 31
        assert np.all(np.diff(obj) <= 0.0)
        assert obj[-1] < obj[0]

    def test_zero_init_also_monotone_and_finite(self, tiny_fan):
        y, _ = make_measurement(tiny_fan)
        res = fista_tv(y, 0.05, FistaConfig(n_iters=25, fbp_init=False))
        obj = np.array(res.objectives)
        assert np.all(np.diff(obj) <= 0.0)
        assert np.isfinite(res.image.data).all()

    def test_nonneg_flag_clamps_output(self, tiny_fan):
        y, _ = make_measurement(tiny_fan)
        res = fista_tv(y, 0.05, FistaConfig(n_iters=15, nonneg=True))
        assert res.image.data.min() >= 0.0

    def test_default_solve_makes_one_apply_and_one_applyT_per_iteration(
        self, tiny_fan, monkeypatch
    ):
        y, _ = make_measurement(tiny_fan)
        calls = count_projector_calls(monkeypatch)
        cfg = FistaConfig()
        fista_tv(y, 0.05, cfg)
        # power iteration: one of each per step; then A x once, and per
        # iteration one applyT for the gradient and one apply for A cand
        assert cfg.power_iters == 20 and cfg.n_iters == 60
        assert calls == {"apply": 81, "applyT": 80}

    def test_repeat_solve_reuses_the_lipschitz_estimate(self, tiny_fan, monkeypatch):
        y, _ = make_measurement(tiny_fan)
        cold = fista_tv(y, 0.05)
        calls = count_projector_calls(monkeypatch)
        warm = fista_tv(y, 0.05)
        # A x once, then one applyT and one apply per iteration
        assert calls == {"apply": 61, "applyT": 60}
        assert warm.image.data.tobytes() == cold.image.data.tobytes()
        assert warm.objectives == cold.objectives
        assert warm.lipschitz == cold.lipschitz

    @pytest.mark.parametrize("beam", ["fan", "parallel"])
    @pytest.mark.parametrize("fbp_init", [True, False])
    @pytest.mark.parametrize("nonneg", [True, False])
    def test_matches_loop_that_projects_z(
        self, beam, fbp_init, nonneg, tiny_fan, tiny_parallel
    ):
        geom = tiny_fan if beam == "fan" else tiny_parallel
        y, _ = make_measurement(geom)
        cfg = FistaConfig(fbp_init=fbp_init, nonneg=nonneg)
        res = fista_tv(y, 0.05, cfg)
        ref = _reference_fista_tv(y, 0.05, cfg)
        obj, ref_obj = np.array(res.objectives), np.array(ref.objectives)
        assert np.max(np.abs(obj - ref_obj) / np.abs(ref_obj)) <= 1e-12
        img, ref_img = res.image.data, ref.image.data
        assert np.max(np.abs(img - ref_img)) <= 1e-12 * np.max(np.abs(ref_img))
        assert res.lipschitz == ref.lipschitz

    def test_recovers_noiseless_phantom_reasonably(self, tiny_parallel):
        y, x_true = make_measurement(tiny_parallel, q=8)
        res = fista_tv(y, 0.01, FistaConfig(n_iters=60))
        fbp = FbpOperator(tiny_parallel, y.subset).apply(y.data)
        assert psnr(res.image.data, x_true) > psnr(np.clip(fbp, 0, 1), x_true)

    def test_beats_fbp_on_toy_fifteen_of_sixty(self):
        geom = toy_geometry()
        x = random_ellipses(geom.grid, seed=3)
        subset = sparse_subset(geom, 15)
        proj = JosephProjector(geom, subset)
        y = Sinogram(proj.apply(x), geom, subset)
        res = fista_tv(y, 0.03, FistaConfig(n_iters=60))
        fbp = np.clip(FbpOperator(geom, subset).apply(y.data), 0.0, 1.0)
        assert psnr(np.clip(res.image.data, 0, 1), x) > psnr(fbp, x)


class TestTuneLambda:
    def test_picks_argmax_and_reports_table(self, tiny_fan):
        y1, x1 = make_measurement(tiny_fan, seed=1)
        y2, x2 = make_measurement(tiny_fan, seed=2)
        grid = (0.01, 0.1)
        best, table = tune_lambda(
            [y1, y2], [x1, x2], grid, FistaConfig(n_iters=15)
        )
        assert set(table) == set(grid)
        assert best == max(table, key=table.get)

    def test_power_iteration_runs_once_per_geometry_and_subset(self, tiny_fan, monkeypatch):
        runs = []

        def counted(*args, **kwargs):
            runs.append(1)
            return estimate_lipschitz(*args, **kwargs)

        monkeypatch.setattr(fista_module, "estimate_lipschitz", counted)
        y1, x1 = make_measurement(tiny_fan, seed=1)
        y2, x2 = make_measurement(tiny_fan, seed=2)
        tune_lambda([y1, y2], [x1, x2], (0.01, 0.03, 0.1), FistaConfig(n_iters=5))
        assert len(runs) == 1

    def test_length_mismatch_rejected(self, tiny_fan):
        y, x = make_measurement(tiny_fan)
        with pytest.raises(ValueError):
            tune_lambda([y], [x, x], (0.1,))
