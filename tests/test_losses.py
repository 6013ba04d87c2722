import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.lib.stride_tricks import sliding_window_view

import sparsect.autodiff as ad
from sparsect.autodiff import Tape
from sparsect.geometry import Sinogram, sparse_subset
from sparsect.losses import (
    GaussianWindowOp,
    LossConfig,
    effective_win_size,
    gaussian_window,
    l1_loss,
    ssim_graph,
    total_loss,
    unsupervised_loss,
)
from sparsect.refine import build_bundle, build_context

from conftest import numeric_grad


@pytest.fixture
def rng():
    """A fresh generator per test: no test's data depends on which tests ran first."""
    return np.random.default_rng(23)


def pair(rng, shape=(8, 9)):
    return rng.random(shape), rng.random(shape)


def _window_mismatch(op, win, sigma, x, y):
    """Largest relative gap of op.apply and op.applyT from the direct 2-D window.

    The references slide the full (win, win) kernel over x, and scatter y
    back through each of its taps in turn.
    """
    kernel = gaussian_window(win, sigma)
    ref_apply = np.tensordot(sliding_window_view(x, (win, win)), kernel, axes=([2, 3], [0, 1]))
    ref_applyT = np.zeros(x.shape)
    ho, wo = y.shape
    for a in range(win):
        for b in range(win):
            ref_applyT[a: a + ho, b: b + wo] += kernel[a, b] * y
    return max(
        np.abs(op.apply(x) - ref_apply).max() / np.abs(ref_apply).max(),
        np.abs(op.applyT(y) - ref_applyT).max() / np.abs(ref_applyT).max(),
    )


WINDOW_CASES = [
    (shape, win)
    for shape in ((32, 32), (8, 13), (32, 7), (9, 10))
    for win in (1, 3, 7, 11)
    if win <= min(shape)
]


class TestWindow:
    def test_gaussian_window_normalized_and_symmetric(self):
        g = gaussian_window(11, 1.5)
        assert g.shape == (11, 11)
        assert g.sum() == pytest.approx(1.0, abs=1e-15)
        assert np.array_equal(g, g.T)
        assert np.array_equal(g, g[::-1, ::-1])

    def test_effective_win_size_shrinks_to_odd_fit(self):
        assert effective_win_size(11, (64, 64)) == 11
        assert effective_win_size(11, (8, 12)) == 7
        assert effective_win_size(11, (11, 11)) == 11
        assert effective_win_size(11, (4, 4)) == 3

    def test_window_op_transpose_is_adjoint(self, rng):
        op = GaussianWindowOp((9, 10), 5, 1.5)
        x = rng.standard_normal((9, 10))
        y = rng.standard_normal(op.out_shape)
        lhs = float((op.apply(x) * y).sum())
        rhs = float((x * op.applyT(y)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-13)

    @pytest.mark.parametrize("shape, win", WINDOW_CASES)
    def test_window_op_matches_the_direct_2d_window(self, rng, shape, win):
        op = GaussianWindowOp(shape, win, 1.5)
        x = rng.standard_normal(shape)
        y = rng.standard_normal(op.out_shape)
        assert op.out_shape == (shape[0] - win + 1, shape[1] - win + 1)
        assert _window_mismatch(op, win, 1.5, x, y) <= 1e-13

    def test_band_shifted_by_one_column_fails_the_comparison(self, rng):
        op = GaussianWindowOp((32, 32), 11, 1.5)
        x = rng.standard_normal((32, 32))
        y = rng.standard_normal(op.out_shape)
        op._cols = np.roll(op._cols, 1, axis=1)
        assert _window_mismatch(op, 11, 1.5, x, y) > 1e-2

    def test_window_larger_than_image_rejected(self):
        with pytest.raises(ValueError):
            GaussianWindowOp((4, 4), 5, 1.5)


class TestL1:
    def test_hand_value(self):
        t = Tape()
        x = t.leaf(np.array([[1.0, 2.0], [3.0, 4.0]]))
        y = t.constant(np.array([[1.5, 2.0], [2.0, 6.0]]))
        assert l1_loss(x, y).value == pytest.approx((0.5 + 0.0 + 1.0 + 2.0) / 4)

    def test_identical_inputs_give_exact_zero_and_zero_grad(self, rng):
        t = Tape()
        a = rng.random((6, 6))
        x = t.leaf(a)
        loss = l1_loss(x, t.constant(a.copy()))
        assert float(loss.value) == 0.0
        ad.backward(loss)
        assert not x.grad.any()


class TestSsimGraph:
    def test_self_similarity_is_exactly_one(self, rng):
        for shape in ((16, 16), (8, 13), (32, 7)):
            a = rng.random(shape)
            t = Tape()
            s = ssim_graph(t.leaf(a), t.constant(a.copy()))
            assert float(s.value) == 1.0

    def test_constant_images_reduce_to_luminance_ratio(self):
        a, b = 0.3, 0.7
        c1 = (0.01 * 1.0) ** 2
        t = Tape()
        s = ssim_graph(
            t.leaf(np.full((16, 16), a)), t.constant(np.full((16, 16), b))
        )
        expected = (2 * a * b + c1) / (a * a + b * b + c1)
        assert float(s.value) == pytest.approx(expected, rel=1e-10)

    def test_distinct_images_score_below_one(self, rng):
        x, y = pair(rng, (16, 16))
        t = Tape()
        assert float(ssim_graph(t.leaf(x), t.constant(y)).value) < 1.0

    def test_gradient_matches_finite_differences(self, rng):
        x, y = pair(rng)

        def f(arr):
            t = Tape()
            return float(ssim_graph(t.leaf(arr), t.constant(y)).value)

        t = Tape()
        leaf = t.leaf(x)
        ad.backward(ssim_graph(leaf, t.constant(y)))
        fd = numeric_grad(f, x, h=1e-6)
        assert np.abs(leaf.grad - fd).max() < 1e-6 * max(np.abs(fd).max(), 1.0)


class TestTotalLoss:
    def test_identical_inputs_all_terms_exactly_zero(self, rng):
        a = rng.random((12, 12))
        t = Tape()
        tot, l1, ssim_term = total_loss(t.leaf(a), t.constant(a.copy()))
        assert float(tot.value) == 0.0
        assert float(l1.value) == 0.0
        assert float(ssim_term.value) == 0.0

    def test_gamma_scales_structural_term_only(self, rng):
        x, y = pair(rng, (12, 12))
        t1 = Tape()
        tot1, l1a, s1 = total_loss(t1.leaf(x), t1.constant(y), LossConfig(gamma=1.0))
        t2 = Tape()
        tot2, l1b, s2 = total_loss(t2.leaf(x), t2.constant(y), LossConfig(gamma=2.0))
        assert float(l1a.value) == float(l1b.value)
        assert float(s2.value) == pytest.approx(2 * float(s1.value), rel=1e-13)
        assert float(tot2.value) == pytest.approx(
            float(l1a.value) + 2 * float(s1.value), rel=1e-13
        )

    def test_backward_reaches_input(self, rng):
        x, y = pair(rng, (12, 12))
        t = Tape()
        leaf = t.leaf(x)
        tot, _, _ = total_loss(leaf, t.constant(y))
        ad.backward(tot)
        assert leaf.grad is not None
        assert np.isfinite(leaf.grad).all()
        assert leaf.grad.any()

    @given(
        arrays(np.float64, (8, 8), elements=st.floats(0.0, 1.0, allow_nan=False))
    )
    @settings(max_examples=20, deadline=None)
    def test_nonnegative_for_any_pair(self, x):
        rng = np.random.default_rng(23)
        y = rng.random((8, 8))
        t = Tape()
        tot, _, _ = total_loss(t.leaf(x), t.constant(y))
        # SSIM <= 1 on real inputs, so both terms are nonnegative
        assert float(tot.value) >= 0.0


class TestUnsupervised:
    def test_consistent_reconstruction_scores_exact_zero(self, rng, tiny_fan):
        subset = sparse_subset(tiny_fan, 5)
        bundle = build_bundle(tiny_fan, subset)
        x_true = rng.random(tiny_fan.grid)
        y = Sinogram(bundle.proj_s.apply(x_true), tiny_fan, subset)
        ctx = build_context(y, bundle)

        t = Tape()
        tot, l1, s = unsupervised_loss(t.leaf(x_true), ctx)
        assert abs(float(tot.value)) <= 1e-12
        assert float(l1.value) == 0.0
        assert float(s.value) == 0.0

    def test_inconsistent_reconstruction_scores_positive_with_gradient(
        self, rng, tiny_fan
    ):
        subset = sparse_subset(tiny_fan, 5)
        bundle = build_bundle(tiny_fan, subset)
        y = Sinogram(bundle.proj_s.apply(rng.random(tiny_fan.grid)), tiny_fan, subset)
        ctx = build_context(y, bundle)

        t = Tape()
        leaf = t.leaf(rng.random(tiny_fan.grid))
        tot, _, _ = unsupervised_loss(leaf, ctx)
        assert float(tot.value) > 0.0
        ad.backward(tot)
        assert leaf.grad.any()
        assert np.isfinite(leaf.grad).all()
