import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparsect.autodiff as ad
from sparsect.autodiff import Tape, TapeError

from conftest import numeric_grad


def check_grad(build, *arrays, h=1e-6, tol=1e-6):
    """FD-check the gradient of a scalar-valued graph w.r.t. each input."""
    tape = Tape()
    leaves = [tape.leaf(a.copy()) for a in arrays]
    out = build(tape, *leaves)
    ad.backward(out)
    for i, a in enumerate(arrays):
        def f(x, i=i):
            t2 = Tape()
            ls = [t2.leaf(arrays[j].copy() if j != i else x) for j in range(len(arrays))]
            return float(build(t2, *ls).value)

        fd = numeric_grad(f, a, h=h)
        got = leaves[i].grad
        assert got is not None
        err = np.abs(got - fd).max()
        scale = max(np.abs(fd).max(), 1.0)
        assert err < tol * scale, f"input {i}: err {err:.3e}"


@pytest.fixture
def rng():
    """A fresh generator per test: no test's data depends on which tests ran first."""
    return np.random.default_rng(42)


class TestPrimitiveGradients:
    def test_arithmetic_chain(self, rng):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((3, 4)) + 3.0
        check_grad(lambda t, x, y: ad.mean_((x * y - x / y + 2.0 * x) * y), a, b)

    def test_abs_away_from_zero(self, rng):
        a = rng.standard_normal((5, 5)) + np.sign(rng.standard_normal((5, 5))) * 0.5
        check_grad(lambda t, x: ad.mean_(ad.abs_(x)), a)

    def test_sum_and_mean(self, rng):
        a = rng.standard_normal((4, 7))
        check_grad(lambda t, x: ad.sum_(x * x), a)
        check_grad(lambda t, x: ad.mean_(x * x), a)

    def test_leaky_relu(self, rng):
        a = rng.standard_normal((6, 6)) + 0.3
        check_grad(lambda t, x: ad.mean_(ad.leaky_relu(x, 0.01) * ad.leaky_relu(x, 0.01)), a)

    def test_conv3x3(self, rng):
        x = rng.standard_normal((2, 5, 6))
        w = rng.standard_normal((3, 2, 3, 3)) * 0.5
        b = rng.standard_normal(3) * 0.1
        check_grad(
            lambda t, xx, ww, bb: ad.mean_(
                ad.conv3x3(xx, ww, bb) * ad.conv3x3(xx, ww, bb)
            ),
            x, w, b,
        )

    def test_conv2x2_down(self, rng):
        x = rng.standard_normal((2, 6, 8))
        w = rng.standard_normal((3, 2, 2, 2)) * 0.5
        b = rng.standard_normal(3) * 0.1
        check_grad(
            lambda t, xx, ww, bb: ad.mean_(
                ad.conv2x2_down(xx, ww, bb) * ad.conv2x2_down(xx, ww, bb)
            ),
            x, w, b,
        )

    def test_tconv2x2_up(self, rng):
        x = rng.standard_normal((3, 3, 4))
        w = rng.standard_normal((3, 2, 2, 2)) * 0.5
        b = rng.standard_normal(2) * 0.1
        check_grad(
            lambda t, xx, ww, bb: ad.mean_(
                ad.tconv2x2_up(xx, ww, bb) * ad.tconv2x2_up(xx, ww, bb)
            ),
            x, w, b,
        )

    def test_concat_channels(self, rng):
        a = rng.standard_normal((2, 4, 4))
        b = rng.standard_normal((3, 4, 4))
        check_grad(
            lambda t, x, y: ad.mean_(ad.concat_channels([x, y]) * ad.concat_channels([x, y])),
            a, b,
        )

    def test_pad_and_crop(self, rng):
        a = rng.standard_normal((2, 5, 7))
        check_grad(
            lambda t, x: ad.mean_(
                ad.replicate_pad_br(x, 1, 1) * ad.replicate_pad_br(x, 1, 1)
            ),
            a,
        )
        check_grad(
            lambda t, x: ad.mean_(ad.crop_br(x, 4, 5) * ad.crop_br(x, 4, 5)),
            a,
        )

    def test_reshape(self, rng):
        a = rng.standard_normal((3, 4))
        check_grad(lambda t, x: ad.sum_(ad.reshape(x, (2, 6)) * 2.0), a)

    def test_linear_op(self, rng):
        class Blur:
            def apply(self, v):
                return np.roll(v, 1, axis=0) + 0.5 * v

            def applyT(self, v):
                return np.roll(v, -1, axis=0) + 0.5 * v

        a = rng.standard_normal((4, 4))
        check_grad(lambda t, x: ad.mean_(ad.linear_op(x, Blur()) * ad.linear_op(x, Blur())), a)


class TestStructural:
    def test_shared_kernel_up_is_exact_transpose_of_down(self, rng):
        # same array, zero bias: down reads it as (out,in,2,2), up as (in,out,2,2)
        w = rng.standard_normal((3, 2, 2, 2))
        x = rng.standard_normal((2, 6, 8))
        y = rng.standard_normal((3, 3, 4))
        t = Tape()
        down = ad.conv2x2_down(t.leaf(x), t.leaf(w), t.leaf(np.zeros(3))).value
        up = ad.tconv2x2_up(t.leaf(y), t.leaf(w), t.leaf(np.zeros(2))).value
        assert float((down * y).sum()) == pytest.approx(float((x * up).sum()), rel=1e-13)

    def test_down_requires_even_dims(self, rng):
        t = Tape()
        x = t.leaf(rng.standard_normal((1, 5, 6)))
        w = t.leaf(rng.standard_normal((1, 1, 2, 2)))
        b = t.leaf(np.zeros(1))
        with pytest.raises(ValueError):
            ad.conv2x2_down(x, w, b)

    def test_gradient_accumulates_on_reuse(self):
        t = Tape()
        x = t.leaf(np.array([3.0]))
        y = x + x
        ad.backward(ad.sum_(y))
        assert x.grad[0] == 2.0

    def test_constants_get_no_grad(self):
        t = Tape()
        x = t.leaf(np.array([2.0]))
        c = t.constant(np.array([5.0]))
        ad.backward(ad.sum_(x * c))
        assert x.grad[0] == 5.0
        assert c.grad is None

        t2 = Tape()
        a = t2.constant(np.array([2.0, 3.0]))
        ad.sum_(ad.leaky_relu(a * t2.constant(np.array([5.0, -1.0]))) + 1.0)
        assert t2.nodes == []

    def test_abs_subgradient_at_zero_is_zero(self):
        t = Tape()
        x = t.leaf(np.array([0.0, -1.0, 2.0]))
        ad.backward(ad.sum_(ad.abs_(x)))
        assert x.grad.tolist() == [0.0, -1.0, 1.0]

    def test_leaky_relu_tie_uses_positive_branch(self):
        t = Tape()
        x = t.leaf(np.array([0.0, -2.0, 2.0]))
        ad.backward(ad.sum_(ad.leaky_relu(x, 0.25)))
        assert x.grad.tolist() == [1.0, 0.25, 1.0]

    def test_conv3x3_preserves_spatial_shape(self, rng):
        t = Tape()
        x = t.leaf(rng.standard_normal((2, 9, 11)))
        w = t.leaf(rng.standard_normal((4, 2, 3, 3)))
        b = t.leaf(np.zeros(4))
        assert ad.conv3x3(x, w, b).value.shape == (4, 9, 11)

    @given(h=st.integers(2, 6), w=st.integers(2, 6))
    @settings(max_examples=20, deadline=None)
    def test_down_up_shapes(self, h, w):
        rng = np.random.default_rng(42)
        t = Tape()
        x = t.leaf(rng.standard_normal((1, 2 * h, 2 * w)))
        k = t.leaf(rng.standard_normal((2, 1, 2, 2)))
        d = ad.conv2x2_down(x, k, t.leaf(np.zeros(2)))
        assert d.value.shape == (2, h, w)
        ku = t.leaf(rng.standard_normal((2, 1, 2, 2)))
        u = ad.tconv2x2_up(d, ku, t.leaf(np.zeros(1)))
        assert u.value.shape == (1, 2 * h, 2 * w)


class TestFiniteDifferenceOracle:
    def test_masks_an_entry_whose_step_straddles_a_kink(self):
        # the middle entry lies within h of the LeakyReLU kink at 0
        x = np.array([0.5, 3e-7, -0.5])
        fd = numeric_grad(lambda a: float(np.maximum(a, 0.2 * a).sum()), x, h=1e-6)
        assert fd.mask.tolist() == [False, True, False]
        assert np.allclose(fd.compressed(), [1.0, 0.2], rtol=0, atol=1e-9)

    def test_more_than_one_kink_in_a_test_fails(self):
        x = np.array([1e-7, -1e-7, 1.0])
        with pytest.raises(AssertionError, match="straddle a kink"):
            numeric_grad(lambda a: float(np.abs(a).sum()), x, h=1e-6)


class TestTapeDiscipline:
    def test_backward_twice_rejected(self):
        t = Tape()
        x = t.leaf(np.array([1.0]))
        y = ad.sum_(x * x)
        ad.backward(y)
        with pytest.raises(TapeError):
            ad.backward(y)

    def test_non_scalar_root_rejected(self):
        t = Tape()
        x = t.leaf(np.ones((2, 2)))
        with pytest.raises(TapeError):
            ad.backward(x * x)

    def test_cross_tape_mixing_rejected(self):
        t1, t2 = Tape(), Tape()
        a = t1.leaf(np.ones(3))
        b = t2.leaf(np.ones(3))
        with pytest.raises(TapeError):
            a * b

    def test_record_after_backward_rejected(self):
        t = Tape()
        x = t.leaf(np.array([1.0]))
        ad.backward(ad.sum_(x))
        with pytest.raises(TapeError):
            x * x
