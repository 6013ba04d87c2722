import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparsect.autodiff as ad
from sparsect.autodiff import Tape, TapeError

from conftest import numeric_grad, sum_


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
        check_grad(lambda t, x: sum_(x * x), a)
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

    @pytest.mark.parametrize("pads", [(1, 0), (0, 1), (1, 1)])
    @pytest.mark.parametrize("hw", [(5, 7), (33, 31)])
    def test_replicate_pad_each_side(self, rng, pads, hw):
        a = rng.standard_normal((2, *hw))
        got = ad.replicate_pad_br(Tape().constant(a), *pads).value
        want = np.pad(a, ((0, 0), (0, pads[0]), (0, pads[1])), mode="edge")
        assert got.tobytes() == want.tobytes()
        # weighted so that each replicated entry's gradient differs from the
        # edge entry it copies
        wt = rng.standard_normal(want.shape)
        check_grad(lambda t, x: sum_(ad.replicate_pad_br(x, *pads) * wt), a)

    def test_reshape(self, rng):
        a = rng.standard_normal((3, 4))
        check_grad(lambda t, x: sum_(ad.reshape(x, (2, 6)) * 2.0), a)

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
        ad.backward(sum_(y))
        assert x.grad[0] == 2.0

    def test_constants_get_no_grad(self):
        t = Tape()
        x = t.leaf(np.array([2.0]))
        c = t.constant(np.array([5.0]))
        ad.backward(sum_(x * c))
        assert x.grad[0] == 5.0
        assert c.grad is None

        t2 = Tape()
        a = t2.constant(np.array([2.0, 3.0]))
        sum_(ad.leaky_relu(a * t2.constant(np.array([5.0, -1.0]))) + 1.0)
        assert t2.nodes == []

    def test_abs_subgradient_at_zero_is_zero(self):
        t = Tape()
        x = t.leaf(np.array([0.0, -1.0, 2.0]))
        ad.backward(sum_(ad.abs_(x)))
        assert x.grad.tolist() == [0.0, -1.0, 1.0]

    def test_leaky_relu_tie_uses_positive_branch(self):
        t = Tape()
        x = t.leaf(np.array([0.0, -2.0, 2.0]))
        ad.backward(sum_(ad.leaky_relu(x, 0.25)))
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


def _conv3x3_grads(x, w, b, g):
    """Output of conv3x3 and the gradients of sum(out * g) by x, w and b."""
    tape = Tape()
    leaves = [tape.leaf(a) for a in (x, w, b)]
    out = ad.conv3x3(*leaves)
    ad.backward(sum_(out * g))
    return [out.value] + [leaf.grad for leaf in leaves]


def _conv3x3_im2col(x, w, b, g):
    """The same four arrays from one whole im2col matrix and one GEMM each."""
    c, h, wd = x.shape
    o = w.shape[0]

    def conv(a, k):
        win = np.lib.stride_tricks.sliding_window_view(
            np.pad(a, ((0, 0), (1, 1), (1, 1))), (3, 3), axis=(1, 2))
        cols = win.transpose(0, 3, 4, 1, 2).reshape(a.shape[0] * 9, h * wd)
        return (k.reshape(k.shape[0], -1) @ cols).reshape(k.shape[0], h, wd), cols

    out, cols = conv(x, w)
    wflip = np.ascontiguousarray(w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
    dx, _ = conv(np.ascontiguousarray(g), wflip)
    dw = (g.reshape(o, -1) @ cols.T).reshape(w.shape)
    return [out + b[:, None, None], dx, dw, g.sum(axis=(1, 2))]


class TestBandedConv:
    """`conv3x3` builds its im2col matrix in row bands of `_BAND_BYTES`."""

    @pytest.fixture
    def arrays(self, rng):
        x = rng.standard_normal((6, 20, 11))
        w = rng.standard_normal((5, 6, 3, 3))
        b = rng.standard_normal(5)
        g = rng.standard_normal((5, 20, 11))
        return x, w, b, g

    def test_one_band_equals_whole_im2col_bitwise(self, arrays):
        assert 6 * 9 * 20 * 11 * 8 <= ad._BAND_BYTES
        for got, want in zip(_conv3x3_grads(*arrays), _conv3x3_im2col(*arrays)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("rows", [1, 3, 7])
    def test_bands_match_one_band(self, arrays, rows, monkeypatch):
        whole = _conv3x3_grads(*arrays)
        # rows of 6 channels * 9 taps * 11 columns * 8 bytes
        monkeypatch.setattr(ad, "_BAND_BYTES", rows * 6 * 9 * 11 * 8)
        for got, want in zip(_conv3x3_grads(*arrays), whole):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_unrecorded_conv_holds_one_band_at_a_time(self, rng, monkeypatch):
        x = rng.standard_normal((16, 64, 64))
        w = rng.standard_normal((4, 16, 3, 3))
        whole = 16 * 9 * 64 * 64 * 8  # 4.7 MB
        monkeypatch.setattr(ad, "_BAND_BYTES", whole // 16)
        tape = Tape()
        xc, wc, bc = tape.constant(x), tape.constant(w), tape.constant(np.zeros(4))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = ad.conv3x3(xc, wc, bc)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # one band is whole / 16, plus its padded rows while it is built
        assert peak < whole / 2
        assert not tape.nodes
        want = _conv3x3_im2col(x, w, np.zeros(4), np.zeros((4, 64, 64)))[0]
        assert np.abs(out.value - want).max() <= 1e-12 * np.abs(want).max()


class TestRebuiltBands:
    """A recorded `conv3x3` keeps no im2col bands: `vjp_w` rebuilds them from
    the input and sums their products in the forward's row order, so every
    gradient equals the kept-band computation bit for bit."""

    @staticmethod
    def kept_band_grads(x, w, b, g):
        """The four arrays of `_conv3x3_grads`, with the weight gradient summed
        over bands kept from the forward pass, as `conv3x3` once did."""
        o = w.shape[0]
        out, bands = _conv3x3_raw_padded_windows(x, w, keep=True)
        wflip = np.ascontiguousarray(w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
        dx, _ = _conv3x3_raw_padded_windows(np.ascontiguousarray(g), wflip, keep=False)
        gm = g.reshape(o, -1)
        n = bands[0].shape[1]
        dw = gm[:, :n] @ bands[0].T
        for cols in bands[1:]:
            dw += gm[:, n: n + cols.shape[1]] @ cols.T
            n += cols.shape[1]
        return [out + b[:, None, None], dx, dw.reshape(w.shape), g.sum(axis=(1, 2))]

    # (c, o, h, w): the toy scale (32x32, width 8), an odd shape, and
    # recon-mid's 128x128 at width 32, which makes 5 bands
    @pytest.mark.parametrize("shape", [
        (8, 8, 32, 32), (3, 2, 5, 7), (32, 32, 128, 128),
    ])
    def test_gradients_equal_kept_bands_bitwise(self, rng, shape):
        c, o, h, wd = shape
        arrays = (rng.standard_normal((c, h, wd)), rng.standard_normal((o, c, 3, 3)),
                  rng.standard_normal(o), rng.standard_normal((o, h, wd)))
        for got, want in zip(_conv3x3_grads(*arrays), self.kept_band_grads(*arrays)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("rows", [1, 3, 7])
    def test_gradients_equal_kept_bands_bitwise_in_narrow_bands(self, rng, rows, monkeypatch):
        arrays = (rng.standard_normal((6, 20, 11)), rng.standard_normal((5, 6, 3, 3)),
                  rng.standard_normal(5), rng.standard_normal((5, 20, 11)))
        monkeypatch.setattr(ad, "_BAND_BYTES", rows * 6 * 9 * 11 * 8)
        assert len(list(ad._im2col_bands(arrays[0]))) == -(-20 // rows)
        for got, want in zip(_conv3x3_grads(*arrays), self.kept_band_grads(*arrays)):
            assert got.tobytes() == want.tobytes()

    def test_recorded_conv_retains_only_its_output(self, rng):
        t = Tape()
        x = t.leaf(rng.standard_normal((8, 128, 128)))  # 1 MiB; its bands are 9 MiB
        w = t.leaf(rng.standard_normal((8, 8, 3, 3)))
        b = t.leaf(rng.standard_normal(8))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            y = ad.conv3x3(x, w, b)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert t.nodes[-1] is y
        assert retained <= 1.05 * y.value.nbytes


def _peak_bytes(fn, *args):
    """The result of fn(*args) and the tracemalloc peak above what was
    allocated before the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return out, peak


class TestConvTransients:
    """A conv holds at most one im2col band and that band's padded rows on
    top of its result: no padded copy of the whole input."""

    # (c, o, h, w): 64 channels at 128x128 in 10 bands, and an odd shape in 5
    @pytest.fixture(params=[(64, 32, 128, 128), (37, 5, 131, 97)], ids=str)
    def conv(self, request, rng):
        """Input, weight, a recorded conv of them (zero bias) and an output
        gradient."""
        c, o, h, wd = request.param
        x, w = rng.standard_normal((c, h, wd)), rng.standard_normal((o, c, 3, 3))
        t = Tape()
        y = ad.conv3x3(t.leaf(x), t.leaf(w), t.leaf(np.zeros(o)))
        return x, w, y, rng.standard_normal((o, h, wd))

    @staticmethod
    def bound(result):
        return result.nbytes + ad._BAND_BYTES + 2**20

    def test_forward(self, conv):
        x, w, y, _ = conv
        out, peak = _peak_bytes(ad._conv3x3_raw, x, w)
        assert np.array_equal(out, y.value)
        assert peak <= self.bound(out)

    def test_input_gradient(self, conv):
        *_, y, g = conv
        vjp_x = y.parents[0][1]
        dx, peak = _peak_bytes(vjp_x, g)
        assert peak <= self.bound(dx)

    def test_weight_gradient(self, conv):
        *_, y, g = conv
        vjp_w = y.parents[1][1]
        dw, peak = _peak_bytes(vjp_w, g)
        assert peak <= self.bound(dw)


# A child process prints one hash of conv3x3's output, dx and dW at the
# model's shapes (c, o, n): a smoother, the fused smoother (64 -> 32), the
# head (9 -> 32) and the tail (32 -> 1) at 128x128, and a smoother at 256x256.
_THREADS_CHILD = """
import hashlib
import numpy as np
import sparsect.autodiff as ad
h = hashlib.sha256()
for c, o, n in [(32, 32, 128), (64, 32, 128), (9, 32, 128), (32, 1, 128), (32, 32, 256)]:
    rng = np.random.default_rng([c, o, n])
    t = ad.Tape()
    x = t.leaf(rng.standard_normal((c, n, n)))
    w = t.leaf(rng.standard_normal((o, c, 3, 3)))
    b = t.leaf(rng.standard_normal(o))
    y = ad.conv3x3(x, w, b)
    ad.backward(ad.mean_(y * rng.standard_normal((o, n, n))))
    for a in (y.value, x.grad, w.grad):
        h.update(a.tobytes())
print(h.hexdigest())
"""


class TestBlasThreadCount:
    """conv3x3's output and gradients do not depend on the BLAS thread
    count: every band is its own GEMM, whose bits OpenBLAS keeps fixed
    across thread counts at these shapes."""

    def test_one_and_two_threads_agree_bitwise(self):
        src = str(Path(ad.__file__).resolve().parents[1])
        hashes = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src, env.get("PYTHONPATH")) if p)
            run = subprocess.run([sys.executable, "-c", _THREADS_CHILD], env=env,
                                 capture_output=True, text=True, timeout=300)
            assert run.returncode == 0, run.stderr
            hashes.append(run.stdout.strip())
        assert len(hashes[0]) == 64
        assert hashes[0] == hashes[1]


def _conv3x3_raw_padded_windows(x, w, keep):
    """`_conv3x3_raw` through np.pad and sliding_window_view, band for band."""
    c, h, wd = x.shape
    o = w.shape[0]
    win = np.lib.stride_tricks.sliding_window_view(
        np.pad(x, ((0, 0), (1, 1), (1, 1))), (3, 3), axis=(1, 2))
    step = max(1, ad._BAND_BYTES // (c * 9 * wd * 8))
    out = np.empty((o, h * wd))
    bands = []
    for r in range(0, h, step):
        cols = win[:, r: r + step].transpose(0, 3, 4, 1, 2).reshape(c * 9, -1)
        np.matmul(w.reshape(o, c * 9), cols, out=out[:, r * wd: r * wd + cols.shape[1]])
        if keep:
            bands.append(cols)
    return out.reshape(o, h, wd), bands


class TestConvPatchView:
    """`_im2col_bands` pads by slice assignment and takes its patches as a
    strided view; `_conv3x3_raw`'s output, and with `keep` the bands the
    generator yields (those `vjp_w` rebuilds), equal the np.pad +
    sliding_window_view formulation bit for bit."""

    # (c, o, h, w): convs at the toy scale (32x32, width 8) and at the
    # recon-mid scale (128x128, width 32, in 2 and 5 bands); an odd shape
    @pytest.mark.parametrize("shape", [
        (8, 8, 32, 32), (8, 8, 8, 8), (8, 1, 32, 32), (16, 8, 16, 16),
        (8, 32, 128, 128), (32, 32, 128, 128), (3, 2, 5, 7),
    ])
    @pytest.mark.parametrize("keep", [False, True])
    def test_equals_padded_window_formulation(self, rng, shape, keep):
        c, o, h, wd = shape
        x = rng.standard_normal((c, h, wd))
        w = rng.standard_normal((o, c, 3, 3))
        out = ad._conv3x3_raw(x, w)
        bands = [cols for _, cols in ad._im2col_bands(x)] if keep else []
        want, want_bands = _conv3x3_raw_padded_windows(x, w, keep)
        assert np.array_equal(out, want)
        assert len(bands) == len(want_bands)
        assert bool(bands) == keep
        for got, ref in zip(bands, want_bands):
            assert np.array_equal(got, ref)


# ±0.0, ±inf, NaN, subnormals and ordinary values of both signs
SPECIAL_VALUES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                           1.5, -1.5, 1e300, -1e300])


class TestLeakyRelu:
    """`leaky_relu` is max(x, slope * x) and keeps no mask; its value and
    vjp equal the mask formulation x * where(x >= 0, 1, slope)."""

    @pytest.mark.parametrize("slope", [0.0, 0.01, 1.0])
    def test_value_and_vjp_match_mask_formulation(self, rng, slope):
        x = np.concatenate([SPECIAL_VALUES, rng.standard_normal(64)])
        g = np.concatenate([rng.permutation(SPECIAL_VALUES), rng.standard_normal(64)])
        mask = np.where(x >= 0.0, 1.0, slope)
        t = Tape()
        xn = t.leaf(x)
        with np.errstate(invalid="ignore", over="ignore"):
            y = ad.leaky_relu(xn, slope)
            ad.backward(sum_(y * t.constant(g)))
            dx, want = g * mask, x * mask
        assert np.array_equal(xn.grad, dx, equal_nan=True)
        # The one difference: at slope 0, +inf * 0 gives NaN where the mask
        # formulation keeps +inf.
        same = ~((slope == 0.0) & (x == np.inf))
        if slope == 0.0:
            assert np.isnan(y.value[~same]).all()
        assert np.array_equal(y.value[same], want[same], equal_nan=True)
        assert np.array_equal(np.signbit(y.value[same & ~np.isnan(x)]),
                              np.signbit(want[same & ~np.isnan(x)]))

    @pytest.mark.parametrize("slope", [-0.01, 1.01, np.nan])
    def test_slope_outside_unit_interval_is_rejected(self, slope):
        t = Tape()
        with pytest.raises(ValueError, match="slope"):
            ad.leaky_relu(t.leaf(np.ones(3)), slope)

    def test_recorded_node_retains_only_its_output(self, rng):
        t = Tape()
        x = t.leaf(rng.standard_normal(2**17))  # 1 MiB
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            y = ad.leaky_relu(x, 0.01)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert t.nodes[-1] is y
        assert retained <= 1.05 * y.value.nbytes


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
    def test_backward_releases_non_leaf_grads_and_parents(self, rng):
        t = Tape()
        x = t.leaf(rng.standard_normal((2, 6, 5)))
        w = t.leaf(rng.standard_normal((3, 2, 3, 3)))
        b = t.leaf(rng.standard_normal(3))
        c = t.constant(rng.standard_normal((3, 6, 5)))
        h = ad.conv3x3(x, w, b)
        a = ad.leaky_relu(h, 0.1)
        p = a * c + a * a
        loss = sum_(p)
        want_loss = loss.value.copy()
        # the same loss by hand: d/da (a c + a^2) = c + 2a, through the ReLU
        hv, av, cv = h.value, a.value, c.value
        dh = (cv + 2 * av) * np.where(hv >= 0, 1.0, 0.1)
        ad.backward(loss)
        for node in (h, a, p, loss):
            assert node.grad is None
            assert node.parents == ()
        assert np.array_equal(loss.value, want_loss)
        want = _conv3x3_grads(x.value, w.value, b.value, dh)[1:]
        for leaf, ref in zip((x, w, b), want):
            assert np.allclose(leaf.grad, ref, rtol=1e-12, atol=1e-12)
        assert not t.nodes

    def test_backward_twice_rejected(self):
        t = Tape()
        x = t.leaf(np.array([1.0]))
        y = sum_(x * x)
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

    def test_shape_mismatch_rejected(self):
        t = Tape()
        with pytest.raises(ValueError, match=r"shape mismatch \(4,\) vs \(3,\)"):
            t.leaf(np.ones(3)) * t.leaf(np.ones(4))

    def test_concat_of_nothing_rejected(self):
        with pytest.raises(ValueError, match="nothing to concatenate"):
            ad.concat_channels([])

    def test_concat_across_tapes_rejected(self):
        a = Tape().leaf(np.ones((1, 2, 2)))
        b = Tape().leaf(np.ones((1, 2, 2)))
        with pytest.raises(TapeError, match="different tapes"):
            ad.concat_channels([a, b])

    def test_record_after_backward_rejected(self):
        t = Tape()
        x = t.leaf(np.array([1.0]))
        ad.backward(sum_(x))
        with pytest.raises(TapeError):
            x * x
