import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsect import fbp as fbp_module
from sparsect.fbp import (
    FbpOperator,
    PixelBackprojector,
    RampFilter,
    ViewUpsampler,
    _pixel_taps,
    fbp,
    ramp_response,
    upsample_views,
)
from sparsect.geometry import (
    Sinogram,
    ViewSubset,
    full_subset,
    geometry_preset,
    make_geometry,
    scaled_preset,
    sparse_subset,
)
from sparsect.metrics import psnr
from sparsect.phantoms import shepp_logan
from sparsect.projector import forward_project

from conftest import (
    MIRROR_CASES,
    dense_from_op,
    mirror_case,
    recon_mid_geometry,
    unpartnered_fan,
)


def test_package_attribute_is_the_submodule():
    assert isinstance(fbp_module, types.ModuleType)
    assert fbp_module.fbp is fbp


class TestRamp:
    def test_kernel_moments(self):
        # band-limited ramp: Nyquist response exactly 1/(2*du); the DC term
        # of the truncated kernel decays like 1/n, it is not exactly zero
        du = 0.7
        n = 64
        resp = ramp_response(n, du)
        nyq = 1.0 / (2.0 * du)
        assert abs(resp[0]) < nyq * 2.0 / n
        assert abs(ramp_response(4 * n, du)[0]) < abs(resp[0]) / 2
        # truncation also rounds off the Nyquist bin at the same 1/n rate
        assert resp[n // 2] == pytest.approx(nyq, rel=2.0 / n)
        assert abs(ramp_response(4 * n, du)[2 * n] - nyq) < abs(resp[n // 2] - nyq) / 2

    def test_response_nonnegative_and_symmetric(self):
        resp = ramp_response(128, 1.0)
        assert (resp.real >= -1e-12).all()
        assert np.abs(resp.imag).max() < 1e-12
        assert np.allclose(resp[1:], resp[1:][::-1], atol=1e-12)

    def test_filter_self_adjoint(self):
        f = RampFilter(24, 1.3)
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 24))
        b = rng.standard_normal((5, 24))
        lhs = float((f.apply(a) * b).sum())
        rhs = float((a * f.applyT(b)).sum())
        assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1.0)

    @pytest.mark.parametrize(
        "shape", [(60, 17), (30, 17), (32, 256), (256, 256), (45, 183), (17,), (2, 5, 24)]
    )
    def test_filter_matches_padded_complex_fft(self, shape):
        spacing = 0.9
        f = RampFilter(shape[-1], spacing)
        n_pad = 1
        while n_pad < 2 * shape[-1]:
            n_pad *= 2
        assert f.n_pad == n_pad
        rows = np.random.default_rng(4).standard_normal(shape)
        padded = np.zeros(shape[:-1] + (n_pad,))
        padded[..., : shape[-1]] = rows
        spectrum = np.fft.fft(padded, axis=-1) * ramp_response(n_pad, spacing)
        ref = np.real(np.fft.ifft(spectrum, axis=-1)[..., : shape[-1]])
        out = f.apply(rows)
        assert out.shape == shape
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_filter_kills_constant(self):
        f = RampFilter(32, 1.0)
        out = f.apply(np.ones((1, 32)))
        # a constant row is pure DC; the ramp suppresses it (edges excepted,
        # where the zero padding makes the row non-constant)
        assert np.abs(out[0, 8:24]).max() < 5e-2


class TestBackprojector:
    @pytest.mark.parametrize("beam", ["parallel", "fan"])
    def test_adjoint_identity(self, beam, small_parallel, small_fan):
        geom = small_parallel if beam == "parallel" else small_fan
        bp = PixelBackprojector(geom, sparse_subset(geom, 7))
        rng = np.random.default_rng(1)
        y = rng.standard_normal(bp.in_shape)
        x = rng.standard_normal(geom.grid)
        lhs = float((bp.apply(y) * x).sum())
        rhs = float((y * bp.applyT(x)).sum())
        assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1.0)

    def test_matches_dense_probe(self, tiny_parallel):
        bp = PixelBackprojector(tiny_parallel, sparse_subset(tiny_parallel, 5))
        mat = dense_from_op(bp.apply, bp.in_shape, tiny_parallel.grid)
        rng = np.random.default_rng(2)
        y = rng.standard_normal(bp.in_shape)
        assert np.abs(bp.apply(y).ravel() - mat @ y.ravel()).max() < 1e-12


def _reference_backprojection(bp, rows):
    """Accumulate each view with taps built at its own angle."""
    acc = np.zeros(bp.out_shape[0] * bp.out_shape[1])
    for vi, view in enumerate(bp.subset.indices):
        [(_, i0, i1, w0, w1)] = _pixel_taps(bp.geom, view)
        r = rows[vi]
        acc += w0 * r[i0] + w1 * r[i1]
    return acc.reshape(bp.out_shape)


def _reference_backprojection_T(bp, img):
    """Scatter each view's taps by np.add.at."""
    flat = img.ravel()
    out = np.zeros(bp.in_shape)
    for vi, view in enumerate(bp.subset.indices):
        [(_, i0, i1, w0, w1)] = _pixel_taps(bp.geom, view)
        np.add.at(out[vi], i0, w0 * flat)
        np.add.at(out[vi], i1, w1 * flat)
    return out


def _rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


class TestBackprojectorOrbits:
    @pytest.mark.parametrize("beam", ["fan", "parallel"])
    @pytest.mark.parametrize("q", [12, 7])
    def test_matches_per_view_reference(self, beam, q, small_fan, small_parallel):
        geom = small_fan if beam == "fan" else small_parallel
        bp = PixelBackprojector(geom, sparse_subset(geom, q))
        rng = np.random.default_rng(9)
        rows = rng.standard_normal(bp.in_shape)
        img = rng.standard_normal(geom.grid)
        assert _rel(bp.apply(rows), _reference_backprojection(bp, rows)) <= 1e-12
        assert _rel(bp.applyT(img), _reference_backprojection_T(bp, img)) <= 1e-12

    def test_full_view_apply_builds_taps_once_per_orbit(self, small_fan, monkeypatch):
        built = []

        def counted(geom, view):
            built.append(view)
            return _pixel_taps(geom, view)

        monkeypatch.setattr(fbp_module, "_pixel_taps", counted)
        bp = PixelBackprojector(small_fan)
        bp.apply(np.ones(bp.in_shape))
        assert built == [2, 3]

    @pytest.mark.parametrize("grid", [(8, 8), (9, 7)])
    def test_views_without_partners_match_reference_bitwise(self, grid):
        geom = unpartnered_fan(grid)
        bp = PixelBackprojector(geom)
        assert len(bp._core.orbits) == geom.n_views_full
        rows = np.random.default_rng(10).standard_normal(bp.in_shape)
        assert np.array_equal(bp.apply(rows), _reference_backprojection(bp, rows))


class TestBackprojectorMirrorOrbits:
    """See test_projector.TestMirrorOrbits: the same cases for the taps."""

    @pytest.mark.parametrize("case", sorted(MIRROR_CASES))
    def test_matches_per_view_reference(self, case):
        bp = PixelBackprojector(*mirror_case(case))
        assert any(c >= 4 for _, _, codes in bp._core.orbits for c in codes)
        rng = np.random.default_rng(13)
        rows = rng.standard_normal(bp.in_shape)
        img = rng.standard_normal(bp.out_shape)
        assert _rel(bp.apply(rows), _reference_backprojection(bp, rows)) <= 1e-12
        assert _rel(bp.applyT(img), _reference_backprojection_T(bp, img)) <= 1e-12


class TestBackprojectorTapCache:
    @pytest.mark.parametrize("beam", ["fan", "parallel"])
    def test_second_calls_build_no_taps_and_repeat_bitwise(
        self, beam, small_fan, small_parallel, monkeypatch
    ):
        geom = small_fan if beam == "fan" else small_parallel
        built = []

        def counted(geom, view):
            built.append(view)
            return _pixel_taps(geom, view)

        monkeypatch.setattr(fbp_module, "_pixel_taps", counted)
        bp = PixelBackprojector(geom, sparse_subset(geom, 6))
        assert bp._core.admitted
        rng = np.random.default_rng(12)
        rows = rng.standard_normal(bp.in_shape)
        img = rng.standard_normal(geom.grid)
        first = bp.apply(rows), bp.applyT(img)
        assert sorted(built) == sorted(rep for rep, _, _ in bp._core.orbits)
        n_built = len(built)
        second = bp.apply(rows), bp.applyT(img)
        assert len(built) == n_built
        for a, b in zip(first, second):
            assert a.tobytes() == b.tobytes()

    def test_full_view_backprojector_at_256_views_keeps_33_taps(self, monkeypatch):
        geom = recon_mid_geometry()
        built = []

        def counted(geom, view):
            built.append(view)
            return _pixel_taps(geom, view)

        monkeypatch.setattr(fbp_module, "_pixel_taps", counted)
        bp = PixelBackprojector(geom)
        bp.apply(np.ones(bp.in_shape))
        assert bp._core.admitted
        assert len(built) == 33
        assert built == [rep for rep, _, _ in bp._core.orbits]
        bp.apply(np.ones(bp.in_shape))
        assert len(built) == 33


class TestFbpOperator:
    @pytest.mark.parametrize("beam", ["parallel", "fan"])
    def test_adjoint_identity(self, beam, small_parallel, small_fan):
        geom = small_parallel if beam == "parallel" else small_fan
        op = FbpOperator(geom, sparse_subset(geom, 9))
        rng = np.random.default_rng(3)
        y = rng.standard_normal(op.in_shape)
        x = rng.standard_normal(geom.grid)
        lhs = float((op.apply(y) * x).sum())
        rhs = float((y * op.applyT(x)).sum())
        assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1.0)

    def test_parallel_roundtrip_64(self):
        g = scaled_preset("parallel-720", (64, 64))
        x = shepp_logan(g.grid)
        rec = fbp(forward_project_image(g, x)).data
        assert psnr(rec, x) >= 24.0
        assert psnr(np.clip(rec, 0, 1), x) >= 31.0

    def test_fan_roundtrip_64(self):
        g = scaled_preset("fan-1024", (64, 64))
        x = shepp_logan(g.grid)
        rec = fbp(forward_project_image(g, x)).data
        assert psnr(rec, x) >= 26.0
        assert psnr(np.clip(rec, 0, 1), x) >= 33.0

    def test_sparse_views_degrade_gracefully(self, small_parallel):
        # fewer views keep the reconstruction finite and roughly scaled
        x = shepp_logan(small_parallel.grid)
        sub = sparse_subset(small_parallel, 6)
        y = forward_project(ImageOf(small_parallel, x), sub)
        rec = fbp(y).data
        assert np.isfinite(rec).all()
        assert abs(rec.mean() - x.mean()) < 0.25


def ImageOf(geom, arr):
    from sparsect.geometry import Image

    return Image(arr, geom)


def forward_project_image(geom, arr):
    return forward_project(ImageOf(geom, arr), full_subset(geom))


def _reference_upsampler(geom, subset):
    """Taps of the row-gather view upsampler: source rows, flips, weights."""
    period = geom.angular_range
    sparse = geom.view_angles_full[subset.indices]
    ext = np.concatenate(([sparse[-1] - period], sparse, [sparse[0] + period]))
    src = np.concatenate(([subset.q1 - 1], np.arange(subset.q1), [0]))
    flip = np.zeros(subset.q1 + 2, dtype=bool)
    flip[0] = flip[-1] = geom.beam == "parallel"
    full = geom.view_angles_full
    hi = np.searchsorted(ext, full, side="right")
    lo = hi - 1
    w = (full - ext[lo]) / (ext[hi] - ext[lo])
    return ((src[lo], flip[lo], 1.0 - w), (src[hi], flip[hi], w))


def _reference_upsample(geom, subset, y):
    """Gather whole rows, then reverse the flipped ones on every call."""
    (ia, fa, wa), (ib, fb, wb) = _reference_upsampler(geom, subset)
    ra = y[ia]
    rb = y[ib]
    ra[fa] = ra[fa, ::-1]
    rb[fb] = rb[fb, ::-1]
    return wa[:, None] * ra + wb[:, None] * rb


def _reference_upsample_T(geom, subset, y_full):
    """Scatter whole rows by np.add.at."""
    out = np.zeros((subset.q1, geom.n_det))
    for idx, flips, ww in _reference_upsampler(geom, subset):
        rows = ww[:, None] * y_full
        rows[flips] = rows[flips, ::-1]
        np.add.at(out, idx, rows)
    return out


class TestViewUpsampler:
    @pytest.mark.parametrize("beam", ["parallel", "fan"])
    def test_exact_on_subset_rows(self, beam, small_parallel, small_fan):
        geom = small_parallel if beam == "parallel" else small_fan
        sub = sparse_subset(geom, 5)
        up = ViewUpsampler(geom, sub)
        y = np.random.default_rng(4).standard_normal((5, geom.n_det))
        full = up.apply(y)
        assert np.array_equal(full[sub.indices], y)

    @pytest.mark.parametrize("beam", ["fan", "parallel"])
    @pytest.mark.parametrize("q", [1, 2, 5, 12])
    def test_matches_row_gather_reference(self, beam, q, small_fan, small_parallel):
        geom = small_fan if beam == "fan" else small_parallel
        decimated = sparse_subset(geom, q)
        # Shifted one view on, the subset leaves full view 0 before its first
        # view, so both wrap rows carry weight; at q=1 both fold into one row.
        shifted = ViewSubset(np.sort((decimated.indices + 1) % geom.n_views_full))
        for sub in (decimated, shifted):
            up = ViewUpsampler(geom, sub)
            rng = np.random.default_rng(13)
            y = rng.standard_normal(up.in_shape)
            y_full = rng.standard_normal(up.out_shape)
            assert np.array_equal(up.apply(y), _reference_upsample(geom, sub, y))
            ref_T = _reference_upsample_T(geom, sub, y_full)
            assert _rel(up.applyT(y_full), ref_T) <= 1e-12

    def test_full_subset_is_identity(self, small_fan, small_parallel):
        for geom in (small_fan, small_parallel):
            up = ViewUpsampler(geom, full_subset(geom))
            y = np.random.default_rng(5).standard_normal(up.in_shape)
            assert np.array_equal(up.apply(y), y)

    def test_interpolation_is_linear_between_brackets(self, small_fan):
        # view angles are uniform, so a sinogram linear in the view index
        # reproduces exactly between retained views (away from the wrap)
        sub = sparse_subset(small_fan, 4)  # indices 0,3,6,9 of 12
        up = ViewUpsampler(small_fan, sub)
        ramp = sub.indices.astype(float)[:, None] * np.ones((1, small_fan.n_det))
        full = up.apply(ramp)
        for k in range(sub.indices[-1] + 1):
            assert full[k, 0] == pytest.approx(float(k), abs=1e-12)

    def test_parallel_wrap_reverses_detector(self, small_parallel):
        # beyond the last retained view, opposing rays are used: the
        # interpolant mixes in the detector-reversed first row
        sub = sparse_subset(small_parallel, 5)
        up = ViewUpsampler(small_parallel, sub)
        y = np.zeros((5, small_parallel.n_det))
        y[0] = np.arange(small_parallel.n_det, dtype=float)
        full = up.apply(y)
        last = small_parallel.n_views_full - 1
        w = np.where(full[last] != 0.0)[0]
        assert len(w) > 0
        row = full[last] / np.max(np.abs(full[last]))
        rev = y[0][::-1] / np.max(y[0])
        assert np.allclose(np.argsort(row), np.argsort(rev))

    @given(q=st.integers(1, 12), beam=st.sampled_from(["parallel", "fan"]))
    @settings(max_examples=30, deadline=None)
    def test_adjoint_property(self, q, beam):
        geom = make_geometry(
            beam, n_views=12, n_det=15,
            det_spacing=0.9 if beam == "parallel" else 2.0,
            grid=(8, 8), pixel_size=1.0, src_dist=25.0, det_dist=25.0,
        )
        up = ViewUpsampler(geom, sparse_subset(geom, q))
        rng = np.random.default_rng(q)
        a = rng.standard_normal(up.in_shape)
        b = rng.standard_normal(up.out_shape)
        lhs = float((up.apply(a) * b).sum())
        rhs = float((a * up.applyT(b)).sum())
        assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1.0)

    def test_paper_scale_upsampler_retains_under_one_mib(self):
        # two weights and one source row per full view, and the
        # (q1 + 2, n_full) interpolation matrix, not a table per detector cell
        geom = geometry_preset("fan-1024")
        sub = sparse_subset(geom, 64)
        tracemalloc.start()
        try:
            up = ViewUpsampler(geom, sub)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert up.out_shape == (1024, 1024)
        assert retained < 2**20

    def test_upsample_views_wrapper(self, small_fan):
        sub = sparse_subset(small_fan, 4)
        y = Sinogram(np.ones((4, small_fan.n_det)), small_fan, sub)
        full = upsample_views(y)
        assert full.data.shape == (small_fan.n_views_full, small_fan.n_det)
        assert np.allclose(full.data, 1.0)

    def test_interpolated_fbp_beats_sparse_fbp(self):
        # the whole point of view upsampling: at heavy decimation the
        # interpolated full-view reconstruction suppresses streaks
        g = scaled_preset("parallel-720", (64, 64))
        x = shepp_logan(g.grid)
        sub = sparse_subset(g, 45)
        y = forward_project(ImageOf(g, x), sub)
        sparse_rec = fbp(y).data
        up_rec = fbp(upsample_views(y)).data
        assert psnr(np.clip(up_rec, 0, 1), x) > psnr(np.clip(sparse_rec, 0, 1), x)
