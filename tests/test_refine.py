import numpy as np
import pytest

import sparsect.autodiff as ad
from sparsect import fbp as fbp_module
from sparsect import projector as projector_module
from sparsect.autodiff import Tape
from sparsect.fbp import ViewUpsampler
from sparsect.geometry import (
    GeometryError,
    Sinogram,
    full_subset,
    make_geometry,
    sparse_subset,
)
from sparsect.refine import (
    ALL_GROUPS,
    CHANNEL_ORDER,
    VARIANTS,
    assemble_stack,
    build_bundle,
    build_context,
    stage_channel_arrays,
    stack_width,
    variant_groups,
)

from conftest import dense_from_op, numeric_grad

RNG = np.random.default_rng(31)

EXPECTED_WIDTH = {"a": 1, "e": 2, "b": 3, "f": 4, "c": 5, "d": 6, "g": 8}


def tiny_context(geom, q=5, x_true=None):
    subset = sparse_subset(geom, q)
    bundle = build_bundle(geom, subset)
    if x_true is None:
        x_true = RNG.random(geom.grid) * 0.5
    y = Sinogram(bundle.proj_s.apply(x_true), geom, subset)
    return bundle, build_context(y, bundle), x_true


def dense_operators(bundle):
    """Explicit matrices for every linear handle in the bundle."""
    geom, subset = bundle.geom, bundle.subset
    n_pix = geom.grid[0] * geom.grid[1]
    q, nd, nv = len(subset.indices), geom.n_det, geom.n_views_full
    A_s = dense_from_op(bundle.proj_s.apply, geom.grid, (q, nd))
    A_f = dense_from_op(bundle.proj_f.apply, geom.grid, (nv, nd))
    B_s = dense_from_op(bundle.fbp_s.apply, (q, nd), geom.grid)
    B_f = dense_from_op(bundle.fbp_f.apply, (nv, nd), geom.grid)
    U = dense_from_op(bundle.upsampler.apply, (q, nd), (nv, nd))
    assert A_s.shape == (q * nd, n_pix)
    return A_s, A_f, B_s, B_f, U


class TestVariants:
    def test_stack_widths(self):
        for tag, width in EXPECTED_WIDTH.items():
            assert stack_width(variant_groups(tag)) == width

    def test_all_seven_variants_enumerated(self):
        assert set(VARIANTS) == set("abcdefg")
        assert variant_groups("g") == ALL_GROUPS

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            variant_groups("z")

    def test_assembled_channel_count_per_variant(self, tiny_fan):
        _, ctx, x = tiny_context(tiny_fan)
        for tag, width in EXPECTED_WIDTH.items():
            tape = Tape()
            stack = assemble_stack(tape.leaf(x), ctx, variant_groups(tag))
            assert stack.value.shape == (width, *tiny_fan.grid), tag

    def test_stack_slices_follow_declared_channel_order(self, tiny_fan):
        _, ctx, _ = tiny_context(tiny_fan)
        x = RNG.random(tiny_fan.grid)
        chans = stage_channel_arrays(x, ctx)
        tape = Tape()
        stack = assemble_stack(tape.leaf(x), ctx).value
        for i, name in enumerate(CHANNEL_ORDER):
            assert np.array_equal(stack[i], chans[name]), name


class TestDenseOracle:
    @pytest.mark.parametrize("beam", ["parallel", "fan"])
    def test_every_channel_matches_explicit_matrices(self, beam, request):
        geom = request.getfixturevalue(f"tiny_{beam}")
        bundle, ctx, _ = tiny_context(geom)
        A_s, A_f, B_s, B_f, U = dense_operators(bundle)

        x = RNG.random(geom.grid)
        xr = x.ravel()
        ys = ctx.y_s.ravel()
        x0 = B_s @ ys
        e_data = x0 - B_s @ (A_s @ xr)
        e_null = xr - B_s @ (A_s @ xr)
        refined = xr + e_data - e_null
        expected = {
            "x_prev": xr,
            "x_interp": B_f @ (U @ ys),
            "e_interp": B_f @ (U @ (A_s @ xr) - A_f @ xr),
            "e_full_x": xr - B_f @ (A_f @ xr),
            "e_full_r": refined - B_f @ (A_f @ refined),
            "e_data": e_data,
            "e_null": e_null,
            "e_null_r": refined - B_s @ (A_s @ refined),
        }
        got = stage_channel_arrays(x, ctx)
        assert set(got) == set(expected)
        for name in CHANNEL_ORDER:
            diff = np.abs(got[name].ravel() - expected[name]).max()
            assert diff < 1e-8, f"{name}: {diff:.3e}"

    def test_refined_estimate_equals_sparse_fbp(self, tiny_parallel):
        # r = x + e_data - e_null telescopes to fbp_s(y); check via e_null_r,
        # which must then be measurement-only (same for any stage input)
        _, ctx, _ = tiny_context(tiny_parallel)
        a = stage_channel_arrays(RNG.random(tiny_parallel.grid), ctx)
        b = stage_channel_arrays(RNG.random(tiny_parallel.grid) * 3.0, ctx)
        assert np.abs(a["e_null_r"] - b["e_null_r"]).max() < 1e-10
        assert np.abs(a["e_full_r"] - b["e_full_r"]).max() < 1e-10


class TestAlgebraicIdentities:
    def test_noiseless_fixed_point_kills_data_residual(self, tiny_fan):
        x_true = RNG.random(tiny_fan.grid)
        _, ctx, _ = tiny_context(tiny_fan, x_true=x_true)
        chans = stage_channel_arrays(x_true, ctx)
        assert not chans["e_data"].any()  # exact: identical floats subtract

    def test_zero_image_zero_data_gives_all_zero_channels(self, tiny_fan):
        subset = sparse_subset(tiny_fan, 5)
        bundle = build_bundle(tiny_fan, subset)
        y = Sinogram(np.zeros((5, tiny_fan.n_det)), tiny_fan, subset)
        ctx = build_context(y, bundle)
        chans = stage_channel_arrays(np.zeros(tiny_fan.grid), ctx)
        for name, arr in chans.items():
            assert not arr.any(), name

    def test_zero_image_channels(self, tiny_parallel):
        _, ctx, _ = tiny_context(tiny_parallel)
        chans = stage_channel_arrays(np.zeros(tiny_parallel.grid), ctx)
        assert np.array_equal(chans["e_data"], ctx.x0)
        assert not chans["e_null"].any()
        assert not chans["e_full_x"].any()
        assert not chans["e_interp"].any()

    def test_full_subset_kills_interp_error(self, tiny_parallel):
        subset = full_subset(tiny_parallel)
        bundle = build_bundle(tiny_parallel, subset)
        x = RNG.random(tiny_parallel.grid)
        y = Sinogram(bundle.proj_s.apply(x), tiny_parallel, subset)
        ctx = build_context(y, bundle)
        chans = stage_channel_arrays(RNG.random(tiny_parallel.grid), ctx)
        assert not chans["e_interp"].any()

    def test_joint_scaling_scales_every_channel(self, tiny_fan):
        subset = sparse_subset(tiny_fan, 5)
        bundle = build_bundle(tiny_fan, subset)
        x = RNG.random(tiny_fan.grid)
        y_arr = bundle.proj_s.apply(RNG.random(tiny_fan.grid))
        alpha = -2.5

        ctx1 = build_context(Sinogram(y_arr, tiny_fan, subset), bundle)
        ctx2 = build_context(Sinogram(alpha * y_arr, tiny_fan, subset), bundle)
        c1 = stage_channel_arrays(x, ctx1)
        c2 = stage_channel_arrays(alpha * x, ctx2)
        for name in CHANNEL_ORDER:
            scale = max(np.abs(c2[name]).max(), 1.0)
            assert np.abs(c2[name] - alpha * c1[name]).max() < 1e-10 * scale, name


class TestPlumbing:
    def test_subset_mismatch_rejected(self, tiny_fan):
        bundle = build_bundle(tiny_fan, sparse_subset(tiny_fan, 5))
        other = sparse_subset(tiny_fan, 2)
        y = Sinogram(np.zeros((2, tiny_fan.n_det)), tiny_fan, other)
        with pytest.raises(GeometryError):
            build_context(y, bundle)

    def test_bundles_share_full_view_tables(self, tiny_fan, monkeypatch):
        built = []
        for module, name in ((projector_module, "_joseph_tables"), (fbp_module, "_pixel_taps")):
            original = getattr(module, name)

            def counted(*args, _original=original):
                built.append(1)
                return _original(*args)

            monkeypatch.setattr(module, name, counted)
        b1 = build_bundle(tiny_fan, sparse_subset(tiny_fan, 5))
        b2 = build_bundle(tiny_fan, sparse_subset(tiny_fan, 2))
        assert isinstance(b1.upsampler, ViewUpsampler)
        x = RNG.random(tiny_fan.grid)
        first = b1.fbp_f.apply(b1.proj_f.apply(x))
        n_built = len(built)
        assert n_built > 0
        assert b2.fbp_f.apply(b2.proj_f.apply(x)).tobytes() == first.tobytes()
        assert len(built) == n_built

    def test_stack_gradient_matches_finite_differences(self, tiny_parallel):
        _, ctx, _ = tiny_context(tiny_parallel)
        x = RNG.random(tiny_parallel.grid)
        w = RNG.standard_normal((8, *tiny_parallel.grid))  # fixed probe

        def loss_of(arr):
            tape = Tape()
            stack = assemble_stack(tape.leaf(arr), ctx)
            return float((stack.value * w).sum())

        tape = Tape()
        leaf = tape.leaf(x)
        stack = assemble_stack(leaf, ctx)
        ad.backward(ad.sum_(stack * tape.constant(w)))

        fd = numeric_grad(loss_of, x, h=1e-6)
        scale = max(np.abs(fd).max(), 1.0)
        assert np.abs(leaf.grad - fd).max() < 1e-5 * scale
