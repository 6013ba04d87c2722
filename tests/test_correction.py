import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparsect.autodiff as ad
from sparsect.autodiff import Tape
from sparsect.correction import (
    CorrectionConfig,
    actual_param_count,
    apply_correction,
    init_params,
    param_count,
    wrap_params,
)

from conftest import numeric_grad


@pytest.fixture
def rng():
    """A fresh generator per test: no test's data depends on which tests ran first."""
    return np.random.default_rng(7)


def forward_scalar(params, cfg, stack):
    tape = Tape()
    pnodes = wrap_params(tape, params)
    out = apply_correction(tape.leaf(stack), pnodes, cfg)
    return ad.mean_(out * out)


class TestParamCount:
    # width-32 / 8-channel stack counts, one per recursion depth
    PINNED = {2: 130049, 3: 184513, 4: 238977, 5: 293441, 6: 347905}

    def test_pinned_table(self):
        for depth, expected in self.PINNED.items():
            assert param_count(32, depth, 8) == expected

    def test_minimal_config(self):
        assert param_count(1, 1, 1) == 99

    @given(
        width=st.integers(1, 6),
        depth=st.integers(0, 3),
        c_in=st.integers(1, 8),
    )
    @settings(max_examples=25, deadline=None)
    def test_closed_form_matches_allocated_arrays(self, width, depth, c_in):
        cfg = CorrectionConfig(width=width, depth=depth, c_in=c_in)
        params = init_params(cfg, seed=0)
        assert actual_param_count(params) == param_count(width, depth, c_in)

    def test_allocated_matches_at_reference_size(self):
        cfg = CorrectionConfig(width=32, depth=5, c_in=8)
        assert actual_param_count(init_params(cfg, 0)) == 293441


class TestInit:
    def test_deterministic_per_seed(self):
        cfg = CorrectionConfig(width=3, depth=1, c_in=2)
        a = init_params(cfg, seed=11)
        b = init_params(cfg, seed=11)
        c = init_params(cfg, seed=12)
        assert set(a) == set(b) == set(c)
        for k in a:
            assert np.array_equal(a[k], b[k])
        assert any(not np.array_equal(a[k], c[k]) for k in a)

    def test_biases_start_at_zero(self):
        cfg = CorrectionConfig(width=4, depth=2, c_in=3)
        params = init_params(cfg, seed=0)
        for name, arr in params.items():
            if name.endswith(".b"):
                assert not arr.any()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CorrectionConfig(width=0)
        with pytest.raises(ValueError):
            CorrectionConfig(depth=-1)
        with pytest.raises(ValueError):
            CorrectionConfig(c_in=0)


class TestForward:
    def test_zero_stack_maps_to_zero_image(self):
        # biases are zero at init, so the whole net is positively homogeneous
        cfg = CorrectionConfig(width=4, depth=2, c_in=5)
        params = init_params(cfg, seed=3)
        tape = Tape()
        out = apply_correction(
            tape.leaf(np.zeros((5, 12, 12))), wrap_params(tape, params), cfg
        )
        assert out.value.shape == (12, 12)
        assert not out.value.any()

    def test_channel_mismatch_rejected(self):
        cfg = CorrectionConfig(width=2, depth=1, c_in=4)
        params = init_params(cfg, seed=0)
        tape = Tape()
        with pytest.raises(ValueError):
            apply_correction(
                tape.leaf(np.ones((3, 8, 8))), wrap_params(tape, params), cfg
            )

    @given(h=st.integers(5, 16), w=st.integers(5, 16))
    @settings(max_examples=20, deadline=None)
    def test_output_shape_matches_input_any_parity(self, h, w):
        rng = np.random.default_rng(7)
        cfg = CorrectionConfig(width=2, depth=2, c_in=3)
        params = init_params(cfg, seed=1)
        tape = Tape()
        out = apply_correction(
            tape.leaf(rng.standard_normal((3, h, w))), wrap_params(tape, params), cfg
        )
        assert out.value.shape == (h, w)
        assert np.isfinite(out.value).all()

    def test_depth_zero_still_runs(self, rng):
        cfg = CorrectionConfig(width=3, depth=0, c_in=2)
        params = init_params(cfg, seed=5)
        assert actual_param_count(params) == param_count(3, 0, 2)
        tape = Tape()
        out = apply_correction(
            tape.leaf(rng.standard_normal((2, 7, 9))), wrap_params(tape, params), cfg
        )
        assert out.value.shape == (7, 9)


class TestGradients:
    def test_all_parameter_gradients_match_finite_differences(self, rng):
        cfg = CorrectionConfig(width=2, depth=1, c_in=2)
        params = init_params(cfg, seed=9)
        stack = rng.standard_normal((2, 6, 7)) * 0.5

        tape = Tape()
        pnodes = wrap_params(tape, params)
        out = apply_correction(tape.leaf(stack), pnodes, cfg)
        ad.backward(ad.mean_(out * out))

        for name in params:
            def f(arr, name=name):
                trial = dict(params)
                trial[name] = arr
                return float(forward_scalar(trial, cfg, stack).value)

            fd = numeric_grad(f, params[name], h=1e-6)
            got = pnodes[name].grad
            assert got is not None, name
            scale = max(np.abs(fd).max(), 1.0)
            assert np.abs(got - fd).max() < 1e-5 * scale, name

    def test_input_gradient_matches_finite_differences(self, rng):
        cfg = CorrectionConfig(width=2, depth=1, c_in=2)
        params = init_params(cfg, seed=9)
        stack = rng.standard_normal((2, 6, 7)) * 0.5

        tape = Tape()
        leaf = tape.leaf(stack)
        out = apply_correction(leaf, wrap_params(tape, params), cfg)
        ad.backward(ad.mean_(out * out))

        fd = numeric_grad(
            lambda arr: float(forward_scalar(params, cfg, arr).value), stack, h=1e-6
        )
        scale = max(np.abs(fd).max(), 1.0)
        assert np.abs(leaf.grad - fd).max() < 1e-5 * scale

    def test_odd_shape_pad_crop_path_gradients(self, rng):
        # odd spatial dims exercise replicate-pad + crop inside the recursion
        cfg = CorrectionConfig(width=2, depth=2, c_in=1)
        params = init_params(cfg, seed=2)
        stack = rng.standard_normal((1, 5, 7)) * 0.5

        tape = Tape()
        leaf = tape.leaf(stack)
        out = apply_correction(leaf, wrap_params(tape, params), cfg)
        ad.backward(ad.mean_(out * out))

        fd = numeric_grad(
            lambda arr: float(forward_scalar(params, cfg, arr).value), stack, h=1e-6
        )
        scale = max(np.abs(fd).max(), 1.0)
        assert np.abs(leaf.grad - fd).max() < 1e-5 * scale
