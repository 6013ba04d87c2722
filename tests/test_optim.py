import dataclasses

import numpy as np
import pytest

from sparsect.optim import BETA1, BETA2, EPS, Adam, AdamConfig

RNG = np.random.default_rng(41)


def make_params():
    return {
        "w": RNG.standard_normal((3, 4)),
        "b": np.zeros(3),
    }


class TestStep:
    def test_constant_gradient_closed_form(self):
        # with g fixed, m/bc1 = g and v/bc2 = g^2 at every t, so each step
        # moves exactly lr * g / (|g| + eps)
        cfg = AdamConfig(lr=0.05)
        params = {"w": np.zeros((2, 3))}
        g = RNG.standard_normal((2, 3))
        opt = Adam(params, cfg)
        for t in range(1, 6):
            opt.step({"w": g.copy()})
            expected = -t * cfg.lr * g / (np.abs(g) + EPS)
            assert np.abs(params["w"] - expected).max() < 1e-12, t

    def test_zero_gradient_leaves_params_unchanged(self):
        params = make_params()
        before = {k: v.copy() for k, v in params.items()}
        opt = Adam(params)
        opt.step({k: np.zeros_like(v) for k, v in params.items()})
        for k in params:
            assert np.array_equal(params[k], before[k])
        assert opt.t == 1

    def test_updates_in_place(self):
        params = make_params()
        refs = {k: v for k, v in params.items()}
        opt = Adam(params, AdamConfig(lr=0.1))
        opt.step({k: np.ones_like(v) for k, v in params.items()})
        for k, v in params.items():
            assert v is refs[k]  # same storage the model holds
            assert v.any()

    def test_missing_gradient_rejected_before_mutation(self):
        params = make_params()
        before = {k: v.copy() for k, v in params.items()}
        opt = Adam(params)
        with pytest.raises(KeyError):
            opt.step({"w": np.zeros((3, 4))})
        for k in params:
            assert np.array_equal(params[k], before[k])
        assert opt.t == 0

    def test_descends_a_quadratic(self):
        params = {"x": np.array([4.0, -7.0])}
        opt = Adam(params, AdamConfig(lr=0.1))
        for _ in range(300):
            opt.step({"x": 2.0 * params["x"]})
        assert np.abs(params["x"]).max() < 1e-2


class TestState:
    def test_round_trip_restores_trajectory(self):
        params_a = make_params()
        params_b = {k: v.copy() for k, v in params_a.items()}
        opt_a = Adam(params_a, AdamConfig(lr=0.02))
        opt_b = Adam(params_b, AdamConfig(lr=0.02))

        grads = [
            {k: RNG.standard_normal(v.shape) for k, v in params_a.items()}
            for _ in range(6)
        ]
        for g in grads[:3]:
            opt_a.step(g)
            opt_b.step(g)
        snap = opt_a.state()

        for g in grads[3:]:
            opt_a.step(g)

        opt_c = Adam(params_b, AdamConfig(lr=99.0))  # cfg comes from the snapshot
        opt_c.load_state(snap)
        assert opt_c.t == 3
        assert opt_c.cfg.lr == 0.02
        for g in grads[3:]:
            opt_c.step(g)

        for k in params_a:
            assert np.array_equal(params_a[k], params_b[k]), k

    def test_state_is_a_copy(self):
        params = make_params()
        opt = Adam(params)
        opt.step({k: np.ones_like(v) for k, v in params.items()})
        snap = opt.state()
        opt.step({k: np.ones_like(v) for k, v in params.items()})
        assert snap["t"] == 1
        assert not np.array_equal(snap["m"]["w"], opt.m["w"])

    def test_name_mismatch_rejected(self):
        opt = Adam(make_params())
        snap = opt.state()
        snap["m"] = {"other": np.zeros(1)}
        with pytest.raises(KeyError):
            opt.load_state(snap)


class TestConfig:
    @pytest.mark.parametrize("lr", [0.0, -1e-5, float("nan"), float("inf")])
    def test_lr_must_be_positive_and_finite(self, lr):
        with pytest.raises(ValueError, match="lr"):
            AdamConfig(lr=lr)

    def test_lr_is_the_only_setting(self):
        """Kingma & Ba's (2015) decays and floor are constants, not fields."""
        assert [f.name for f in dataclasses.fields(AdamConfig)] == ["lr"]
        assert (BETA1, BETA2, EPS) == (0.9, 0.999, 1e-8)
