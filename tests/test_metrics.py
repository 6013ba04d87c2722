import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sparsect.autodiff import Tape
from sparsect.losses import effective_win_size, ssim_graph
from sparsect.metrics import psnr, rmse_hu, ssim_value

RNG = np.random.default_rng(29)


class TestPsnr:
    def test_identical_images_are_infinite(self):
        a = RNG.random((16, 16))
        assert psnr(a, a.copy()) == math.inf

    def test_hand_value_uniform_error(self):
        ref = np.zeros((10, 10))
        x = np.full((10, 10), 0.1)  # mse = 0.01
        assert psnr(x, ref) == pytest.approx(20.0, abs=1e-12)

    def test_symmetry(self):
        a, b = RNG.random((8, 8)), RNG.random((8, 8))
        assert psnr(a, b) == psnr(b, a)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            psnr(np.zeros((4, 4)), np.zeros((4, 1)))


class TestSsimValue:
    def test_self_similarity_exactly_one(self):
        for shape in ((16, 16), (7, 20), (32, 32)):
            a = RNG.random(shape)
            assert ssim_value(a, a.copy()) == 1.0

    def test_symmetry_is_bitwise(self):
        a, b = RNG.random((16, 16)), RNG.random((16, 16))
        assert ssim_value(a, b) == ssim_value(b, a)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ssim_value(np.zeros((4, 4)), np.zeros((4, 5)))

    def test_agrees_with_training_graph_route(self):
        # central-moment metric vs raw-moment graph: independent algebra
        for _ in range(10):
            x, y = RNG.random((16, 16)), RNG.random((16, 16))
            t = Tape()
            g = float(ssim_graph(t.leaf(x), t.constant(y)).value)
            assert abs(g - ssim_value(x, y)) < 1e-10

    @given(
        arrays(np.float64, (12, 12), elements=st.floats(0.0, 1.0, allow_nan=False)),
        arrays(np.float64, (12, 12), elements=st.floats(0.0, 1.0, allow_nan=False)),
    )
    @settings(max_examples=25, deadline=None)
    def test_graph_and_metric_agree_on_arbitrary_pairs(self, x, y):
        t = Tape()
        g = float(ssim_graph(t.leaf(x), t.constant(y)).value)
        assert abs(g - ssim_value(x, y)) < 1e-10

    def test_window_shrink_consistency(self):
        # small image flows through the shrunken-window code path: the
        # 11-pixel window shrinks to 5 on a 6x6 image, in both routes
        assert effective_win_size(11, (6, 6)) == 5
        x, y = RNG.random((6, 6)), RNG.random((6, 6))
        t = Tape()
        g = float(ssim_graph(t.leaf(x), t.constant(y)).value)
        assert abs(g - ssim_value(x, y)) < 1e-10
        assert ssim_value(x, x.copy()) == 1.0


class TestNoSettings:
    @pytest.mark.parametrize("metric", [psnr, ssim_value, rmse_hu], ids=lambda f: f.__name__)
    def test_metric_takes_only_the_image_pair(self, metric):
        assert list(inspect.signature(metric).parameters) == ["x", "ref"]


class TestHounsfield:
    def test_water_maps_to_zero(self):
        # water (0.2) is 0 HU and air (0) is -1000 HU
        assert rmse_hu(np.full((3, 3), 0.2), np.zeros((3, 3))) == 1000.0

    def test_hand_values(self):
        water = np.full((4, 4), 0.2)
        assert rmse_hu(np.zeros((4, 4)), water) == pytest.approx(1000.0)
        assert rmse_hu(np.full((4, 4), 0.4), water) == pytest.approx(1000.0)

    def test_rmse_hand_value(self):
        x = np.full((5, 5), 0.21)
        ref = np.full((5, 5), 0.20)
        # 0.01 attenuation gap * 5000 HU per unit = 50 HU everywhere
        assert rmse_hu(x, ref) == pytest.approx(50.0, rel=1e-12)

    def test_rmse_zero_on_identical(self):
        a = RNG.random((6, 6))
        assert rmse_hu(a, a.copy()) == 0.0

    def test_rmse_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            rmse_hu(np.zeros((4, 4)), np.zeros((1, 4)))
