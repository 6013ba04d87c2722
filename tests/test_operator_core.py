"""Properties every operator on the projector's two-tap core shares: one
subset check, no reference cycles, and the cache admission rule."""

import gc

import numpy as np
import pytest

from sparsect.experiments import toy_geometry
from sparsect.fbp import FbpOperator, PixelBackprojector, ViewUpsampler
from sparsect.geometry import ViewSubset, make_geometry, sparse_subset
from sparsect.projector import JosephProjector

OPERATORS = [JosephProjector, PixelBackprojector, FbpOperator, ViewUpsampler]


def recon_mid_geometry():
    return make_geometry("fan", n_views=256, n_det=256, det_spacing=2.0,
                         grid=(128, 128), pixel_size=0.7, src_dist=125.0,
                         det_dist=125.0)


def fista_tv_geometry():
    return make_geometry("parallel", n_views=180, n_det=183, det_spacing=1.0,
                         grid=(128, 128), pixel_size=1.0)


@pytest.mark.parametrize("cls", OPERATORS, ids=lambda c: c.__name__)
def test_subset_past_the_full_view_count_raises_value_error(cls, small_fan):
    bad = ViewSubset(np.array([0, 5, 12]), 3)
    with pytest.raises(ValueError, match="full view count"):
        cls(small_fan, bad)


def unreachable_after(fn):
    """Objects the cycle collector finds after fn() ran with it switched off."""
    gc.collect()
    gc.disable()
    try:
        fn()
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("cls", OPERATORS, ids=lambda c: c.__name__)
def test_dropped_operator_leaves_no_cycles(cls, small_fan):
    sub = sparse_subset(small_fan, 5)

    def build_apply_drop():
        op = cls(small_fan, sub)
        op.apply(np.ones(op.in_shape))

    assert unreachable_after(build_apply_drop) == 0


class TestCacheAdmission:
    """Tables are kept when 32 bytes per tap over every view of the subset
    fit `_CACHE_LIMIT_BYTES`, and then only the orbit representatives'."""

    @pytest.mark.parametrize("cls", [JosephProjector, PixelBackprojector])
    def test_recon_mid_sparse_subset_keeps_its_representatives(self, cls):
        op = cls(recon_mid_geometry(), sparse_subset(recon_mid_geometry(), 32))
        op.apply(np.ones(op.in_shape))
        reps = [rep for rep, _, _ in op._core.orbits]
        assert len(reps) == 8
        assert sorted(op._core.cache) == reps

    @pytest.mark.parametrize("cls", [JosephProjector, PixelBackprojector])
    def test_recon_mid_full_view_set_keeps_nothing(self, cls):
        assert cls(recon_mid_geometry())._core.cache is None

    @pytest.mark.parametrize("cls", [JosephProjector, PixelBackprojector])
    def test_fista_tv_subset_is_cached(self, cls):
        geom = fista_tv_geometry()
        assert cls(geom, sparse_subset(geom, 45))._core.cache is not None

    @pytest.mark.parametrize("cls", [JosephProjector, PixelBackprojector])
    @pytest.mark.parametrize("q", [15, 30, 60])
    def test_toy_subsets_are_cached(self, cls, q):
        geom = toy_geometry()
        assert cls(geom, sparse_subset(geom, q))._core.cache is not None
