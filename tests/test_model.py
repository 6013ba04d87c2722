import gc
from dataclasses import replace

import numpy as np
import pytest

import sparsect.autodiff as ad
from sparsect import model as model_module
from sparsect.autodiff import Tape
from sparsect.correction import param_count
from sparsect.experiments import toy_model, toy_phantoms
from sparsect.fbp import FbpOperator, ViewUpsampler
from sparsect.geometry import (
    GeometryError,
    Sinogram,
    ViewSubset,
    make_geometry,
    perturb_geometry,
    sparse_subset,
)
from sparsect.losses import total_loss
from sparsect.model import ReconNet
from sparsect.projector import _STORE, JosephProjector
from sparsect.refine import stack_width, variant_groups

from conftest import registered_view_counts

RNG = np.random.default_rng(17)


def no_work(*args, **kwargs):
    raise AssertionError("work started before the counts were checked")


def tiny_model(geom, **kw):
    kw.setdefault("width", 2)
    kw.setdefault("depth", 1)
    kw.setdefault("n_stages", 2)
    kw.setdefault("variant", "g")
    return ReconNet(geom, **kw)


def measure(geom, q, x=None):
    subset = sparse_subset(geom, q)
    proj = JosephProjector(geom, subset)
    if x is None:
        x = RNG.random(geom.grid) * 0.5
    return Sinogram(proj.apply(x), geom, subset), x


def toy_scan(model, q=15):
    bundle = model.register_views(q)
    x = toy_phantoms(1, 5)[0]
    return Sinogram(bundle.proj_s.apply(x), model.geom, bundle.subset), x


def train_step(model, y, x):
    tape = Tape()
    out, _, _ = model.forward_graph(y, tape)
    loss, _, _ = total_loss(out, tape.constant(x))
    ad.backward(loss)


def unreachable_after(fn):
    """Objects the cycle collector finds after fn() ran with it switched off."""
    gc.collect()
    gc.disable()
    try:
        fn()
        return gc.collect()
    finally:
        gc.enable()


class TestConstruction:
    def test_param_count_matches_closed_form(self, tiny_fan):
        for variant in "aeg":
            m = tiny_model(tiny_fan, variant=variant, width=3, depth=2)
            c_in = stack_width(variant_groups(variant))
            assert m.param_count == param_count(3, 2, c_in)

    def test_unshared_stages_multiply_count(self, tiny_fan):
        shared = tiny_model(tiny_fan, n_stages=3)
        solo = tiny_model(tiny_fan, n_stages=3, share_stage_params=False)
        assert solo.param_count == 3 * shared.param_count
        names = solo.named_parameters()
        assert any(k.startswith("p2.") for k in names)
        assert all(k.startswith(("p0.", "p1.", "p2.")) for k in names)

    def test_named_parameters_share_storage(self, tiny_fan):
        m = tiny_model(tiny_fan)
        flat = m.named_parameters()
        key = next(iter(flat))
        flat[key][...] = 0.0
        assert not m.param_sets[0][key.split(".", 1)[1]].any()

    def test_seed_determinism(self, tiny_fan):
        a = tiny_model(tiny_fan, seed=4)
        b = tiny_model(tiny_fan, seed=4)
        c = tiny_model(tiny_fan, seed=5)
        fa, fb, fc = a.named_parameters(), b.named_parameters(), c.named_parameters()
        assert all(np.array_equal(fa[k], fb[k]) for k in fa)
        assert any(not np.array_equal(fa[k], fc[k]) for k in fa)

    def test_bad_configs_rejected(self, tiny_fan):
        with pytest.raises(ValueError):
            ReconNet(tiny_fan, n_stages=0)
        with pytest.raises(ValueError):
            ReconNet(tiny_fan, variant="q")

    @pytest.mark.parametrize("field", ["width", "depth", "n_stages"])
    @pytest.mark.parametrize("value", [2.5, True, np.float64(2.0), "2"],
                             ids=["float", "bool", "numpy-float", "str"])
    def test_non_integer_count_rejected_before_any_work(self, tiny_fan, field, value,
                                                        monkeypatch):
        """n_stages=2.5 once built a model whose forward failed in range(),
        and n_stages=True a one-stage model."""
        monkeypatch.setattr(model_module, "init_params", no_work)
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            tiny_model(tiny_fan, **{field: value})

    def test_numpy_integer_counts_build_the_int_model(self, tiny_fan):
        y, _ = measure(tiny_fan, 5)
        m = tiny_model(tiny_fan, width=np.int64(2), depth=np.int32(1), n_stages=np.uint8(2))
        assert m.forward(y).data.tobytes() == tiny_model(tiny_fan).forward(y).data.tobytes()


class TestViewRegistry:
    def test_count_and_subset_registration_agree(self, tiny_fan):
        m = tiny_model(tiny_fan)
        b1 = m.register_views(5)
        b2 = m.register_views(5)
        assert b1 is b2
        b3 = m.register_views(sparse_subset(tiny_fan, 5))
        assert b3 is b1

    def test_numpy_integer_count_registers_as_the_int(self, tiny_fan):
        """np.int64(5) once raised AttributeError: it was taken for a subset."""
        m = tiny_model(tiny_fan)
        assert m.register_views(np.int64(5)) is m.register_views(5)
        assert registered_view_counts(m) == (5,)

    @pytest.mark.parametrize("count", [5.0, np.float64(5.0), True, "5", None],
                             ids=["float", "numpy-float", "bool", "str", "none"])
    def test_neither_count_nor_subset_rejected(self, tiny_fan, count):
        m = tiny_model(tiny_fan)
        with pytest.raises(GeometryError, match="expected a view count or a ViewSubset"):
            m.register_views(count)
        assert registered_view_counts(m) == ()

    def test_conflicting_indices_same_count_rejected(self, tiny_fan):
        m = tiny_model(tiny_fan)
        m.register_views(5)
        shifted = ViewSubset(sparse_subset(tiny_fan, 5).indices + 1)
        with pytest.raises(GeometryError):
            m.register_views(shifted)

    def test_out_of_range_subset_rejected(self, tiny_fan):
        m = tiny_model(tiny_fan)
        with pytest.raises(GeometryError):
            m.register_views(ViewSubset(np.array([0, 99])))

    def test_registered_counts_sorted(self, tiny_fan):
        m = tiny_model(tiny_fan)
        m.register_views(5)
        m.register_views(2)
        assert registered_view_counts(m) == (2, 5)

    def test_forward_registers_measurement_subset(self, tiny_fan):
        m = tiny_model(tiny_fan)
        y, _ = measure(tiny_fan, 5)
        m.forward(y)
        assert registered_view_counts(m) == (5,)


class TestForward:
    def test_output_is_finite_image_on_grid(self, tiny_fan):
        m = tiny_model(tiny_fan)
        y, _ = measure(tiny_fan, 5)
        out = m.forward(y)
        assert out.data.shape == tiny_fan.grid
        assert np.isfinite(out.data).all()

    def test_forward_is_deterministic(self, tiny_fan):
        m = tiny_model(tiny_fan)
        y, _ = measure(tiny_fan, 5)
        assert np.array_equal(m.forward(y).data, m.forward(y).data)

    def test_wrong_geometry_rejected(self, tiny_fan):
        m = tiny_model(tiny_fan)
        other = make_geometry(
            "fan", n_views=10, n_det=13, det_spacing=2.2,
            grid=(8, 8), pixel_size=1.0, src_dist=26.0, det_dist=25.0,
        )
        y, _ = measure(other, 5)
        with pytest.raises(GeometryError):
            m.forward(y)

    def test_variant_a_uses_only_previous_image(self, tiny_fan):
        # 1-channel stack: output depends on y only through the fbp init
        m = tiny_model(tiny_fan, variant="a")
        y, _ = measure(tiny_fan, 5)
        out = m.forward(y)
        assert out.data.shape == tiny_fan.grid

    @pytest.mark.parametrize("variant, calls", [("a", 1), ("g", 8)])
    def test_context_makes_only_the_operator_calls_its_groups_read(
        self, tiny_fan, monkeypatch, variant, calls
    ):
        m = tiny_model(tiny_fan, variant=variant)
        y, _ = measure(tiny_fan, 5)
        m.register_views(y.subset)
        made = []
        for cls in (JosephProjector, FbpOperator, ViewUpsampler):
            def counted(self, arr, _apply=cls.apply):
                made.append(type(self).__name__)
                return _apply(self, arr)
            monkeypatch.setattr(cls, "apply", counted)
        ctx = m._context(y)
        assert len(made) == calls
        unused = (ctx.x_interp, ctx.e_full_r, ctx.e_null_r)
        assert all((v is None) == (variant == "a") for v in unused)


class TestOneStageLoop:
    @pytest.mark.parametrize("share", [True, False])
    def test_forward_graph_output_equals_forward_bitwise(self, tiny_fan, share):
        m = tiny_model(tiny_fan, n_stages=3, share_stage_params=share)
        y, _ = measure(tiny_fan, 5)
        node, _, _ = m.forward_graph(y, Tape())
        assert np.array_equal(node.value, m.forward(y).data)


class TestNoReferenceCycles:
    """A finished pass is freed by reference counting alone."""

    def test_forward_and_pnp_leave_no_cycles(self):
        model = toy_model()
        y, _ = toy_scan(model)
        assert unreachable_after(lambda: model.forward(y)) == 0
        assert unreachable_after(lambda: model.run_pnp(y, max_iters=4)) == 0

    def test_training_step_leaves_no_cycles(self):
        model = toy_model()
        y, x = toy_scan(model)
        assert unreachable_after(lambda: train_step(model, y, x)) == 0


class TestPnp:
    def test_first_iterates_reproduce_forward_bitwise(self, tiny_fan):
        m = tiny_model(tiny_fan, n_stages=3)
        y, _ = measure(tiny_fan, 5)
        ref = m.forward(y).data
        traj = m.run_pnp(y, max_iters=3)
        assert np.array_equal(traj.images[-1], ref)
        assert len(traj.images) == 4

    def test_trajectory_starts_at_fbp_initialization(self, tiny_fan):
        m = tiny_model(tiny_fan)
        y, _ = measure(tiny_fan, 5)
        bundle = m.register_views(5)
        traj = m.run_pnp(y, max_iters=1)
        assert np.array_equal(traj.images[0], bundle.fbp_s.apply(y.data))

    def test_metric_recorded_for_every_iterate(self, tiny_fan):
        m = tiny_model(tiny_fan)
        y, _ = measure(tiny_fan, 5)
        traj = m.run_pnp(y, max_iters=4, metric=lambda im: float(im.sum()))
        assert traj.metrics is not None
        assert len(traj.metrics) == len(traj.images) == 5
        assert traj.metrics[0] == pytest.approx(float(traj.images[0].sum()))

    def test_negative_iteration_count_rejected(self, tiny_fan):
        y, _ = measure(tiny_fan, 5)
        with pytest.raises(ValueError, match="max_iters"):
            tiny_model(tiny_fan).run_pnp(y, max_iters=-3)

    @pytest.mark.parametrize("max_iters", [2.5, True, np.float64(2.0), "2"],
                             ids=["float", "bool", "numpy-float", "str"])
    def test_non_integer_iteration_count_rejected_before_any_work(self, tiny_fan, max_iters,
                                                                  monkeypatch):
        """max_iters=True once ran one stage."""
        y, _ = measure(tiny_fan, 5)
        m = tiny_model(tiny_fan)
        monkeypatch.setattr(ReconNet, "_context", no_work)
        with pytest.raises(ValueError, match="max_iters must be an integer"):
            m.run_pnp(y, max_iters)

    def test_numpy_integer_iteration_count_accepted(self, tiny_fan):
        y, _ = measure(tiny_fan, 5)
        m = tiny_model(tiny_fan)
        got = m.run_pnp(y, np.int64(3)).images
        want = m.run_pnp(y, 3).images
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def test_unshared_stages_hold_last_params_past_depth(self, tiny_fan):
        m = tiny_model(tiny_fan, n_stages=2, share_stage_params=False)
        y, _ = measure(tiny_fan, 5)
        traj = m.run_pnp(y, max_iters=4)
        assert len(traj.images) == 5
        assert all(np.isfinite(im).all() for im in traj.images)


class TestGeometryRebinding:
    def test_twin_preserves_weights_and_output(self, tiny_fan):
        m = tiny_model(tiny_fan)
        twin = m.with_geometry(tiny_fan)
        fa, fb = m.named_parameters(), twin.named_parameters()
        assert set(fa) == set(fb)
        for k in fa:
            assert np.array_equal(fa[k], fb[k])
            assert fa[k] is not fb[k]  # copied, not aliased
        y, _ = measure(tiny_fan, 5)
        assert np.array_equal(m.forward(y).data, twin.forward(y).data)

    def test_twin_runs_on_modified_layout(self, tiny_fan):
        m = tiny_model(tiny_fan)
        moved = make_geometry(
            "fan", n_views=10, n_det=13, det_spacing=2.2,
            grid=(8, 8), pixel_size=1.0, src_dist=25.25, det_dist=24.75,
        )
        twin = m.with_geometry(moved)
        y, _ = measure(moved, 5)
        out = twin.forward(y)
        assert np.isfinite(out.data).all()

    def test_compatibility_predicate(self, tiny_fan, tiny_parallel):
        twin = make_geometry("fan", n_views=10, n_det=13, det_spacing=2.2,
                             grid=(8, 8), pixel_size=1.0, src_dist=25.0, det_dist=25.0)
        assert twin.fingerprint == tiny_fan.fingerprint
        assert tiny_parallel.fingerprint != tiny_fan.fingerprint
        # the perturbed-geometry experiment's layout, moved in det_dist only:
        # no fingerprint match, so no shared tables and no model fit
        moved = replace(tiny_fan, det_dist=perturb_geometry(tiny_fan, 0.01, seed=0).det_dist)
        assert moved.src_dist == tiny_fan.src_dist and moved.det_dist != tiny_fan.det_dist
        assert moved.fingerprint != tiny_fan.fingerprint
        x = RNG.random(tiny_fan.grid)
        a, b = JosephProjector(tiny_fan).apply(x), JosephProjector(moved).apply(x)
        assert not np.array_equal(a, b)
        assert {key[1] for key in _STORE.entries} == {tiny_fan.fingerprint, moved.fingerprint}
        y, _ = measure(moved, 5)
        with pytest.raises(GeometryError, match="does not match"):
            tiny_model(tiny_fan).forward(y)
