"""Properties every operator on the projector's tap-table core shares: one
subset check, no reference cycles, the cache admission rule, outputs that do
not depend on it, one process-wide table store, and a gather whose transpose
is the scatter."""

import gc
import sys
import threading

import numpy as np
import pytest

from sparsect import fbp as fbp_module
from sparsect import projector as projector_module
from sparsect.experiments import toy_geometry
from sparsect.fbp import FbpOperator, PixelBackprojector, ViewUpsampler
from sparsect.geometry import ViewSubset, geometry_preset, make_geometry, sparse_subset
from sparsect.projector import (
    _CACHE_LIMIT_BYTES,
    _STORE,
    JosephProjector,
    _gather,
    _image_pad,
    _ray_tables,
    _scatter,
    _Store,
    _transposed,
    _turned,
    _unturned,
)

from conftest import fista_tv_geometry, recon_mid_geometry
from test_gather_tables import representatives, wide_fan

OPERATORS = [JosephProjector, PixelBackprojector, FbpOperator, ViewUpsampler]


@pytest.mark.parametrize("cls", OPERATORS, ids=lambda c: c.__name__)
def test_subset_past_the_full_view_count_raises_value_error(cls, small_fan):
    bad = ViewSubset(np.array([0, 5, 12]), 3)
    with pytest.raises(ValueError, match="full view count"):
        cls(small_fan, bad)


def stored_views(op):
    """Full-view indices whose tables the store keeps for op's builder and geometry."""
    core = op._core
    return [key[2] for key in _STORE.entries
            if key[0] is core._build and key[1] == core.geom.fingerprint]


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
    """Tables are kept when 1.1 times the subset's orbit representatives
    times the measured bytes of the first one's table fit
    `_CACHE_LIMIT_BYTES`."""

    @pytest.mark.parametrize("cls", [JosephProjector, PixelBackprojector])
    def test_recon_mid_sparse_subset_keeps_its_representatives(self, cls):
        op = cls(recon_mid_geometry(), sparse_subset(recon_mid_geometry(), 32))
        op.apply(np.ones(op.in_shape))
        reps = [rep for rep, _, _ in op._core.orbits]
        assert len(reps) == 5
        assert sorted(stored_views(op)) == reps

    @pytest.mark.parametrize("cls", [JosephProjector, PixelBackprojector])
    def test_recon_mid_full_view_set_keeps_33_tables(self, cls):
        op = cls(recon_mid_geometry())
        op.apply(np.ones(op.in_shape))
        reps = [rep for rep, _, _ in op._core.orbits]
        assert len(reps) == 33
        assert sorted(stored_views(op)) == reps

    @pytest.mark.parametrize("cls", [JosephProjector, PixelBackprojector])
    def test_fista_tv_subset_is_cached(self, cls):
        geom = fista_tv_geometry()
        assert cls(geom, sparse_subset(geom, 45))._core.admitted

    @pytest.mark.parametrize("cls", [JosephProjector, PixelBackprojector])
    @pytest.mark.parametrize("q", [15, 30, 60])
    def test_toy_subsets_are_cached(self, cls, q):
        geom = toy_geometry()
        assert cls(geom, sparse_subset(geom, q))._core.admitted

    @pytest.mark.parametrize("make, q, admitted", [
        (toy_geometry, 15, (True, True)),
        (toy_geometry, 30, (True, True)),
        (toy_geometry, None, (True, True)),
        (recon_mid_geometry, 32, (True, True)),
        (recon_mid_geometry, None, (True, True)),
        (fista_tv_geometry, 45, (True, True)),
        (lambda: make_geometry("parallel", n_views=360, n_det=367, det_spacing=1.0,
                               grid=(256, 256), pixel_size=1.0), 45, (False, True)),
        (lambda: geometry_preset("fan-1024"), 64, (False, True)),
        (lambda: geometry_preset("fan-1024"), None, (False, False)),
    ], ids=["toy-q15", "toy-q30", "toy-full", "recon-mid-q32", "recon-mid-full",
            "fista-tv-q45", "parallel-256-q45", "fan-1024-q64", "fan-1024-full"])
    def test_admission_decisions(self, make, q, admitted):
        """(projector, backprojector) admission at the benchmark's scans, at
        a 256x256 parallel scan and at the paper's."""
        geom = make()
        sub = None if q is None else sparse_subset(geom, q)
        assert (JosephProjector(geom, sub)._core.admitted,
                PixelBackprojector(geom, sub)._core.admitted) == admitted


@pytest.mark.parametrize("make, q", [
    (toy_geometry, 15), (toy_geometry, None), (recon_mid_geometry, 32), (fista_tv_geometry, 45),
], ids=["toy-q15", "toy-full", "recon-mid-q32", "fista-tv-q45"])
def test_admission_changes_no_output_but_the_projector_transpose(make, q, monkeypatch):
    """Kept and rebuilt tables give byte-identical outputs; only the
    projector's transpose sums in another order where it scatters."""
    geom = make()
    sub = None if q is None else sparse_subset(geom, q)
    rng = np.random.default_rng(24)
    x = rng.standard_normal(geom.grid)
    y = rng.standard_normal((JosephProjector(geom, sub).subset.q1, geom.n_det))

    def outputs(admitted):
        _STORE.clear()
        proj, bp = JosephProjector(geom, sub), PixelBackprojector(geom, sub)
        op = FbpOperator(geom, sub)
        assert proj._core.admitted == bp._core.admitted == admitted
        return ([proj.apply(x), bp.apply(y), bp.applyT(x), op.apply(y), op.applyT(x)],
                proj.applyT(y))

    kept, kept_t = outputs(True)
    monkeypatch.setattr(projector_module, "_CACHE_LIMIT_BYTES", 0)
    rebuilt, rebuilt_t = outputs(False)
    assert [a.tobytes() for a in kept] == [b.tobytes() for b in rebuilt]
    assert np.abs(kept_t - rebuilt_t).max() <= 1e-12 * np.abs(rebuilt_t).max()


def tap_table(kind):
    """(table, source size, output size) of one table of each kind the core runs."""
    geom = {"joseph-slice-cells": toy_geometry, "wide-fan-index-cells": wide_fan}.get(
        kind, recon_mid_geometry)()
    m, pad = geom.grid[0] * geom.grid[1], _image_pad(geom.grid)
    if kind == "backprojector":
        return fbp_module._pixel_table(geom, 5), geom.n_det + 2, m
    if kind == "transpose-k3":
        table = next(t for t in (_transposed(_ray_tables(geom, v), m, geom.n_det, pad)
                                 for v in representatives(geom)) if len(t[0]) - 3 == 3)
        return table, geom.n_det + 2, m
    slice_cells = kind == "joseph-slice-cells"
    table = next(t for t in (_ray_tables(geom, v) for v in representatives(geom))
                 if all(isinstance(group[0], slice) for group in t) == slice_cells)
    return table, m + 2 * pad, geom.n_det


@pytest.mark.parametrize("kind", ["joseph-slice-cells", "wide-fan-index-cells", "backprojector",
                                  "transpose-k3"])
def test_scatter_is_the_transpose_of_gather(kind):
    table, n_src, n_out = tap_table(kind)
    rng = np.random.default_rng(25)
    s, v = rng.standard_normal(n_src), rng.standard_normal(n_out)
    gathered, scattered = np.zeros(n_out), np.zeros(n_src)
    _gather(s, table, gathered)
    _scatter(v, table, scattered)
    lhs, rhs = float(gathered @ v), float(s @ scattered)
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


class TestTableStore:
    """One process-wide store keeps the admitted tables of every operator,
    keyed by builder, geometry fingerprint and representative view."""

    @pytest.mark.parametrize("cls, q", [(JosephProjector, 64), (PixelBackprojector, None)],
                             ids=["JosephProjector-q64", "PixelBackprojector-full"])
    def test_unadmitted_core_stores_only_its_measured_size(self, cls, q):
        geom = geometry_preset("fan-1024")
        op = cls(geom, None if q is None else sparse_subset(geom, q))
        assert not op._core.admitted
        assert stored_views(op) == []
        assert [type(value) for value, _ in _STORE.entries.values()] == [int]

    def test_equal_unadmitted_projector_builds_and_derives_nothing(self, monkeypatch):
        calls = []

        def counted(fn):
            def wrapped(*args):
                calls.append(fn.__name__)
                return fn(*args)
            return wrapped

        for name in ("_ray_tables", "_transposed"):
            monkeypatch.setattr(projector_module, name, counted(getattr(projector_module, name)))
        geom = geometry_preset("fan-1024")
        assert not JosephProjector(geom, sparse_subset(geom, 64))._core.admitted
        assert calls == ["_ray_tables", "_transposed"]
        calls.clear()
        twin = geometry_preset("fan-1024")
        assert not JosephProjector(twin, sparse_subset(twin, 64))._core.admitted
        assert calls == []

    @pytest.mark.parametrize("cls, module, builder", [
        (JosephProjector, projector_module, "_joseph_tables"),
        (PixelBackprojector, fbp_module, "_pixel_taps"),
    ], ids=["JosephProjector", "PixelBackprojector"])
    def test_operators_over_equal_geometries_share_tables(self, cls, module, builder,
                                                          monkeypatch):
        original = getattr(module, builder)
        built = []

        def counted(*args):
            built.append(1)
            return original(*args)

        monkeypatch.setattr(module, builder, counted)
        # two geometries built apart from equal fields
        first = cls(fista_tv_geometry(), sparse_subset(fista_tv_geometry(), 45))
        second = cls(fista_tv_geometry(), sparse_subset(fista_tv_geometry(), 45))
        x = np.random.default_rng(3).standard_normal(first.in_shape)
        out = first.apply(x)
        assert len(built) == len(first._core.orbits)
        assert second.apply(x).tobytes() == out.tobytes()
        assert len(built) == len(first._core.orbits)

    def test_cycling_subsets_past_the_budget_stays_within_it(self):
        # A non-square grid gives every view its own table: four disjoint
        # 30-view subsets are admitted one by one, but hold about 90 MB of
        # tables, trimmed to the rays that cross the grid.
        geom = make_geometry("parallel", n_views=120, n_det=229, det_spacing=1.0,
                             grid=(160, 159), pixel_size=1.0)
        subsets = [ViewSubset(np.arange(k, 120, 4), 30) for k in range(4)]
        x = np.ones(geom.grid)
        for _ in range(2):
            for sub in subsets:
                proj = JosephProjector(geom, sub)
                assert proj._core.admitted
                out = proj.apply(x)
                sizes = [size for _, size in _STORE.entries.values()]
                assert _STORE.nbytes == sum(sizes) <= _CACHE_LIMIT_BYTES
        # the store also keeps each geometry's measured first-table size, an int
        tables = [size for key, (_, size) in _STORE.entries.items()
                  if key[0] is proj._core._build]
        assert 120 * min(tables) > _CACHE_LIMIT_BYTES
        assert len(tables) < 120
        assert JosephProjector(geom, subsets[-1]).apply(x).tobytes() == out.tobytes()

    def test_threads_sharing_a_store_keep_its_byte_count(self):
        store = _Store(limit=4096)
        switch = sys.getswitchinterval()

        def worker(seed):
            rng = np.random.default_rng(seed)
            for key in rng.integers(64, size=2000):
                store.get((int(key),), lambda: np.zeros(int(key) % 16 + 1))

        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        sizes = [size for _, size in store.entries.values()]
        assert store.nbytes == sum(sizes) <= store.limit


class TestTurns:
    """`_turned` and `_unturned` are np.rot90 (then a transpose for codes
    4-7) and its inverse, as slice views of their argument."""

    @pytest.mark.parametrize("shape", [(5, 5), (4, 7)], ids=["square", "non-square"])
    @pytest.mark.parametrize("code", range(8))
    def test_match_rot90_and_return_views(self, shape, code):
        x = np.arange(float(np.prod(shape))).reshape(shape)
        want = np.rot90(x, code % 4)
        want = want.T if code >= 4 else want
        turned = _turned(x, code)
        assert np.array_equal(turned, want)
        assert np.shares_memory(turned, x)
        z = np.arange(float(want.size)).reshape(want.shape)
        unturned = _unturned(z, code)
        assert np.array_equal(unturned, np.rot90(z.T if code >= 4 else z, -(code % 4)))
        assert np.shares_memory(unturned, z)
        assert np.array_equal(_unturned(turned, code), x)
