"""Properties every operator on the projector's tap-table core shares: one
subset check, no reference cycles, the cache admission rule, one
process-wide table store, gathers through each table's transpose that are
its adjoint, and outputs that no setting of the core changes: kept or
rebuilt tables, orbit loops split into two threads, or fused into one step
per turn code or orbit on small grids, give the same bytes."""

import gc
import multiprocessing
import sys
import threading
import warnings
import weakref
from collections import Counter

import numpy as np
import pytest

from sparsect import fbp as fbp_module
from sparsect import projector as projector_module
from sparsect.experiments import ToySpec, toy_geometry, toy_model, toy_phantoms
from sparsect.fbp import FbpOperator, PixelBackprojector, ViewUpsampler
from sparsect.geometry import ViewSubset, geometry_preset, make_geometry, sparse_subset
from sparsect.projector import (
    _CACHE_LIMIT_BYTES,
    _STORE,
    JosephProjector,
    _gather,
    _gather_runs,
    _image_pad,
    _ray_tables,
    _ray_transpose,
    _runs_by_cell,
    _Store,
    _turned,
    _unturned,
)
from sparsect.training import TrainConfig, train_loop

from conftest import fista_tv_geometry, recon_mid_geometry
from test_gather_tables import representatives, wide_fan

OPERATORS = [JosephProjector, PixelBackprojector, FbpOperator, ViewUpsampler]


@pytest.mark.parametrize("cls", OPERATORS, ids=lambda c: c.__name__)
def test_subset_past_the_full_view_count_raises_value_error(cls, small_fan):
    bad = ViewSubset(np.array([0, 5, 12]))
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


def tap_table(kind):
    """(geometry, table) of one table of each kind the core runs."""
    geom = {"joseph-slice-cells": toy_geometry, "wide-fan-index-cells": wide_fan}.get(
        kind, recon_mid_geometry)()
    if kind == "backprojector":
        return geom, fbp_module._pixel_table(geom, 5)
    if kind == "transpose-k3":
        return geom, next(t for t in (_ray_transpose(geom, _ray_tables(geom, v))
                                      for v in representatives(geom)) if len(t[0]) - 3 == 3)
    slice_cells = kind == "joseph-slice-cells"
    return geom, next(t for t in (_ray_tables(geom, v) for v in representatives(geom))
                      if all(isinstance(group[0], slice) for group in t) == slice_cells)


@pytest.mark.parametrize("kind", ["joseph-slice-cells", "wide-fan-index-cells", "backprojector",
                                  "transpose-k3"])
def test_transposed_gather_is_the_adjoint_of_gather(kind):
    """Each table's transpose gathers too: a projector table through
    `_ray_transpose`, a table in pixel form (cells `...`) through the cell
    runs of `_runs_by_cell`. Each reads a source with zeros at each end."""
    geom, table = tap_table(kind)
    m, pad, n = geom.grid[0] * geom.grid[1], _image_pad(geom.grid), geom.n_det
    rng = np.random.default_rng(25)
    image, row = np.zeros(m + 2 * pad), np.zeros(n + 2)
    image[pad:-pad], row[1:-1] = rng.standard_normal(m), rng.standard_normal(n)
    to_rows, to_image = np.zeros(n), np.zeros(m)
    if table[0][0] is ...:
        _gather(row, table, to_image)
        _gather_runs(image, _runs_by_cell(geom, table), to_rows)
    else:
        _gather(image, table, to_rows)
        _gather(row, _ray_transpose(geom, table), to_image)
    lhs, rhs = float(to_rows @ row[1:-1]), float(image[pad:-pad] @ to_image)
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

        for name in ("_ray_tables", "_ray_transpose"):
            monkeypatch.setattr(projector_module, name, counted(getattr(projector_module, name)))
        geom = geometry_preset("fan-1024")
        assert not JosephProjector(geom, sparse_subset(geom, 64))._core.admitted
        assert calls == ["_ray_tables", "_ray_transpose"]
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
        subsets = [ViewSubset(np.arange(k, 120, 4)) for k in range(4)]
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


def nonsquare_fan():
    """A fan scan on a 40x33 grid: every view is its own orbit, with code 0."""
    return make_geometry("fan", n_views=40, n_det=81, det_spacing=1.5, grid=(40, 33),
                         pixel_size=1.0, src_dist=80.0, det_dist=60.0)


def split_flags(op):
    """(image -> rows splits, rows -> image splits) of op's core."""
    core = op._bp._core if isinstance(op, FbpOperator) else op._core
    return core._split_rows, core._split_image


@pytest.fixture
def two_workers(monkeypatch):
    """Split calls run on a pool worker whatever the runner's core count."""
    monkeypatch.setattr(projector_module, "_WORKERS", 2)


SPLIT_CASES = {
    "toy-q15": (toy_geometry, 15),
    "recon-mid-q32": (recon_mid_geometry, 32),
    "recon-mid-full": (recon_mid_geometry, None),
    "fista-tv-q45": (fista_tv_geometry, 45),
    "nonsquare-fan-q10": (nonsquare_fan, 10),
}


@pytest.mark.parametrize("limit", ["default", 0])
@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
def test_split_and_serial_loops_give_identical_bytes(case, limit, two_workers, monkeypatch):
    """Every operator's apply and applyT, with the split constant at 0 (split
    wherever the loop gathers and both parts have members) and above every
    grid (never split), on inputs with negative values."""
    if limit == 0:
        monkeypatch.setattr(projector_module, "_CACHE_LIMIT_BYTES", 0)
    make, q = SPLIT_CASES[case]
    geom = make()
    sub = None if q is None else sparse_subset(geom, q)
    rng = np.random.default_rng(26)
    x = rng.standard_normal(geom.grid)
    y = rng.standard_normal((JosephProjector(geom, sub).subset.q1, geom.n_det))

    def outputs(split_pixels):
        monkeypatch.setattr(projector_module, "_SPLIT_PIXELS", split_pixels)
        _STORE.clear()
        ops = [JosephProjector(geom, sub), PixelBackprojector(geom, sub), FbpOperator(geom, sub)]
        flags = [split_flags(op) for op in ops]
        got = []
        for op in ops:
            image_in = isinstance(op, JosephProjector)
            got += [op.apply(x if image_in else y), op.applyT(y if image_in else x)]
        return [a.tobytes() for a in got], flags

    split, split_flags_on = outputs(0)
    serial, serial_flags = outputs(10**12)
    assert split == serial
    assert not any(any(f) for f in serial_flags)
    proj, bp, _ = split_flags_on
    assert proj[0]  # the projector's apply splits its orbits
    assert bp[0]  # so does the backprojector's applyT
    # rows -> image splits the turn codes: one code gives one empty part
    assert bp[1] == (geom.grid[0] == geom.grid[1])


SETTING_CASES = {
    "toy-q15": (toy_geometry, 15),
    "toy-full": (toy_geometry, None),
    "recon-mid-q32": (recon_mid_geometry, 32),
    "fista-tv-q45": (fista_tv_geometry, 45),
    "nonsquare-fan-q10": (nonsquare_fan, 10),
}


@pytest.mark.parametrize("case", sorted(SETTING_CASES))
def test_no_setting_changes_an_operator_output(case, two_workers, monkeypatch):
    """apply and applyT of the projector, the backprojector and FbpOperator
    give the same bytes with the store's budget at 0 (every table rebuilt
    per call), the default and 4 GiB, the split constant at 0 and above
    every grid, and the fusion limit at 0 and the default."""
    make, q = SETTING_CASES[case]
    geom = make()
    sub = None if q is None else sparse_subset(geom, q)
    rng = np.random.default_rng(24)
    x = rng.standard_normal(geom.grid)
    y = rng.standard_normal((JosephProjector(geom, sub).subset.q1, geom.n_det))
    defaults = {name: getattr(projector_module, name)
                for name in ("_CACHE_LIMIT_BYTES", "_SPLIT_PIXELS", "_FUSE_BYTES")}
    outputs = {}
    for limit in (0, defaults["_CACHE_LIMIT_BYTES"], 2**32):
        for split_pixels in (0, 10**12):
            for fuse_bytes in (0, defaults["_FUSE_BYTES"]):
                for name, value in zip(defaults, (limit, split_pixels, fuse_bytes)):
                    monkeypatch.setattr(projector_module, name, value)
                _STORE.clear()
                ops = [JosephProjector(geom, sub), PixelBackprojector(geom, sub),
                       FbpOperator(geom, sub)]
                assert all(core.admitted == (limit > 0)
                           for core in (ops[0]._core, ops[1]._core, ops[2]._bp._core))
                got = []
                for op in ops:
                    image_in = isinstance(op, JosephProjector)
                    got += [op.apply(x if image_in else y), op.applyT(y if image_in else x)]
                outputs[limit, split_pixels, fuse_bytes] = [a.tobytes() for a in got]
    first = next(iter(outputs.values()))
    assert all(got == first for got in outputs.values())


@pytest.mark.parametrize("limit", ["default", 0])
@pytest.mark.parametrize("cls", [JosephProjector, PixelBackprojector, FbpOperator],
                         ids=lambda c: c.__name__)
def test_dropped_operator_after_split_calls_is_freed_at_once(cls, limit, two_workers,
                                                             monkeypatch):
    """No pool task keeps the operator or its core alive, and no cycle forms,
    so both go as soon as the last reference does, with kept tables or
    rebuilt ones."""
    if limit == 0:
        monkeypatch.setattr(projector_module, "_CACHE_LIMIT_BYTES", 0)
    geom = fista_tv_geometry()
    sub = sparse_subset(geom, 45)
    refs = []

    def build_apply_drop():
        op = cls(geom, sub)
        core = op._bp._core if cls is FbpOperator else op._core
        assert any(split_flags(op))
        refs.extend([weakref.ref(op), weakref.ref(core)])
        rng = np.random.default_rng(27)
        op.apply(rng.standard_normal(op.in_shape))
        op.applyT(rng.standard_normal(op.out_shape))
        del op, core
        assert [ref() for ref in refs] == [None, None]

    assert unreachable_after(build_apply_drop) == 0


def assert_concurrent_calls_match(calls, want):
    """Four threads run `calls` at once, each in its own random order, with
    a short switch interval; all finish, and each call gives `want`'s bytes."""
    results, errors = [], []

    def worker(seed):
        order = np.random.default_rng(seed).permutation(len(calls) * 5) % len(calls)
        try:
            results.extend((int(i), calls[i]().tobytes()) for i in order)
        except Exception as e:  # reported below, not swallowed by the thread
            errors.append(e)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(results) == 4 * 5 * len(calls)
    assert all(got == want[i] for i, got in results)


def test_concurrent_split_calls_match_a_serial_run(two_workers, monkeypatch):
    """Four threads run split calls at once; all finish, and each gets the
    bytes of a serial run."""
    geom = recon_mid_geometry()
    sub = sparse_subset(geom, 32)
    rng = np.random.default_rng(28)
    x = rng.standard_normal(geom.grid)
    y = rng.standard_normal((sub.q1, geom.n_det))

    def calls():
        proj, op = JosephProjector(geom, sub), FbpOperator(geom, sub)
        return [lambda: proj.apply(x), lambda: proj.applyT(y),
                lambda: op.apply(y), lambda: op.applyT(x)], (proj, op)

    monkeypatch.setattr(projector_module, "_SPLIT_PIXELS", 10**12)
    serial_calls, _ = calls()
    want = [f().tobytes() for f in serial_calls]
    monkeypatch.setattr(projector_module, "_SPLIT_PIXELS", 0)
    split_calls, ops = calls()
    assert all(any(split_flags(op)) for op in ops)
    assert_concurrent_calls_match(split_calls, want)


def test_concurrent_fused_calls_match_member_loops(monkeypatch):
    """Four threads run fused calls at once on cores that have not yet built
    their fused tables or views map; each gets the member loops' bytes."""
    geom = toy_geometry()
    rng = np.random.default_rng(32)
    x = rng.standard_normal(geom.grid)
    subs = [sparse_subset(geom, 15), None]
    ys = [rng.standard_normal((15, geom.n_det)), rng.standard_normal((60, geom.n_det))]

    def calls():
        out = []
        for sub, y in zip(subs, ys):
            proj, op = JosephProjector(geom, sub), FbpOperator(geom, sub)
            out += [lambda p=proj: p.apply(x), lambda p=proj, y=y: p.applyT(y),
                    lambda o=op, y=y: o.apply(y), lambda o=op: o.applyT(x)]
        return out

    monkeypatch.setattr(projector_module, "_FUSE_BYTES", 0)
    want = [f().tobytes() for f in calls()]
    monkeypatch.undo()
    _STORE.clear()
    fused_calls = calls()
    assert JosephProjector(geom)._core.fused
    assert_concurrent_calls_match(fused_calls, want)


@pytest.mark.parametrize("q", [15, 30, None], ids=["q15", "q30", "full"])
def test_toy_cores_never_split(q, two_workers):
    geom = toy_geometry()
    sub = None if q is None else sparse_subset(geom, q)
    for op in (JosephProjector(geom, sub), PixelBackprojector(geom, sub), FbpOperator(geom, sub)):
        assert split_flags(op) == (False, False)


def test_toy_training_steps_never_reach_the_pool(two_workers, monkeypatch):
    def no_pool():
        raise AssertionError("a toy call split")

    monkeypatch.setattr(projector_module, "_pool", no_pool)
    model = toy_model(ToySpec(n_stages=2))
    result = train_loop(model, toy_phantoms(2, 0), TrainConfig(steps=2, view_schedule=(15, 30)))
    assert len(result.rows) == 2


def small_parallel_24():
    """A parallel scan on a 24x24 grid whose orbits start at a mirrored view:
    every subset's first turn code is 4, not 0."""
    return make_geometry("parallel", n_views=40, n_det=37, det_spacing=1.0, grid=(24, 24),
                         pixel_size=1.0)


FUSE_CASES = {
    "toy-q15": (toy_geometry, 15),
    "toy-q30": (toy_geometry, 30),
    "toy-full": (toy_geometry, None),
    "parallel-24-q10": (small_parallel_24, 10),
    "nonsquare-fan-q10": (nonsquare_fan, 10),
}


def fused_flags(op):
    core = op._bp._core if isinstance(op, FbpOperator) else op._core
    return core.fused


@pytest.mark.parametrize("case", sorted(FUSE_CASES))
def test_fused_and_member_loops_give_identical_bytes(case, monkeypatch):
    """Every operator's apply and applyT, with the fusion limit above every
    tested geometry's tables (fused) and at 0 (the member loops), on inputs
    with negative values, and on inputs of -0.0, whose sums are -0.0 until
    added into a zero."""
    make, q = FUSE_CASES[case]
    geom = make()
    sub = None if q is None else sparse_subset(geom, q)
    rng = np.random.default_rng(30)
    rows_shape = (JosephProjector(geom, sub).subset.q1, geom.n_det)
    inputs = [(rng.standard_normal(geom.grid), rng.standard_normal(rows_shape)),
              (np.full(geom.grid, -0.0), np.full(rows_shape, -0.0))]

    def outputs(fuse_bytes):
        monkeypatch.setattr(projector_module, "_FUSE_BYTES", fuse_bytes)
        _STORE.clear()
        ops = [JosephProjector(geom, sub), PixelBackprojector(geom, sub), FbpOperator(geom, sub)]
        got = []
        for x, y in inputs:
            for op in ops:
                image_in = isinstance(op, JosephProjector)
                got += [op.apply(x if image_in else y), op.applyT(y if image_in else x)]
        return [a.tobytes() for a in got], [fused_flags(op) for op in ops]

    fused, fused_on = outputs(2**40)
    loops, fused_off = outputs(0)
    assert fused_on == [True] * 3 and fused_off == [False] * 3
    assert fused == loops
    if case.startswith("parallel"):
        assert JosephProjector(geom, sub)._core._codes[0] != 0


@pytest.mark.parametrize("q", [15, 30, None], ids=["q15", "q30", "full"])
def test_toy_cores_fuse(q):
    geom = toy_geometry()
    sub = None if q is None else sparse_subset(geom, q)
    for op in (JosephProjector(geom, sub), PixelBackprojector(geom, sub), FbpOperator(geom, sub)):
        assert fused_flags(op)


@pytest.mark.parametrize("make, q", [
    (recon_mid_geometry, 32), (recon_mid_geometry, None), (fista_tv_geometry, 45),
], ids=["recon-mid-q32", "recon-mid-full", "fista-tv-q45"])
def test_benchmark_scale_cores_never_fuse(make, q):
    geom = make()
    sub = None if q is None else sparse_subset(geom, q)
    for op in (JosephProjector(geom, sub), PixelBackprojector(geom, sub), FbpOperator(geom, sub)):
        assert not fused_flags(op)


# `_STORE.nbytes` after one toy training step at each schedule subset, at
# the commit before fused cores (its kept tables and measures).
UNFUSED_TOY_STORE_BYTES = 414_912


def test_toy_steps_keep_the_fused_tables_within_two_mib_more():
    model = toy_model(ToySpec(n_stages=2))
    for q in (15, 30):
        result = train_loop(model, toy_phantoms(2, 0), TrainConfig(steps=1, view_schedule=(q,)))
        assert len(result.rows) == 1
    assert _STORE.nbytes <= UNFUSED_TOY_STORE_BYTES + 2 * 2**20
    assert _STORE.nbytes == sum(size for _, size in _STORE.entries.values())


def test_toy_steps_keep_the_fused_tables_within_half_a_mib_more():
    """The fused loops read the representatives' own tables: no table of
    per-member offsets is kept beside them."""
    model = toy_model(ToySpec(n_stages=2))
    for q in (15, 30):
        result = train_loop(model, toy_phantoms(2, 0), TrainConfig(steps=1, view_schedule=(q,)))
        assert len(result.rows) == 1
    assert _STORE.nbytes <= UNFUSED_TOY_STORE_BYTES + 2**19


def store_arrays(value):
    """The ndarrays of a store value, through nested lists and tuples."""
    if isinstance(value, (list, tuple)):
        return [a for v in value for a in store_arrays(v)]
    return [value] if isinstance(value, np.ndarray) else []


def test_toy_steps_keep_no_array_in_two_store_entries():
    """Each kept array is counted once: fused cores read the same
    per-representative entries as every other kept core, and no entry
    holds a list of arrays that another entry holds too."""
    model = toy_model(ToySpec(n_stages=2))
    for q in (15, 30):
        train_loop(model, toy_phantoms(2, 0), TrainConfig(steps=1, view_schedule=(q,)))
    holders = {}
    for key, (value, _) in _STORE.entries.items():
        for a in store_arrays(value):
            holders.setdefault(id(a), set()).add(key)
    assert len(holders) > 0
    assert [keys for keys in holders.values() if len(keys) > 1] == []


def memory_of(a):
    """The array whose memory `a` lives in: `a` itself, or its last base."""
    while a.base is not None:
        a = a.base
    return a


OWNER_CASES = {
    "toy-q15": (toy_geometry, 15),
    "toy-q30": (toy_geometry, 30),
    "toy-full": (toy_geometry, None),
    "recon-mid-q32": (recon_mid_geometry, 32),
    "recon-mid-full": (recon_mid_geometry, None),
}


@pytest.mark.parametrize("case", sorted(OWNER_CASES))
def test_operator_outputs_keep_no_more_memory_than_their_own(case):
    """apply and applyT of the projector, the backprojector and FbpOperator
    return an array that lives in memory of its own size: never a view of
    a larger block, such as one turn code's row of the accumulators, which
    would keep every code's accumulator alive with it."""
    make, q = OWNER_CASES[case]
    geom = make()
    sub = None if q is None else sparse_subset(geom, q)
    rng = np.random.default_rng(38)
    x = rng.standard_normal(geom.grid)
    y = rng.standard_normal((JosephProjector(geom, sub).subset.q1, geom.n_det))
    for op in (JosephProjector(geom, sub), PixelBackprojector(geom, sub), FbpOperator(geom, sub)):
        image_in = isinstance(op, JosephProjector)
        for out in (op.apply(x if image_in else y), op.applyT(y if image_in else x)):
            assert memory_of(out).nbytes == out.nbytes


def test_equal_operators_build_no_fused_table(monkeypatch):
    built = []

    def counted(fn):
        def wrapped(*args):
            built.append(fn.__name__)
            return fn(*args)
        return wrapped

    for name in ("_fused_rows_table", "_ray_transpose", "_runs_by_cell"):
        monkeypatch.setattr(projector_module, name, counted(getattr(projector_module, name)))
    rng = np.random.default_rng(31)
    x = rng.standard_normal(toy_geometry().grid)

    def run_all():
        outs = []
        for q in (15, 30, None):
            geom = toy_geometry()  # equal fields, a new object each time
            sub = None if q is None else sparse_subset(geom, q)
            proj, bp = JosephProjector(geom, sub), PixelBackprojector(geom, sub)
            y = proj.apply(x)
            outs += [y, proj.applyT(y), bp.apply(y), bp.applyT(x)]
        return [a.tobytes() for a in outs]

    first = run_all()
    # The toy subsets share one orbit set, so one fused table of each kind
    # serves all of them: the projector's side-by-side table, a transpose
    # per representative (and one to measure the first for admission) and
    # the backprojector's cell runs per representative.
    assert Counter(built) == {"_fused_rows_table": 1, "_ray_transpose": 9, "_runs_by_cell": 8}
    assert run_all() == first
    assert len(built) == 18


def test_fused_projector_builds_each_representative_table_once(monkeypatch):
    """The side-by-side table and the transposes of a fused projector core
    are made from one list of the representatives' tables."""
    built = []

    def counted(geom, view, original=projector_module._ray_tables):
        built.append(view)
        return original(geom, view)

    monkeypatch.setattr(projector_module, "_ray_tables", counted)
    geom = toy_geometry()
    proj = JosephProjector(geom, None)
    assert proj._core.fused and len(proj._core.orbits) == 8
    counts = [len(built)]
    y = proj.apply(np.random.default_rng(37).standard_normal(geom.grid))
    counts.append(len(built))
    proj.applyT(y)
    counts.append(len(built))
    # the admission measure builds and keeps the first representative's table
    assert counts == [1, 8, 8]
    assert sorted(built) == sorted(rep for rep, _, _ in proj._core.orbits)


def _send_apply(conn, proj, x):
    conn.send_bytes(proj.apply(x).tobytes())
    conn.close()


def test_forked_child_runs_split_calls(two_workers, monkeypatch):
    """A forked child has none of its parent's threads. The at-fork hook
    drops the pool there, so the child's split call starts a worker of its
    own and returns the parent's bytes; with the parent's pool it would wait
    forever for a worker that does not exist."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("this platform has no fork start method")
    monkeypatch.setattr(projector_module, "_SPLIT_PIXELS", 0)
    geom = make_geometry("parallel", n_views=32, n_det=93, det_spacing=1.0, grid=(64, 64),
                         pixel_size=1.0)
    proj = JosephProjector(geom, sparse_subset(geom, 16))
    assert split_flags(proj)[0]
    x = np.random.default_rng(34).standard_normal(geom.grid)
    want = proj.apply(x).tobytes()  # the parent's pool now has a live worker
    assert projector_module._POOL is not None
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_send_apply, args=(send, proj, x))
    with warnings.catch_warnings():
        # Python 3.12+ warns that forking a process with threads may
        # deadlock the child: that is the case under test.
        warnings.simplefilter("ignore", DeprecationWarning)
        child.start()
    send.close()
    try:
        assert recv.poll(60), "the child's split call did not return within 60 s"
        assert recv.recv_bytes() == want
        child.join(60)
        assert child.exitcode == 0
    finally:
        recv.close()
        if child.is_alive():
            child.kill()
            child.join()
