"""The stored layout of the projector's and backprojector's tables: one
index per tap, only the rays that cross the grid, and a transposed table
that makes the projector's transpose a gather. Several tests count what the
process-wide table store holds, so the file also runs alone."""

import numpy as np
import pytest

from sparsect import projector as projector_module
from sparsect.fista import fista_tv
from sparsect.geometry import Sinogram, make_geometry, sparse_subset
from sparsect.model import ReconNet
from sparsect.phantoms import shepp_logan
from sparsect.projector import (
    _CACHE_LIMIT_BYTES,
    _STORE,
    JosephProjector,
    _image_pad,
    _joseph_tables,
    _nbytes,
    _ray_tables,
    _transposed,
    _view_rays,
    view_orbits,
)

from conftest import MIRROR_CASES, fista_tv_geometry, mirror_case, recon_mid_geometry


def full_columns(geom, view):
    """(lin0, lin1, w0, w1) of `_joseph_tables` over every ray of `view`, as
    (n_steps, n_det) arrays."""
    rays = _view_rays(geom, float(geom.view_angles_full[view]))
    shape = (geom.grid[0], geom.n_det)
    cols = [np.zeros(shape, np.int64), np.zeros(shape, np.int64), np.zeros(shape), np.zeros(shape)]
    for ray_sel, *tables in _joseph_tables(*rays, *geom.grid, geom.pixel_size):
        for col, table in zip(cols, tables):
            col[:, ray_sel] = table
    return cols


def stored_columns(geom, view):
    """The stored table of `view` as (first tap, second tap, w0, w1,
    stored) over every ray, first taps unpadded."""
    shape = (geom.grid[0], geom.n_det)
    tap0, tap1 = np.zeros(shape, np.int64), np.zeros(shape, np.int64)
    w0s, w1s = np.zeros(shape), np.zeros(shape)
    stored = np.zeros(geom.n_det, dtype=bool)
    for cells, idx, stride, w0, w1 in _ray_tables(geom, view):
        assert not stored[cells].any()
        stored[cells] = True
        tap0[:, cells] = idx - _image_pad(geom.grid)
        tap1[:, cells] = tap0[:, cells] + stride
        w0s[:, cells], w1s[:, cells] = w0, w1
    return tap0, tap1, w0s, w1s, stored


def wide_fan():
    """A fan whose rays that meet the grid span more than a quarter turn, so
    one dominant axis holds the rays at both of its edges."""
    return make_geometry("fan", n_views=64, n_det=256, det_spacing=2.0, grid=(32, 32),
                         pixel_size=1.0, src_dist=24.0, det_dist=40.0)


def representatives(geom):
    return [rep for rep, _, _ in view_orbits(geom, np.arange(geom.n_views_full))]


@pytest.mark.parametrize("case", sorted(MIRROR_CASES) + ["wide-fan"])
def test_stored_joseph_columns_equal_joseph_tables_over_all_rays(case):
    geom = wide_fan() if case == "wide-fan" else mirror_case(case)[0]
    assert geom.grid[0] == geom.grid[1]
    for view in representatives(geom)[:12]:
        if case != "wide-fan":
            assert all(isinstance(group[0], slice) for group in _ray_tables(geom, view))
        lin0, lin1, w0, w1 = full_columns(geom, view)
        tap0, tap1, w0s, w1s, stored = stored_columns(geom, view)
        assert w0s.tobytes() == w0.tobytes()
        assert w1s.tobytes() == w1.tobytes()
        assert np.array_equal(tap0[w0 != 0], lin0[w0 != 0])
        assert np.array_equal(tap1[w1 != 0], lin1[w1 != 0])
        # no stored ray has all-zero weights, and every ray left out has
        assert (((w0s != 0) | (w1s != 0)).any(axis=0) == stored).all()


def test_groups_split_across_the_fan_match_the_per_view_tables():
    geom = wide_fan()
    assert any(not isinstance(group[0], slice)
               for view in representatives(geom) for group in _ray_tables(geom, view))
    proj = JosephProjector(geom)
    rng = np.random.default_rng(23)
    x, y = rng.standard_normal(geom.grid), rng.standard_normal(proj.out_shape)
    ref = np.zeros(proj.out_shape)
    for vi, view in enumerate(proj.subset.indices):
        lin0, lin1, w0, w1 = full_columns(geom, view)
        ref[vi] = (w0 * x.ravel()[lin0] + w1 * x.ravel()[lin1]).sum(axis=0)
    assert np.abs(proj.apply(x) - ref).max() <= 1e-12 * np.abs(ref).max()
    lhs, rhs = float((proj.apply(x) * y).sum()), float((x * proj.applyT(y)).sum())
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_rays_that_miss_the_grid_are_not_stored():
    geom = recon_mid_geometry()
    kept = sum(np.count_nonzero(stored_columns(geom, view)[4])
               for view in representatives(geom))
    assert kept / (len(representatives(geom)) * geom.n_det) < 0.55


@pytest.mark.parametrize("case", sorted(MIRROR_CASES) + ["wide-fan"])
def test_admission_estimate_bounds_what_a_kept_table_holds(case):
    # An admitted projector core keeps each representative's table and its
    # transpose; admission counts 1.1 times the first one's bytes per
    # representative.
    geom, sub = (wide_fan(), None) if case == "wide-fan" else mirror_case(case)
    core = JosephProjector(geom, sub)._core
    m = geom.grid[0] * geom.grid[1]
    kept = []
    for rep, _, _ in core.orbits:
        groups = _ray_tables(geom, rep)
        pixel_form = _transposed(groups, m, geom.n_det, _image_pad(geom.grid))
        kept.append(_nbytes(groups) + _nbytes(pixel_form))
    figure = 1.1 * len(kept) * kept[0]
    assert sum(kept) <= figure
    assert core.admitted == (figure <= _CACHE_LIMIT_BYTES)


@pytest.mark.parametrize("make, spans", [(fista_tv_geometry, {2}), (recon_mid_geometry, {2, 3})],
                         ids=["fista-tv", "recon-mid"])
def test_pixel_taps_of_the_transpose_are_consecutive_cells(make, spans):
    geom = make()
    m = geom.grid[0] * geom.grid[1]
    found = {len(_transposed(_ray_tables(geom, view), m, geom.n_det, _image_pad(geom.grid))[0]) - 3
             for view in representatives(geom)}
    assert found == spans


def test_fista_tv_transpose_gathers_and_second_call_builds_nothing(monkeypatch):
    built = []

    def counted(*args):
        built.append(1)
        return _joseph_tables(*args)

    def no_bincount(*args, **kwargs):
        raise AssertionError("the admitted transpose scatters")

    # construction builds the first representative's table, to admit by it
    monkeypatch.setattr(projector_module, "_joseph_tables", counted)
    geom = fista_tv_geometry()
    proj = JosephProjector(geom, sparse_subset(geom, 45))
    assert proj._core.admitted
    monkeypatch.setattr(np, "bincount", no_bincount)
    y = np.random.default_rng(21).standard_normal(proj.out_shape)
    first = proj.applyT(y)
    assert len(built) == len(proj._core.orbits)
    keys = set(_STORE.entries)
    second = proj.applyT(y)
    assert len(built) == len(proj._core.orbits)
    assert set(_STORE.entries) == keys
    assert second.tobytes() == first.tobytes()


@pytest.mark.parametrize("case", ["fista-tv-q45", "recon-mid-q32", "toy"])
def test_unadmitted_transpose_scatters_to_the_same_image(case, monkeypatch):
    geom, sub = mirror_case(case)
    rng = np.random.default_rng(22)
    y = rng.standard_normal((len(JosephProjector(geom, sub).subset.indices), geom.n_det))
    gathered = JosephProjector(geom, sub).applyT(y)
    monkeypatch.setattr(projector_module, "_CACHE_LIMIT_BYTES", 0)
    unkept = JosephProjector(geom, sub)
    assert not unkept._core.admitted
    scattered = unkept.applyT(y)
    assert np.abs(gathered - scattered).max() <= 1e-12 * np.abs(scattered).max()


def transposed_keys():
    return [key for key in _STORE.entries
            if isinstance(key[0], tuple) and _transposed in key[0]]


def test_recon_mid_forward_stores_no_transposed_table():
    geom = recon_mid_geometry()
    sub = sparse_subset(geom, 32)
    y = Sinogram(JosephProjector(geom, sub).apply(shepp_logan(geom.grid)), geom, sub)
    model = ReconNet(geom, width=4, depth=2, n_stages=2, variant="g", seed=0)
    model.forward(y)
    assert len(_STORE.entries) > 0
    assert transposed_keys() == []
    JosephProjector(geom, sub).applyT(y.data)
    assert len(transposed_keys()) == len(view_orbits(geom, sub.indices))


def test_store_after_one_fista_tv_solve_holds_at_most_30_mib():
    geom = fista_tv_geometry()
    sub = sparse_subset(geom, 45)
    y = Sinogram(JosephProjector(geom, sub).apply(shepp_logan(geom.grid)), geom, sub)
    fista_tv(y, 0.01)
    assert len(transposed_keys()) == len(view_orbits(geom, sub.indices))
    assert _STORE.nbytes <= 30 * 2**20
