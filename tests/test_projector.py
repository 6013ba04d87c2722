import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsect.geometry import (
    Image,
    full_subset,
    make_geometry,
    sparse_subset,
)
from sparsect import projector
from sparsect.projector import (
    JosephProjector,
    _joseph_tables,
    _view_rays,
    back_project,
    dense_matrix_oracle,
    forward_project,
)

from conftest import dense_from_op


def _rays_matrix(geom, subset=None):
    proj = JosephProjector(geom, subset)
    return dense_from_op(proj.apply, proj.in_shape, proj.out_shape), proj


class TestHandOracle:
    """2x2 image, unit pixels, 4 axis-aligned-and-diagonal views.

    At view angle 0 each ray integrates along the x axis: the two inner
    detectors (|u| = 0.5) cross one grid row apiece, picking up both its
    pixels with weight 1; the outer detectors (|u| = 1.5) miss the grid.
    At angle pi/2 the same happens column-wise. u increases with row index.
    """

    @pytest.fixture
    def mat(self):
        g = make_geometry("parallel", n_views=4, n_det=4, det_spacing=1.0,
                          grid=(2, 2), pixel_size=1.0)
        m, _ = _rays_matrix(g)
        return m

    def test_axis_aligned_rows_exact(self, mat):
        v0 = mat[0:4]  # angle 0, one row per detector
        assert np.allclose(v0[0], [0, 0, 0, 0], atol=1e-12)
        assert np.allclose(v0[1], [1, 1, 0, 0], atol=1e-12)
        assert np.allclose(v0[2], [0, 0, 1, 1], atol=1e-12)
        assert np.allclose(v0[3], [0, 0, 0, 0], atol=1e-12)
        v2 = mat[8:12]  # angle pi/2: columns, right column first
        assert np.allclose(v2[1], [0, 1, 0, 1], atol=1e-12)
        assert np.allclose(v2[2], [1, 0, 1, 0], atol=1e-12)

    def test_diagonal_views_mirror(self, mat):
        v1, v3 = mat[4:8], mat[12:16]
        # opposite 45-degree views see the same geometry mirrored
        assert np.allclose(np.sort(v1.ravel()), np.sort(v3.ravel()), atol=1e-12)
        assert np.allclose(v1[1], v1[2][::-1], atol=1e-12)

    def test_mass_preserved_on_centered_disk(self):
        # every full-coverage view integrates the whole image, so view sums
        # of the projection agree across angles for a rotation-symmetric blob
        g = make_geometry("parallel", n_views=6, n_det=31, det_spacing=1.0,
                          grid=(16, 16), pixel_size=1.0)
        X, Y = np.meshgrid(np.arange(16) - 7.5, np.arange(16) - 7.5)
        blob = np.exp(-(X * X + Y * Y) / 8.0)
        y = JosephProjector(g).apply(blob)
        sums = y.sum(axis=1)
        assert np.allclose(sums, sums[0], rtol=1e-3)


class TestAdjoint:
    @pytest.mark.parametrize("beam", ["parallel", "fan"])
    def test_inner_product_identity(self, beam, small_parallel, small_fan):
        geom = small_parallel if beam == "parallel" else small_fan
        proj = JosephProjector(geom, sparse_subset(geom, 12))
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.standard_normal(proj.in_shape)
            y = rng.standard_normal(proj.out_shape)
            px = proj.apply(x)
            lhs = float((px * y).sum())
            rhs = float((x * proj.applyT(y)).sum())
            assert abs(lhs - rhs) <= 1e-12 * max(
                np.linalg.norm(px) * np.linalg.norm(y), 1.0
            )

    @given(
        n_views=st.integers(2, 9),
        q=st.integers(1, 9),
        n_det=st.integers(13, 19),
        beam=st.sampled_from(["parallel", "fan"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_adjoint_property(self, n_views, q, n_det, beam):
        q = min(q, n_views)
        geom = make_geometry(
            beam, n_views=n_views, n_det=n_det,
            det_spacing=1.0 if beam == "parallel" else 2.2,
            grid=(8, 8), pixel_size=1.0, src_dist=25.0, det_dist=25.0,
        )
        proj = JosephProjector(geom, sparse_subset(geom, q))
        rng = np.random.default_rng(n_views * 100 + q)
        x = rng.standard_normal(proj.in_shape)
        y = rng.standard_normal(proj.out_shape)
        lhs = float((proj.apply(x) * y).sum())
        rhs = float((x * proj.applyT(y)).sum())
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


class TestDenseOracle:
    @pytest.mark.parametrize("beam", ["parallel", "fan"])
    def test_forward_and_adjoint_match_matrix(self, beam, tiny_parallel, tiny_fan):
        geom = tiny_parallel if beam == "parallel" else tiny_fan
        mat, proj = _rays_matrix(geom, sparse_subset(geom, 7))
        rng = np.random.default_rng(1)
        x = rng.standard_normal(proj.in_shape)
        y = rng.standard_normal(proj.out_shape)
        assert np.abs(proj.apply(x).ravel() - mat @ x.ravel()).max() < 1e-12
        assert np.abs(proj.applyT(y).ravel() - mat.T @ y.ravel()).max() < 1e-12

    def test_builtin_dense_oracle_agrees(self, tiny_parallel):
        mat = dense_matrix_oracle(tiny_parallel)
        probe, _ = _rays_matrix(tiny_parallel)
        assert np.abs(mat - probe).max() < 1e-14

    def test_builtin_dense_oracle_size_guard(self):
        g = make_geometry("parallel", n_views=4, n_det=129, det_spacing=1.0,
                          grid=(80, 80), pixel_size=1.0)
        with pytest.raises(ValueError):
            dense_matrix_oracle(g)


class TestStructure:
    def test_zero_maps_to_zero(self, tiny_fan):
        proj = JosephProjector(tiny_fan)
        assert not proj.apply(np.zeros(tiny_fan.grid)).any()
        assert not proj.applyT(np.zeros(proj.out_shape)).any()

    def test_linearity(self, tiny_parallel):
        proj = JosephProjector(tiny_parallel)
        rng = np.random.default_rng(2)
        a, b = rng.standard_normal((2,) + proj.in_shape)
        lhs = proj.apply(2.0 * a - 3.0 * b)
        rhs = 2.0 * proj.apply(a) - 3.0 * proj.apply(b)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_nonnegative_image_nonnegative_sinogram(self, tiny_fan):
        proj = JosephProjector(tiny_fan)
        rng = np.random.default_rng(3)
        x = rng.uniform(0.0, 1.0, proj.in_shape)
        assert proj.apply(x).min() >= 0.0

    def test_subset_rows_equal_full_rows(self, small_parallel):
        sub = sparse_subset(small_parallel, 5)
        full = JosephProjector(small_parallel)
        part = JosephProjector(small_parallel, sub)
        x = np.random.default_rng(4).standard_normal(small_parallel.grid)
        assert np.array_equal(part.apply(x), full.apply(x)[sub.indices])

    def test_input_shape_checked(self, tiny_parallel):
        proj = JosephProjector(tiny_parallel)
        with pytest.raises(ValueError):
            proj.apply(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            proj.applyT(np.zeros((3, 3)))


def _reference_rows(proj, x):
    """Rows gathered from tables built at each view's own angle."""
    geom = proj.geom
    flat = x.ravel()
    out = np.zeros(proj.out_shape)
    for vi, view in enumerate(proj.subset.indices):
        rays = _view_rays(geom, float(geom.view_angles_full[view]))
        for ray_sel, lin0, lin1, w0, w1 in _joseph_tables(
            *rays, *geom.grid, geom.pixel_size
        ):
            vals = (w0 * flat[lin0] + w1 * flat[lin1]).sum(axis=0)
            out[vi, slice(None) if ray_sel is None else ray_sel] = vals
    return out


def _reference_transpose(proj, y):
    """Scatter with the same per-view tables, by np.add.at."""
    geom = proj.geom
    out = np.zeros(geom.grid[0] * geom.grid[1])
    for vi, view in enumerate(proj.subset.indices):
        rays = _view_rays(geom, float(geom.view_angles_full[view]))
        for ray_sel, lin0, lin1, w0, w1 in _joseph_tables(
            *rays, *geom.grid, geom.pixel_size
        ):
            row = y[vi] if ray_sel is None else y[vi, ray_sel]
            np.add.at(out, lin0.ravel(), (w0 * row).ravel())
            np.add.at(out, lin1.ravel(), (w1 * row).ravel())
    return out.reshape(geom.grid)


def _rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


class TestQuarterTurnOrbits:
    @pytest.mark.parametrize("beam, n_orbits", [("fan", 3), ("parallel", 6)])
    @pytest.mark.parametrize("q", [12, 7])
    def test_rows_and_transpose_match_per_view_reference(
        self, beam, n_orbits, q, small_fan, small_parallel
    ):
        geom = small_fan if beam == "fan" else small_parallel
        proj = JosephProjector(geom, sparse_subset(geom, q))
        if q == 12:
            assert len(proj._core.orbits) == n_orbits
        rng = np.random.default_rng(7)
        x = rng.standard_normal(proj.in_shape)
        y = rng.standard_normal(proj.out_shape)
        assert _rel(proj.apply(x), _reference_rows(proj, x)) <= 1e-12
        assert _rel(proj.applyT(y), _reference_transpose(proj, y)) <= 1e-12

    def test_full_view_apply_builds_one_table_per_orbit(
        self, small_fan, monkeypatch
    ):
        built = []

        def counted(*args):
            built.append(1)
            return _joseph_tables(*args)

        monkeypatch.setattr(projector, "_joseph_tables", counted)
        JosephProjector(small_fan).apply(np.ones(small_fan.grid))
        assert len(built) == 3

    @pytest.mark.parametrize("grid", [(8, 8), (9, 7)])
    def test_views_without_partners_match_reference_bitwise(self, grid):
        # 9 fan views are 40 degrees apart: no view is a multiple of a
        # quarter turn from another. 12 views on a non-square grid: the turn
        # changes the grid.
        n_views = 9 if grid == (8, 8) else 12
        geom = make_geometry("fan", n_views=n_views, n_det=13, det_spacing=2.2,
                             grid=grid, pixel_size=1.0, src_dist=25.0,
                             det_dist=25.0)
        proj = JosephProjector(geom)
        assert [rep for rep, _, _ in proj._core.orbits] == list(range(n_views))
        assert all(t == [0] for _, _, t in proj._core.orbits)
        x = np.random.default_rng(8).standard_normal(grid)
        assert np.array_equal(proj.apply(x), _reference_rows(proj, x))


class TestWrappers:
    def test_forward_project_returns_sinogram(self, tiny_parallel):
        x = Image(np.random.default_rng(5).uniform(size=(8, 8)), tiny_parallel)
        sub = sparse_subset(tiny_parallel, 4)
        y = forward_project(x, sub)
        assert y.data.shape == (4, tiny_parallel.n_det)
        assert y.subset.q1 == 4

    def test_back_project_round_shape(self, tiny_parallel):
        x = Image(np.random.default_rng(6).uniform(size=(8, 8)), tiny_parallel)
        y = forward_project(x, full_subset(tiny_parallel))
        z = back_project(y)
        assert z.data.shape == tiny_parallel.grid
