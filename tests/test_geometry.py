import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsect.geometry import (
    GeometryError,
    Image,
    ScanGeometry,
    Sinogram,
    ViewSubset,
    full_subset,
    geometry_from_config,
    geometry_preset,
    make_geometry,
    perturb_geometry,
    resolve_geometry,
    scaled_preset,
    sparse_subset,
    view_orbits,
)

from sparsect.experiments import toy_geometry

from conftest import fista_tv_geometry


class TestPresets:
    def test_fan_preset_fields(self):
        g = geometry_preset("fan-1024")
        assert g.beam == "fan"
        assert g.n_views_full == 1024
        assert g.n_det == 1024
        assert g.det_spacing == 2.0
        assert g.src_dist == 500.0 and g.det_dist == 500.0
        assert g.grid == (512, 512)
        assert g.pixel_size == pytest.approx(0.7)
        assert g.angular_range == pytest.approx(2 * np.pi)

    def test_parallel_preset_fields(self):
        g = geometry_preset("parallel-720")
        assert g.beam == "parallel"
        assert g.n_views_full == 720
        assert g.n_det == 729
        assert g.det_spacing == pytest.approx(0.7)
        assert g.grid == (512, 512)
        assert g.angular_range == pytest.approx(np.pi)

    def test_unknown_preset(self):
        with pytest.raises(GeometryError):
            geometry_preset("cone-9000")

    def test_view_angles_uniform_and_sorted(self):
        g = geometry_preset("parallel-720")
        d = np.diff(g.view_angles_full)
        assert np.allclose(d, d[0])
        assert g.view_angles_full[0] == 0.0

    def test_scaled_preset_keeps_counts_and_coverage(self):
        g = scaled_preset("parallel-720", (256, 256))
        assert g.n_views_full == 720
        assert g.n_det == 729
        assert g.grid == (256, 256)
        assert g.fov_radius >= g.support_radius - 1e-9

    def test_scaled_preset_fan_coverage(self):
        g = scaled_preset("fan-1024", (64, 64))
        assert g.beam == "fan"
        assert g.fov_radius >= g.support_radius - 1e-9


class TestValidation:
    def test_detector_span_must_cover_support(self):
        with pytest.raises(GeometryError):
            make_geometry("parallel", n_views=8, n_det=8, det_spacing=0.5,
                          grid=(16, 16), pixel_size=1.0)

    def test_fan_source_outside_support(self):
        with pytest.raises(GeometryError):
            make_geometry("fan", n_views=8, n_det=64, det_spacing=2.0,
                          grid=(16, 16), pixel_size=1.0, src_dist=5.0, det_dist=40.0)

    def test_positive_counts(self):
        with pytest.raises(GeometryError):
            make_geometry("parallel", n_views=0, n_det=8, det_spacing=1.0,
                          grid=(4, 4), pixel_size=1.0)

    def test_bad_beam_name(self):
        with pytest.raises(GeometryError):
            make_geometry("cone", n_views=8, n_det=32, det_spacing=1.0,
                          grid=(8, 8), pixel_size=1.0)

    def test_fan_requires_distances(self):
        with pytest.raises(GeometryError):
            make_geometry("fan", n_views=8, n_det=32, det_spacing=1.0,
                          grid=(8, 8), pixel_size=1.0)

    @pytest.mark.parametrize("beam, field, value, message", [
        ("parallel", "det_spacing", 0.0, "spacings must be positive"),
        ("parallel", "pixel_size", -1.0, "spacings must be positive"),
        ("parallel", "grid", (0, 8), "grid dimensions must be positive"),
        ("parallel", "grid", (8, -1), "grid dimensions must be positive"),
        ("parallel", "view_angles_full", [0.0, 0.5, 0.5, 1.0], "strictly increasing"),
        ("parallel", "view_angles_full", [0.0, 1.0, 0.9], "strictly increasing"),
        ("parallel", "view_angles_full", [-0.1, 1.0], "outside the angular range"),
        ("parallel", "view_angles_full", [0.0, 3.2], "outside the angular range"),
        ("parallel", "view_angles_full", [], "at least 1 view angle"),
        ("parallel", "view_angles_full", [[0.0, 1.0]], "1-D array"),
        ("fan", "src_dist", 0.0, "fan distances must be positive"),
        ("fan", "det_dist", -1.0, "fan distances must be positive"),
    ])
    def test_invalid_field_rejected(self, beam, field, value, message):
        fan = dict(src_dist=40.0, det_dist=40.0) if beam == "fan" else {}
        g = make_geometry(beam, n_views=8, n_det=32, det_spacing=1.0, grid=(8, 8),
                          pixel_size=1.0, **fan)
        with pytest.raises(GeometryError, match=message):
            ScanGeometry(**{**vars(g), field: value})

    def test_view_count_is_the_angle_count(self):
        g = make_geometry("parallel", n_views=8, n_det=32, det_spacing=1.0, grid=(8, 8),
                          pixel_size=1.0)
        assert "n_views_full" not in {f.name for f in dataclasses.fields(ScanGeometry)}
        assert g.n_views_full == 8
        assert ScanGeometry(**{**vars(g), "view_angles_full": [0.0, 1.0]}).n_views_full == 2


class TestSubsets:
    def test_three_of_eight(self, tiny_parallel):
        g = make_geometry("parallel", n_views=8, n_det=13, det_spacing=1.0,
                          grid=(8, 8), pixel_size=1.0)
        assert sparse_subset(g, 3).indices.tolist() == [0, 2, 5]

    def test_full_subset_identity(self, tiny_parallel):
        s = full_subset(tiny_parallel)
        assert s.q1 == tiny_parallel.n_views_full
        assert s.indices.tolist() == list(range(tiny_parallel.n_views_full))

    def test_count_out_of_range(self, tiny_parallel):
        with pytest.raises(GeometryError):
            sparse_subset(tiny_parallel, 0)
        with pytest.raises(GeometryError):
            sparse_subset(tiny_parallel, tiny_parallel.n_views_full + 1)

    @pytest.mark.parametrize("q1", [2.5, True, 15.0, np.float64(15), "15", None],
                             ids=["float", "bool", "whole-float", "numpy-float", "str", "none"])
    def test_count_that_is_not_an_integer_rejected(self, q1):
        """2.5 once gave 3 views when only the stored count's check refused
        it, and True and 15.0 gave 1 and 15 views."""
        with pytest.raises(GeometryError, match="q1 must be an integer"):
            sparse_subset(toy_geometry(), q1)

    def test_numpy_integer_count_accepted(self):
        g = toy_geometry()
        s = sparse_subset(g, np.int64(15))
        assert s.q1 == 15 and type(s.q1) is int
        assert np.array_equal(s.indices, sparse_subset(g, 15).indices)

    def test_view_count_is_the_index_count(self):
        assert [f.name for f in dataclasses.fields(ViewSubset)] == ["indices"]
        assert ViewSubset(np.array([0, 4, 9])).q1 == 3

    @pytest.mark.parametrize("indices, message", [
        ([], "at least one view index"),
        ([[0, 1]], "at least one view index"),
        ([3, 1], "strictly increasing"),
        ([0, 2, 2], "strictly increasing"),
        ([-1, 2], "strictly increasing"),
    ])
    def test_invalid_indices_rejected(self, indices, message):
        with pytest.raises(GeometryError, match=message):
            ViewSubset(np.array(indices, dtype=np.int64))

    @given(n=st.integers(2, 512), q=st.integers(1, 512))
    @settings(max_examples=200, deadline=None)
    def test_decimation_properties(self, n, q):
        if q > n:
            q = 1 + q % n
        g = make_geometry("parallel", n_views=n, n_det=13, det_spacing=1.0,
                          grid=(8, 8), pixel_size=1.0)
        idx = sparse_subset(g, q).indices
        assert len(idx) == q
        assert idx[0] == 0
        assert (np.diff(idx) > 0).all()
        assert idx[-1] < n
        # uniform decimation: gaps differ by at most one
        if q > 1:
            gaps = np.diff(np.concatenate([idx, [n]]))
            assert gaps.max() - gaps.min() <= 1


class TestViewOrbits:
    def test_fan_full_set_forms_quarter_turn_orbits(self, small_fan):
        # 12 views 30 degrees apart: view 0's orbit holds its quarter turns,
        # view 1's (30 degrees) also the mirror images 90 - 30 + k*90
        # degrees. Each is served by its lowest view whose rays run along
        # the rows: view 3 (90 degrees) and view 2 (60 degrees).
        orbits = view_orbits(small_fan, full_subset(small_fan).indices)
        assert orbits == [
            (2, [1, 2, 4, 5, 7, 8, 10, 11], [4, 0, 5, 1, 6, 2, 7, 3]),
            (3, [0, 3, 6, 9], [3, 0, 1, 2]),
        ]

    def test_representatives_come_from_the_full_set(self, small_parallel):
        # views 0, 2, 4, 7, 9 of 12 over pi, 15 degrees apart, each served by
        # a partner whose rays run along the rows (45 to 135 degrees): view
        # 0 by view 6 (90 degrees) and view 7 (105) by view 5 (75), which
        # the subset does not hold; view 2 (30) by view 4 (60), its mirror
        # about the diagonal; views 4 and 9 by themselves
        sub = sparse_subset(small_parallel, 5)
        orbits = view_orbits(small_parallel, sub.indices)
        got = {rep: (p, t) for rep, p, t in orbits}
        assert got == {4: ([1, 2], [4, 0]), 5: ([3], [5]), 6: ([0], [4]),
                       9: ([4], [0])}

    def test_partners_need_to_match_within_tolerance(self, small_fan):
        nudged = small_fan.view_angles_full + np.arange(12) * 1e-9
        g = ScanGeometry(**{**vars(small_fan), "view_angles_full": nudged})
        orbits = view_orbits(g, full_subset(g).indices)
        assert len(orbits) == 12
        assert all(t == [0] for _, _, t in orbits)

    def test_parallel_views_pair_within_the_half_turn(self):
        # fista-tv's 45 views are 4 degrees apart over pi. View theta shares
        # a table with theta +- 90, 90 - theta, 180 - theta and 270 - theta
        # wherever those lie in [0, 180), so the representatives are the
        # even views of [46, 90] degrees, whose rays run along the rows;
        # half of them are full-set views the subset does not hold.
        g = fista_tv_geometry()
        orbits = view_orbits(g, sparse_subset(g, 45).indices)
        assert [rep for rep, _, _ in orbits] == list(range(46, 91, 2))
        assert sorted(p for _, positions, _ in orbits for p in positions) == list(range(45))


class TestFingerprint:
    def test_vars_copy_after_the_fingerprint_was_read(self, small_fan):
        fingerprint = small_fan.fingerprint
        assert set(vars(small_fan)) == {f.name for f in dataclasses.fields(ScanGeometry)}
        twin = ScanGeometry(**vars(small_fan))
        assert twin.fingerprint == fingerprint
        nudged = small_fan.view_angles_full + 1e-9
        moved = ScanGeometry(**{**vars(small_fan), "view_angles_full": nudged})
        assert moved.fingerprint != fingerprint


class TestPerturbation:
    def test_fan_distances_move_within_bound(self, small_fan):
        pg = perturb_geometry(small_fan, rel=0.01, seed=7)
        assert pg.beam == "fan"
        assert abs(pg.src_dist / small_fan.src_dist - 1.0) <= 0.01
        assert abs(pg.det_dist / small_fan.det_dist - 1.0) <= 0.01
        assert (pg.src_dist, pg.det_dist) != (small_fan.src_dist, small_fan.det_dist)

    def test_deterministic_under_seed(self, small_fan):
        a = perturb_geometry(small_fan, rel=0.01, seed=3)
        b = perturb_geometry(small_fan, rel=0.01, seed=3)
        assert a.src_dist == b.src_dist and a.det_dist == b.det_dist

    def test_parallel_rejected(self, small_parallel):
        with pytest.raises(GeometryError):
            perturb_geometry(small_parallel, rel=0.01, seed=0)


class TestConfigFiles:
    CONFIG = """\
# toy fan layout
beam=fan
n_views=60
n_det=63
det_spacing_mm=1.6
src_dist_mm=60
det_dist_mm=60
grid_m1=32
grid_m2=32
pixel_size_mm=1.0
"""

    def test_round_trip(self, tmp_path):
        p = tmp_path / "g.cfg"
        p.write_text(self.CONFIG)
        g = geometry_from_config(p)
        assert g.beam == "fan" and g.n_views_full == 60 and g.n_det == 63
        assert g.det_spacing == pytest.approx(1.6)

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "g.cfg"
        p.write_text(self.CONFIG + "tilt=3\n")
        with pytest.raises(GeometryError):
            geometry_from_config(p)

    def test_missing_key(self, tmp_path):
        p = tmp_path / "g.cfg"
        p.write_text("beam=parallel\n")
        with pytest.raises(GeometryError):
            geometry_from_config(p)

    def test_repeated_key(self, tmp_path):
        p = tmp_path / "g.cfg"
        p.write_text(self.CONFIG + "beam=fan\n")
        with pytest.raises(GeometryError):
            geometry_from_config(p)

    @pytest.mark.parametrize("edit, message", [
        (lambda text: text + "n_det 63\n", "expected key=value"),
        (lambda text: text.replace("n_views=60", "n_views=sixty"), "bad value 'sixty' for n_views"),
        (lambda text: text.replace("grid_m1=32", "grid_m1=3.5"), "bad value '3.5' for grid_m1"),
        (lambda text: text.replace("src_dist_mm=60\n", ""), "fan beam needs"),
    ], ids=["no-equals", "bad-int", "float-for-int", "fan-without-distance"])
    def test_malformed_config_rejected(self, tmp_path, edit, message):
        p = tmp_path / "g.cfg"
        p.write_text(edit(self.CONFIG))
        with pytest.raises(GeometryError, match=message):
            geometry_from_config(p)

    def test_resolve_dispatches(self, tmp_path):
        assert resolve_geometry("fan-1024").n_views_full == 1024
        p = tmp_path / "g.cfg"
        p.write_text(self.CONFIG)
        assert resolve_geometry(str(p)).n_views_full == 60


class TestContainers:
    def test_image_shape_checked(self, tiny_parallel):
        with pytest.raises(GeometryError):
            Image(np.zeros((4, 4)), tiny_parallel)

    def test_sinogram_shape_checked(self, tiny_parallel):
        s = sparse_subset(tiny_parallel, 5)
        with pytest.raises(GeometryError):
            Sinogram(np.zeros((4, tiny_parallel.n_det)), tiny_parallel, s)

    def test_sinogram_angles(self, tiny_parallel):
        s = sparse_subset(tiny_parallel, 5)
        y = Sinogram(np.zeros((5, tiny_parallel.n_det)), tiny_parallel, s)
        assert np.array_equal(y.angles, tiny_parallel.view_angles_full[s.indices])
