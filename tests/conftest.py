"""Shared oracles: dense matrices probed column-by-column and central
finite differences. Tests compare production code against these slower,
independent computations."""

from __future__ import annotations

import numpy as np
import pytest

from sparsect import tensorio
from sparsect.experiments import toy_geometry
from sparsect.geometry import ScanGeometry, make_geometry, sparse_subset
from sparsect.projector import _STORE


def dense_from_op(apply_fn, in_shape, out_shape) -> np.ndarray:
    """Materialize a linear map by probing with unit vectors."""
    n_in = int(np.prod(in_shape))
    n_out = int(np.prod(out_shape))
    mat = np.zeros((n_out, n_in))
    e = np.zeros(n_in)
    for j in range(n_in):
        e[j] = 1.0
        mat[:, j] = apply_fn(e.reshape(in_shape)).ravel()
        e[j] = 0.0
    return mat


def drain_pending_free():
    """Wait for the background unlink of the file the last save replaced."""
    thread = tensorio._pending_free
    if thread is not None:
        thread.join(timeout=30)
        assert not thread.is_alive()


def numeric_grad(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function, one entry at a time.

    Where the two one-sided differences of an entry disagree by more than
    `1e-5 * max(max|fd|, 1)`, the step straddles a kink (a LeakyReLU or
    an abs at zero) and the central difference is no derivative. Such an
    entry comes back masked, so comparisons against the result skip it. A
    test may mask at most one entry in all. Smooth entries of this suite's
    functions disagree by at most about 2e-6 of that scale at h = 1e-6.
    """
    global _kinks_in_test
    f0 = f(x)
    fp = np.zeros_like(x)
    fm = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        fp[i], fm[i] = f(xp), f(xm)
    g = (fp - fm) / (2 * h)
    kink = np.abs((fp - f0) - (f0 - fm)) / h > 1e-5 * max(np.abs(g).max(), 1.0)
    _kinks_in_test += int(kink.sum())
    assert _kinks_in_test <= 1, f"{_kinks_in_test} finite-difference entries straddle a kink"
    return np.ma.masked_array(g, mask=kink)


_kinks_in_test = 0


def pytest_runtest_setup(item):
    global _kinks_in_test
    _kinks_in_test = 0


@pytest.fixture(autouse=True)
def empty_table_store():
    """Start each test with no stored tables, so what a test builds or reuses
    does not depend on the tests that ran before it in the process."""
    _STORE.clear()


def recon_mid_geometry() -> ScanGeometry:
    """The benchmark's `recon-mid` scan: fan beam, 256 views, 128x128."""
    return make_geometry("fan", n_views=256, n_det=256, det_spacing=2.0,
                         grid=(128, 128), pixel_size=0.7, src_dist=125.0,
                         det_dist=125.0)


def fista_tv_geometry() -> ScanGeometry:
    """The benchmark's `fista-tv` scan: parallel beam, 180 views, 128x128."""
    return make_geometry("parallel", n_views=180, n_det=183, det_spacing=1.0,
                         grid=(128, 128), pixel_size=1.0)


def unpartnered_fan(grid: tuple[int, int]) -> ScanGeometry:
    """A fan geometry in which no view serves another (`view_orbits`).

    A uniform fan set that holds angle 0 pairs every theta with -theta, so
    on a square grid the 9 views 40 degrees apart are nudged off by j*1e-9
    rad, far past the 1e-12 match. A non-square grid has no symmetry to
    share, so its 12 views stay uniform.
    """
    n_views = 9 if grid[0] == grid[1] else 12
    base = make_geometry("fan", n_views=n_views, n_det=13, det_spacing=2.2,
                         grid=grid, pixel_size=1.0, src_dist=25.0, det_dist=25.0)
    if grid[0] != grid[1]:
        return base
    nudged = base.view_angles_full + np.arange(n_views) * 1e-9
    return ScanGeometry(**{**vars(base), "view_angles_full": nudged})


# Geometries and subsets whose orbits hold mirrored views (code >= 4).
MIRROR_CASES = {
    "recon-mid-full": (recon_mid_geometry, None),
    "recon-mid-q32": (recon_mid_geometry, 32),
    "recon-mid-q7": (recon_mid_geometry, 7),
    "fan-odd-n_det": (lambda: make_geometry(
        "fan", n_views=64, n_det=45, det_spacing=2.0, grid=(24, 24),
        pixel_size=1.0, src_dist=40.0, det_dist=30.0), None),
    "toy": (toy_geometry, None),
    "fista-tv-q45": (fista_tv_geometry, 45),
    "parallel-odd-n_det": (lambda: make_geometry(
        "parallel", n_views=36, n_det=35, det_spacing=1.0, grid=(24, 24),
        pixel_size=1.0), None),
}


def mirror_case(name):
    """(geometry, subset) of a `MIRROR_CASES` entry."""
    make, q = MIRROR_CASES[name]
    geom = make()
    return geom, None if q is None else sparse_subset(geom, q)


def rel_err(a: float, b: float, floor: float = 1e-12) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)


# Acceptance tests push one line per shipped guarantee; the summary hook
# prints them after the run so they survive output capture.
_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def acceptance_report() -> list[str]:
    return _ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    del exitstatus, config
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@pytest.fixture
def small_parallel():
    return make_geometry(
        "parallel", n_views=12, n_det=24, det_spacing=1.1,
        grid=(16, 16), pixel_size=1.0,
    )


@pytest.fixture
def small_fan():
    return make_geometry(
        "fan", n_views=12, n_det=24, det_spacing=2.6,
        grid=(16, 16), pixel_size=1.0, src_dist=40.0, det_dist=40.0,
    )


@pytest.fixture
def tiny_parallel():
    return make_geometry(
        "parallel", n_views=10, n_det=13, det_spacing=1.0,
        grid=(8, 8), pixel_size=1.0,
    )


@pytest.fixture
def tiny_fan():
    return make_geometry(
        "fan", n_views=10, n_det=13, det_spacing=2.2,
        grid=(8, 8), pixel_size=1.0, src_dist=25.0, det_dist=25.0,
    )
