"""Shared oracles: dense matrices probed column-by-column and central
finite differences. Tests compare production code against these slower,
independent computations."""

from __future__ import annotations

import numpy as np
import pytest

from sparsect.geometry import make_geometry


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
