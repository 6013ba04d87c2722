"""Filtered backprojection and view-axis upsampling.

Both are plain linear operators with explicit transposes so the network can
differentiate through them. The ramp filter is the band-limited Ram-Lak
kernel, not apodized: a real FFT of rows zero-padded to the next power of two
at or above twice the detector count, times the half spectrum, then inverted.

The backprojector and the view upsampler run on the projector's two-tap
core. The backprojector supplies only its per-view detector taps
(`_pixel_taps`), which `_pixel_table` turns into the core's pixel form: one
index per pixel into the zero-padded detector row, and two weights.
`projector._OrbitCore` builds them once per orbit of views under the
symmetries of the square, keeps them in the process-wide table store when
they are admitted, and runs the orbit loops over turned or transposed
copies of the image: `apply` gathers through the taps, `applyT` scatters.
The upsampler interpolates whole detector rows: each full view reads two
consecutive rows of the subset's sinogram, extended by one wrap-around row
at each end, with one weight per row.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import (
    FAN,
    PARALLEL,
    Image,
    ScanGeometry,
    Sinogram,
    ViewSubset,
    _checked,
    _view_subset,
    full_subset,
)
from .projector import _OrbitCore, _two_tap_pixel_form


def ramp_response(n_pad: int, spacing: float) -> np.ndarray:
    """Frequency response of the band-limited ramp on an n_pad grid.

    Built as the DFT of the spatial kernel (1/(4 du^2) at zero,
    -1/(pi n du)^2 at odd lags) rather than by sampling |omega| directly,
    which would zero the DC term and bias reconstructions downward.
    """
    h = np.zeros(n_pad)
    h[0] = 1.0 / (4.0 * spacing * spacing)
    odd = np.arange(1, n_pad // 2 + 1, 2)
    h[odd] = -1.0 / (np.pi * odd * spacing) ** 2
    h[n_pad - odd] = h[odd]
    return np.real(np.fft.fft(h)) * spacing


class RampFilter:
    """Row-wise ramp filtering; symmetric, so applyT is apply."""

    def __init__(self, n_det: int, spacing: float):
        self.n_det = n_det
        self.n_pad = 1 << (2 * n_det - 1).bit_length()  # smallest power of two >= 2 n_det
        self.response = ramp_response(self.n_pad, spacing)[: self.n_pad // 2 + 1]

    def apply(self, rows: np.ndarray) -> np.ndarray:
        spectrum = np.fft.rfft(rows, self.n_pad)
        spectrum *= self.response
        return np.fft.irfft(spectrum, self.n_pad)[..., : self.n_det]

    applyT = apply


def _pixel_taps(geom: ScanGeometry, view: int) -> list:
    """Detector taps and pixel weights of full-view index `view`.

    One group covering every detector cell, with (m1*m2,) index and weight
    arrays into the row.
    """
    m1, m2 = geom.grid
    # pixel centre coordinates, broadcast over the (m1, m2) grid
    px = ((np.arange(m2) - 0.5 * (m2 - 1)) * geom.pixel_size)[None, :]
    py = ((np.arange(m1) - 0.5 * (m1 - 1)) * geom.pixel_size)[:, None]
    angle = float(geom.view_angles_full[view])
    cos, sin = math.cos(angle), math.sin(angle)
    if geom.beam == PARALLEL:
        u = (-px * sin + py * cos).ravel()
        spacing, wpix = geom.det_spacing, None
    else:
        ds, dd = geom.src_dist, geom.det_dist
        dist = (ds - (px * cos + py * sin)).ravel()
        u = (ds * (-px * sin + py * cos)).ravel() / dist
        spacing = geom.det_spacing * ds / (ds + dd)
        mag = dist / ds
        wpix = 1.0 / (mag * mag)
    n = geom.n_det
    tpos = u / spacing + 0.5 * (n - 1)
    i0 = np.floor(tpos)
    frac = tpos - i0
    i0 = i0.astype(np.int64)
    w0 = np.where((i0 >= 0) & (i0 <= n - 1), 1.0 - frac, 0.0)
    w1 = np.where((i0 >= -1) & (i0 <= n - 2), frac, 0.0)
    if wpix is not None:
        w0 = w0 * wpix
        w1 = w1 * wpix
    return [(slice(None), np.clip(i0, 0, n - 1), np.clip(i0 + 1, 0, n - 1), w0, w1)]


def _pixel_table(geom: ScanGeometry, view: int):
    """`_pixel_taps` of `view` in the pixel form of `projector._OrbitCore`.

    The `_OrbitCore` builder: one index per pixel and the two weights.
    """
    [(_, *taps)] = _pixel_taps(geom, view)
    return _two_tap_pixel_form(*taps)


class PixelBackprojector:
    """Interpolating backprojection over the subset's views.

    Fan beam folds the inverse-squared magnification weight into each
    pixel's contribution. apply gathers from detector rows; applyT
    scatters back with identical weights, so the pair is an exact
    transpose.
    """

    def __init__(self, geom: ScanGeometry, subset: ViewSubset | None = None):
        self.geom = geom
        self._core = _OrbitCore(geom, subset, _pixel_table, True)
        self.subset = self._core.subset
        self.in_shape = self._core.rows_shape
        self.out_shape = geom.grid

    def apply(self, rows: np.ndarray) -> np.ndarray:
        return self._core.rows_to_image(rows)

    def applyT(self, img: np.ndarray) -> np.ndarray:
        return self._core.image_to_rows(img)


class FbpOperator:
    """Filtered backprojection as a linear operator with a transpose.

    Parallel beam: ramp filter then backprojection scaled by pi/q1 over
    the half turn. Fan beam: flat-detector weighting on virtual (isocenter)
    coordinates D/sqrt(D^2+s^2), ramp at the virtual pitch, magnification-
    weighted backprojection, and pi/q1 scaling which folds in the half-
    redundancy of the full turn.
    """

    def __init__(self, geom: ScanGeometry, subset: ViewSubset | None = None):
        self.geom = geom
        self._bp = PixelBackprojector(geom, subset)
        self.subset = self._bp.subset
        self.in_shape = self._bp.in_shape
        self.out_shape = geom.grid
        self.scale = math.pi / self.subset.q1
        self._preweight, spacing = None, geom.det_spacing
        if geom.beam == FAN:
            ds, dd = geom.src_dist, geom.det_dist
            virt = geom.det_offsets * ds / (ds + dd)
            self._preweight = ds / np.sqrt(ds * ds + virt * virt)
            spacing = geom.det_spacing * ds / (ds + dd)
        self._ramp = RampFilter(geom.n_det, spacing)

    def apply(self, y: np.ndarray) -> np.ndarray:
        y = _checked(y, self.in_shape, "sinogram")
        if self._preweight is not None:
            y = y * self._preweight
        return self.scale * self._bp.apply(self._ramp.apply(y))

    def applyT(self, x: np.ndarray) -> np.ndarray:
        rows = self._ramp.apply(self._bp.applyT(x))
        if self._preweight is not None:
            rows = rows * self._preweight
        return self.scale * rows


def fbp(y: Sinogram) -> Image:
    """Filtered backprojection of a (possibly sparse-view) sinogram."""
    op = FbpOperator(y.geom, y.subset)
    return Image(op.apply(y.data), y.geom)


class ViewUpsampler:
    """Linear interpolation along the view axis from a subset to all views.

    Exact on views the subset contains. Fan sinograms wrap at 2*pi; parallel
    sinograms wrap at pi with the detector axis reversed, using the identity
    between opposing parallel rays.

    The source is extended by the subset's last row before its first and
    its first row after its last, both reversed for the parallel beam. Full
    view v reads rows lo[v] and lo[v] + 1 of that extended source, with
    weights 1 - w[v] and w[v]. `applyT` multiplies by the (q1 + 2, n_full)
    interpolation matrix, then folds the two wrap rows back onto the rows
    they copy.
    """

    def __init__(self, geom: ScanGeometry, subset: ViewSubset):
        self.geom = geom
        self.subset = subset = _view_subset(geom, subset)
        q1, n = subset.q1, geom.n_det
        self.in_shape = (q1, n)
        self.out_shape = (geom.n_views_full, n)
        period = geom.angular_range
        sparse = geom.view_angles_full[subset.indices]
        # Extend one sample beyond each end so every full angle has a bracket.
        ext = np.concatenate(([sparse[-1] - period], sparse, [sparse[0] + period]))
        full = geom.view_angles_full
        lo = np.searchsorted(ext, full, side="right") - 1
        w = (full - ext[lo]) / (ext[lo + 1] - ext[lo])
        self._lo, self._w0, self._w1 = lo, (1.0 - w)[:, None], w[:, None]
        self._wrap = slice(None, None, -1 if geom.beam == PARALLEL else 1)
        self._matrix = np.zeros((q1 + 2, full.size))
        self._matrix[lo, np.arange(full.size)] = 1.0 - w
        self._matrix[lo + 1, np.arange(full.size)] = w

    def apply(self, y: np.ndarray) -> np.ndarray:
        y = _checked(y, self.in_shape, "sinogram")
        ext = np.concatenate((y[-1:, self._wrap], y, y[:1, self._wrap]))
        out = ext.take(self._lo, axis=0)
        out *= self._w0
        tap = ext[1:].take(self._lo, axis=0)
        tap *= self._w1
        out += tap
        return out

    def applyT(self, y_full: np.ndarray) -> np.ndarray:
        y_full = _checked(y_full, self.out_shape, "sinogram")
        ext = self._matrix @ y_full
        rows = ext[1:-1]
        rows[-1] += ext[0, self._wrap]
        rows[0] += ext[-1, self._wrap]
        return rows


def upsample_views(y: Sinogram) -> Sinogram:
    """Interpolate a sparse sinogram onto the full view set."""
    up = ViewUpsampler(y.geom, y.subset)
    return Sinogram(up.apply(y.data), y.geom, full_subset(y.geom))
