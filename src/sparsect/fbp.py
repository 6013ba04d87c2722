"""Filtered backprojection and view-axis upsampling.

Both are plain linear operators with explicit transposes so the network can
differentiate through them. The ramp filter is the band-limited Ram-Lak
kernel evaluated via FFT on rows zero-padded to the next power of two at or
above twice the detector count; no apodization window is applied.

The backprojector and the view upsampler run on the projector's two-tap
core (`projector._gather`, `projector._scatter`). The backprojector supplies
only its per-view detector taps (`_pixel_taps`); `projector._OrbitCore`
builds them once per quarter-turn orbit of views, keeps them under its byte
limit, and runs the orbit loops over np.rot90 copies of the image. The
upsampler supplies one flat table over the full view set, with the parallel
beam's wrap-around detector flips folded into its indices.
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
    full_subset,
)
from .projector import _checked, _gather, _OrbitCore, _scatter, _view_subset


def _pad_length(n_det: int) -> int:
    n = 1
    while n < 2 * n_det:
        n *= 2
    return n


def ramp_response(n_pad: int, spacing: float) -> np.ndarray:
    """Frequency response of the band-limited ramp on an n_pad grid.

    Built as the DFT of the spatial kernel (1/(4 du^2) at zero,
    -1/(pi n du)^2 at odd lags) rather than by sampling |omega| directly,
    which would zero the DC term and bias reconstructions downward.
    """
    h = np.zeros(n_pad)
    h[0] = 1.0 / (4.0 * spacing * spacing)
    k = np.arange(1, n_pad // 2 + 1)
    odd = k[k % 2 == 1]
    h[odd] = -1.0 / (np.pi * odd * spacing) ** 2
    h[n_pad - odd] = h[odd]
    return np.real(np.fft.fft(h)) * spacing


class RampFilter:
    """Row-wise ramp filtering; symmetric, so applyT is apply."""

    def __init__(self, n_det: int, spacing: float):
        self.n_det = n_det
        self.n_pad = _pad_length(n_det)
        self.response = ramp_response(self.n_pad, spacing)

    def apply(self, rows: np.ndarray) -> np.ndarray:
        padded = np.zeros(rows.shape[:-1] + (self.n_pad,))
        padded[..., : self.n_det] = rows
        filt = np.fft.ifft(np.fft.fft(padded, axis=-1) * self.response, axis=-1)
        return np.real(filt[..., : self.n_det])

    applyT = apply


def _pixel_taps(geom: ScanGeometry, view: int) -> list:
    """Detector taps and pixel weights of full-view index `view`.

    The `projector._OrbitCore` builder: one group covering every detector
    cell, with (m1*m2,) index and weight arrays into the row.
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


class PixelBackprojector:
    """Interpolating backprojection over the subset's views.

    Fan beam folds the inverse-squared magnification weight into each
    pixel's contribution. apply gathers from detector rows; applyT
    scatters back with identical weights, so the pair is an exact
    transpose.
    """

    def __init__(self, geom: ScanGeometry, subset: ViewSubset | None = None):
        self.geom = geom
        self._core = _OrbitCore(geom, subset, _pixel_taps, geom.grid[0] * geom.grid[1])
        self.subset = self._core.subset
        self.in_shape = self._core.rows_shape
        self.out_shape = geom.grid

    def apply(self, rows: np.ndarray) -> np.ndarray:
        return self._core.rows_to_image(rows)

    def applyT(self, img: np.ndarray) -> np.ndarray:
        return self._core.image_to_rows(img, transpose=True)


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
        if geom.beam == FAN:
            ds, dd = geom.src_dist, geom.det_dist
            virt = geom.det_offsets * ds / (ds + dd)
            self._preweight = ds / np.sqrt(ds * ds + virt * virt)
            self._ramp = RampFilter(geom.n_det, geom.det_spacing * ds / (ds + dd))
        else:
            self._preweight = None
            self._ramp = RampFilter(geom.n_det, geom.det_spacing)

    def apply(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        if self._preweight is not None:
            y = y * self._preweight
        return self.scale * self._bp.apply(self._ramp.apply(y))

    def applyT(self, x: np.ndarray) -> np.ndarray:
        rows = self._ramp.apply(self._bp.applyT(np.asarray(x, dtype=np.float64)))
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
    """

    def __init__(self, geom: ScanGeometry, subset: ViewSubset):
        self.geom = geom
        self.subset = _view_subset(geom, subset)
        q1, n = subset.q1, geom.n_det
        self.in_shape = (q1, n)
        self.out_shape = (geom.n_views_full, n)
        period = geom.angular_range
        sparse = geom.view_angles_full[subset.indices]
        # Extend one sample beyond each end so every full angle has a bracket.
        ext = np.concatenate(([sparse[-1] - period], sparse, [sparse[0] + period]))
        src = np.concatenate(([q1 - 1], np.arange(q1), [0]))
        flip = np.zeros(q1 + 2, dtype=bool)
        flip[0] = flip[-1] = geom.beam == PARALLEL
        full = geom.view_angles_full
        hi = np.searchsorted(ext, full, side="right")
        lo = hi - 1
        w = (full - ext[lo]) / (ext[hi] - ext[lo])
        # One flat table into the flattened sparse sinogram, with the wrap
        # flips folded into its detector indices.
        det = np.arange(n)
        i0, i1 = (
            (src[e][:, None] * n + np.where(flip[e][:, None], det[::-1], det)).ravel()
            for e in (lo, hi)
        )
        self._taps = (i0, i1, np.repeat(1.0 - w, n), np.repeat(w, n))

    def apply(self, y: np.ndarray) -> np.ndarray:
        y = _checked(y, self.in_shape, "sinogram")
        return _gather(y.ravel(), *self._taps).reshape(self.out_shape)

    def applyT(self, y_full: np.ndarray) -> np.ndarray:
        y_full = _checked(y_full, self.out_shape, "sinogram")
        rows = _scatter(y_full.ravel(), *self._taps, np.zeros(math.prod(self.in_shape)))
        return rows.reshape(self.in_shape)


def upsample_views(y: Sinogram) -> Sinogram:
    """Interpolate a sparse sinogram onto the full view set."""
    up = ViewUpsampler(y.geom, y.subset)
    return Sinogram(up.apply(y.data), y.geom, full_subset(y.geom))
