"""Filtered backprojection and view-axis upsampling.

Both are plain linear operators with explicit transposes so the network can
differentiate through them. The ramp filter is the band-limited Ram-Lak
kernel evaluated via FFT on rows zero-padded to the next power of two at or
above twice the detector count; no apodization window is applied.

The backprojector builds its per-view taps once per quarter-turn orbit of
views (`geometry.view_orbits`), on every call: on a square grid, fan views a
multiple of pi/2 apart, and parallel views pi/2 apart, share one set of taps,
and each is accumulated into (or gathered from) an np.rot90 copy of the
image. Other grids build taps for every view.
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
    view_orbits,
)


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


class PixelBackprojector:
    """Interpolating backprojection over the subset's views.

    Fan beam folds the inverse-squared magnification weight into each
    pixel's contribution. apply gathers from detector rows; applyT
    scatters back with identical weights, so the pair is an exact
    transpose.
    """

    def __init__(self, geom: ScanGeometry, subset: ViewSubset | None = None):
        self.geom = geom
        self.subset = subset if subset is not None else full_subset(geom)
        self._orbits = view_orbits(geom, self.subset.indices)
        self.in_shape = (self.subset.q1, geom.n_det)
        self.out_shape = geom.grid
        m1, m2 = geom.grid
        cols = (np.arange(m2) - 0.5 * (m2 - 1)) * geom.pixel_size
        rows = (np.arange(m1) - 0.5 * (m1 - 1)) * geom.pixel_size
        cgrid, rgrid = np.meshgrid(cols, rows)
        self._px = cgrid.ravel()
        self._py = rgrid.ravel()
        if geom.beam == FAN:
            ds, dd = geom.src_dist, geom.det_dist
            self._virtual_spacing = geom.det_spacing * ds / (ds + dd)
        else:
            self._virtual_spacing = geom.det_spacing

    def _view_taps(self, view: int):
        """Detector positions and pixel weights for full-view index `view`."""
        g = self.geom
        angle = float(g.view_angles_full[view])
        cos, sin = math.cos(angle), math.sin(angle)
        if g.beam == PARALLEL:
            u = -self._px * sin + self._py * cos
            wpix = None
        else:
            dist = g.src_dist - (self._px * cos + self._py * sin)
            u = g.src_dist * (-self._px * sin + self._py * cos) / dist
            mag = dist / g.src_dist
            wpix = 1.0 / (mag * mag)
        tpos = u / self._virtual_spacing + 0.5 * (g.n_det - 1)
        i0 = np.floor(tpos)
        frac = tpos - i0
        i0 = i0.astype(np.int64)
        in0 = (i0 >= 0) & (i0 <= g.n_det - 1)
        in1 = (i0 >= -1) & (i0 <= g.n_det - 2)
        w0 = np.where(in0, 1.0 - frac, 0.0)
        w1 = np.where(in1, frac, 0.0)
        if wpix is not None:
            w0 = w0 * wpix
            w1 = w1 * wpix
        return np.clip(i0, 0, g.n_det - 1), np.clip(i0 + 1, 0, g.n_det - 1), w0, w1

    def apply(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.float64)
        if rows.shape != self.in_shape:
            raise ValueError(f"expected sinogram shape {self.in_shape}")
        accs: dict[int, np.ndarray] = {}
        for rep, positions, turns in self._orbits:
            i0, i1, w0, w1 = self._view_taps(rep)
            for vi, k in zip(positions, turns):
                if k not in accs:
                    accs[k] = np.zeros(self._px.size)
                acc = accs[k]
                r = rows[vi]
                acc += w0 * r[i0] + w1 * r[i1]
        out = accs.pop(0, np.zeros(self._px.size)).reshape(self.out_shape)
        for k, acc in accs.items():
            out += np.rot90(acc.reshape(self.out_shape), -k)
        return out

    def applyT(self, img: np.ndarray) -> np.ndarray:
        img = np.asarray(img, dtype=np.float64)
        if img.shape != self.out_shape:
            raise ValueError(f"expected image shape {self.out_shape}")
        flats = {}
        out = np.zeros(self.in_shape)
        for rep, positions, turns in self._orbits:
            i0, i1, w0, w1 = self._view_taps(rep)
            for vi, k in zip(positions, turns):
                if k not in flats:
                    flats[k] = np.rot90(img, k).ravel()
                flat = flats[k]
                out[vi] = np.bincount(i0, w0 * flat, minlength=self.geom.n_det)
                out[vi] += np.bincount(i1, w1 * flat, minlength=self.geom.n_det)
        return out


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
        self.subset = subset if subset is not None else full_subset(geom)
        self._bp = PixelBackprojector(geom, self.subset)
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
        self.subset = subset
        self.in_shape = (subset.q1, geom.n_det)
        self.out_shape = (geom.n_views_full, geom.n_det)
        period = geom.angular_range
        wrap_flips = geom.beam == PARALLEL
        sparse = geom.view_angles_full[subset.indices]
        # Extend one sample beyond each end so every full angle has a bracket.
        ext = np.concatenate(([sparse[-1] - period], sparse, [sparse[0] + period]))
        src = np.concatenate(([subset.q1 - 1], np.arange(subset.q1), [0]))
        flip = np.zeros(subset.q1 + 2, dtype=bool)
        flip[0] = flip[-1] = wrap_flips
        full = geom.view_angles_full
        hi = np.searchsorted(ext, full, side="right")
        lo = hi - 1
        span = ext[hi] - ext[lo]
        w = (full - ext[lo]) / span
        self._ia, self._ib = src[lo], src[hi]
        self._fa, self._fb = flip[lo], flip[hi]
        self._wa, self._wb = 1.0 - w, w

    def apply(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        if y.shape != self.in_shape:
            raise ValueError(f"expected sinogram shape {self.in_shape}")
        ra = y[self._ia]
        rb = y[self._ib]
        ra[self._fa] = ra[self._fa, ::-1]
        rb[self._fb] = rb[self._fb, ::-1]
        return self._wa[:, None] * ra + self._wb[:, None] * rb

    def applyT(self, y_full: np.ndarray) -> np.ndarray:
        y_full = np.asarray(y_full, dtype=np.float64)
        if y_full.shape != self.out_shape:
            raise ValueError(f"expected sinogram shape {self.out_shape}")
        out = np.zeros(self.in_shape)
        for idx, flips, ww in (
            (self._ia, self._fa, self._wa),
            (self._ib, self._fb, self._wb),
        ):
            rows = ww[:, None] * y_full
            rows[flips] = rows[flips, ::-1]
            np.add.at(out, idx, rows)
        return out


def upsample_views(y: Sinogram) -> Sinogram:
    """Interpolate a sparse sinogram onto the full view set."""
    up = ViewUpsampler(y.geom, y.subset)
    return Sinogram(up.apply(y.data), y.geom, full_subset(y.geom))
