"""Ray-driven forward projection and the two-tap core shared by all operators.

Line integrals are accumulated by stepping along the dominant ray axis one
pixel plane at a time and linearly interpolating between the two pixels the
ray passes between (Joseph-style sampling).

The projector, the backprojector (fbp.PixelBackprojector) and the view
upsampler (fbp.ViewUpsampler) are one kind of operator: each output sample
is w0*src[i0] + w1*src[i1], and the transpose scatters with the same index
and weight tables, so each pair is an exact transpose to rounding. `_gather`
and `_scatter` are that pair. `_OrbitCore` runs it over a view subset for the
projector and the backprojector: it checks the subset and each input against
the scan (`geometry._view_subset`, `geometry._checked`), caches the tables,
and owns the two orbit loops (image -> rows and rows -> image). Tables are
built once per orbit of views under the 8 symmetries of the square
(`geometry.view_orbits`): on a square grid, views a quarter turn apart or
mirror images about the grid's diagonal share one table, and each is
gathered from (or accumulated into) a turned or transposed copy of the
image, a mirrored view with its detector row reversed. Other grids build one
table per view. Each operator supplies only a module-level builder of its
tables.

Kept tables live in one process-wide store (`_STORE`), keyed by builder,
geometry fingerprint and representative view, so every operator over an
equal geometry reads the same tables, whoever built them first.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from .geometry import (
    PARALLEL,
    Image,
    ScanGeometry,
    Sinogram,
    ViewSubset,
    _checked,
    _view_subset,
    view_orbits,
)

# Byte budget of the process-wide `_STORE`, and the admission limit of one
# `_OrbitCore`: its tables are kept across calls only when an estimate over
# its orbit representatives (32 bytes per tap: two int64 indices and two
# float64 weights) fits, since large geometries would otherwise pin
# gigabytes. Without admission, each call rebuilds one table per orbit, which
# costs about ten times the gather that uses it. At 128x128 with 256 fan
# views the full view set has 33 representatives: about 33 MiB of projector
# tables and 17 MiB of backprojector taps, which every subset shares.
_CACHE_LIMIT_BYTES = 64 * 2**20


def _nbytes(value) -> int:
    """Bytes of a value as arrays, through nested lists and tuples."""
    if isinstance(value, (list, tuple)):
        return sum(_nbytes(v) for v in value)
    return np.asarray(value).nbytes


class _Store:
    """Least-recently-used values under one byte budget, built on a miss.

    A key names what its value is (the module-level table builder, or a
    tag) and the geometry fingerprint it was computed on, so the store holds
    no operator. A value larger than the whole budget is returned unkept.
    The bookkeeping holds a lock, since operators in several threads share
    the store; two threads that miss one key may both build it.
    """

    def __init__(self, limit: int):
        self.limit = limit
        self.nbytes = 0
        self.entries: OrderedDict[tuple, tuple[object, int]] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: tuple, make):
        with self._lock:
            hit = self.entries.get(key)
            if hit is not None:
                self.entries.move_to_end(key)
                return hit[0]
        value = make()
        size = _nbytes(value)
        with self._lock:
            if size <= self.limit and key not in self.entries:
                while self.nbytes + size > self.limit:
                    self.nbytes -= self.entries.popitem(last=False)[1][1]
                self.entries[key] = (value, size)
                self.nbytes += size
        return value

    def clear(self) -> None:
        with self._lock:
            self.entries.clear()
            self.nbytes = 0


_STORE = _Store(_CACHE_LIMIT_BYTES)


def _gather(src, i0, i1, w0, w1):
    """w0*src[i0] + w1*src[i1], summed over the leading step axis of 2-D tables."""
    vals = w0 * src[i0] + w1 * src[i1]
    return vals.sum(axis=0) if vals.ndim == 2 else vals


def _scatter(vals, i0, i1, w0, w1, out):
    """Transpose of `_gather`: adds its scatter of vals into the flat `out`."""
    out += np.bincount(i0.ravel(), (w0 * vals).ravel(), minlength=out.size)
    out += np.bincount(i1.ravel(), (w1 * vals).ravel(), minlength=out.size)
    return out


def _turned(x, code: int) -> np.ndarray:
    """x under the symmetry of turn code `code` (`geometry.view_orbits`)."""
    x = np.rot90(x, code % 4)
    return x.T if code >= 4 else x


def _unturned(z, code: int) -> np.ndarray:
    """Adjoint (and inverse) of `_turned`."""
    return np.rot90(z.T if code >= 4 else z, -(code % 4))


class _OrbitCore:
    """Orbit loops and table lookup of a two-tap operator over a view subset.

    `build(geom, view)` returns the tables of full-view index `view` as a
    list of (sel, i0, i1, w0, w1) groups, where `sel` picks the detector
    cells of the row the group covers. The operator's `apply` is the gather
    direction of its tables and `applyT` the scatter direction. Tables that
    scatter into rows (the backprojector's) must select cells by a slice,
    since the scatter adds into a view of the output row. A mirrored view
    (code >= 4) reads and writes its row reversed. An admitted core keeps
    its tables in `_STORE`; any other rebuilds them per call.
    """

    def __init__(self, geom, subset, build, taps_per_view: float):
        self.geom = geom
        self.subset = _view_subset(geom, subset)
        self.orbits = view_orbits(geom, self.subset.indices)
        self.rows_shape = (self.subset.q1, geom.n_det)
        self._build = build
        self._fingerprint = geom.fingerprint
        self.admitted = len(self.orbits) * taps_per_view * 32 <= _CACHE_LIMIT_BYTES

    def tables(self, view: int) -> list:
        build, geom = self._build, self.geom
        if not self.admitted:
            return build(geom, view)
        return _STORE.get((build, self._fingerprint, view), lambda: build(geom, view))

    def image_to_rows(self, x, transpose: bool = False) -> np.ndarray:
        x = _checked(x, self.geom.grid, "image")
        flats = {}
        out = np.zeros(self.rows_shape)
        for rep, positions, codes in self.orbits:
            groups = self.tables(rep)
            for vi, code in zip(positions, codes):
                if code not in flats:
                    flats[code] = _turned(x, code).ravel()
                flat = flats[code]
                row = out[vi, ::-1] if code >= 4 else out[vi]
                for sel, i0, i1, w0, w1 in groups:
                    if transpose:
                        _scatter(flat, i0, i1, w0, w1, row[sel])
                    else:
                        row[sel] = _gather(flat, i0, i1, w0, w1)
        return out

    def rows_to_image(self, y, transpose: bool = False) -> np.ndarray:
        y = _checked(y, self.rows_shape, "sinogram")
        grid = self.geom.grid
        m = grid[0] * grid[1]
        accs: dict[int, np.ndarray] = {}
        for rep, positions, codes in self.orbits:
            groups = self.tables(rep)
            for vi, code in zip(positions, codes):
                if code not in accs:
                    accs[code] = np.zeros(m)
                acc = accs[code]
                row = y[vi, ::-1] if code >= 4 else y[vi]
                for sel, i0, i1, w0, w1 in groups:
                    if transpose:
                        _scatter(row[sel], i0, i1, w0, w1, acc)
                    else:
                        acc += _gather(row[sel], i0, i1, w0, w1)
        out = accs.pop(0, np.zeros(m)).reshape(grid)
        for code, acc in accs.items():
            out += _unturned(acc.reshape(grid), code)
        return out


def _joseph_tables(p_col, p_row, d_col, d_row, m1, m2, pixel_size):
    """Index/weight tables for one bundle of rays sharing a view.

    Rays are given by a point (p_col, p_row) in fractional index
    coordinates and a unit direction (d_col, d_row). Returns a list of
    (ray_sel, lin0, lin1, w0, w1) groups, one per dominant axis, where
    ray_sel picks the group's rays (a slice when it has them all) and
    lin*/w* are (n_steps, n_rays_in_group) tables into the flat image.
    """
    groups = []
    col_major = np.abs(d_col) >= np.abs(d_row)
    for sel, major_is_col in ((col_major, True), (~col_major, False)):
        if not np.any(sel):
            continue
        pc, pr = p_col[sel], p_row[sel]
        dc, dr = d_col[sel], d_row[sel]
        if major_is_col:
            steps = np.arange(m2, dtype=np.float64)[:, None]
            t = (steps - pc[None, :]) / dc[None, :]
            minor = pr[None, :] + t * dr[None, :]
            n_minor, stride_minor, step_stride = m1, m2, 1
            weight = pixel_size / np.abs(dc)
        else:
            steps = np.arange(m1, dtype=np.float64)[:, None]
            t = (steps - pr[None, :]) / dr[None, :]
            minor = pc[None, :] + t * dc[None, :]
            n_minor, stride_minor, step_stride = m2, 1, m2
            weight = pixel_size / np.abs(dr)
        fl = np.floor(minor)
        frac = minor - fl
        fl = fl.astype(np.int64)
        in0 = (fl >= 0) & (fl <= n_minor - 1)
        in1 = (fl >= -1) & (fl <= n_minor - 2)
        w0 = np.where(in0, (1.0 - frac) * weight[None, :], 0.0)
        w1 = np.where(in1, frac * weight[None, :], 0.0)
        base = (steps.astype(np.int64) * step_stride)
        lin0 = base + np.clip(fl, 0, n_minor - 1) * stride_minor
        lin1 = base + np.clip(fl + 1, 0, n_minor - 1) * stride_minor
        ray_sel = slice(None) if bool(np.all(sel)) else np.flatnonzero(sel)
        groups.append((ray_sel, lin0, lin1, w0, w1))
    return groups


def _view_rays(geom: ScanGeometry, angle: float):
    """(p_col, p_row, d_col, d_row) of every detector cell's ray at `angle`."""
    m1, m2 = geom.grid
    cc, cr = 0.5 * (m2 - 1), 0.5 * (m1 - 1)
    u = geom.det_offsets / geom.pixel_size
    cos, sin = np.cos(angle), np.sin(angle)
    if geom.beam == PARALLEL:
        # detector axis (-sin, cos), ray direction (cos, sin)
        p_col = cc - u * sin
        p_row = cr + u * cos
        d_col = np.full_like(u, cos)
        d_row = np.full_like(u, sin)
    else:
        src = np.array([cos, sin]) * (geom.src_dist / geom.pixel_size)
        det_c = -np.array([cos, sin]) * (geom.det_dist / geom.pixel_size)
        px = det_c[0] - u * sin
        py = det_c[1] + u * cos
        d_col = px - src[0]
        d_row = py - src[1]
        norm = np.hypot(d_col, d_row)
        d_col, d_row = d_col / norm, d_row / norm
        p_col = np.full_like(u, src[0] + cc)
        p_row = np.full_like(u, src[1] + cr)
    return p_col, p_row, d_col, d_row


def _ray_tables(geom: ScanGeometry, view: int) -> list:
    """Joseph tables of full-view index `view` (the `_OrbitCore` builder)."""
    rays = _view_rays(geom, float(geom.view_angles_full[view]))
    return _joseph_tables(*rays, *geom.grid, geom.pixel_size)


class JosephProjector:
    """Line-integral operator for the views of one subset.

    ``apply`` maps an (m1, m2) image to a (q1, n_det) sinogram in mm units;
    ``applyT`` is the exact transpose.
    """

    def __init__(self, geom: ScanGeometry, subset: ViewSubset | None = None):
        self.geom = geom
        m1, m2 = geom.grid
        # one tap per cell per step; a ray steps through about (m1 + m2) / 2 planes
        self._core = _OrbitCore(geom, subset, _ray_tables, (m1 + m2) * geom.n_det / 2)
        self.subset = self._core.subset
        self.in_shape = geom.grid
        self.out_shape = self._core.rows_shape

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self._core.image_to_rows(x)

    def applyT(self, y: np.ndarray) -> np.ndarray:
        return self._core.rows_to_image(y, transpose=True)


def forward_project(x: Image, subset: ViewSubset | None = None) -> Sinogram:
    """Project an image into sinogram space over the given views."""
    proj = JosephProjector(x.geom, subset)
    return Sinogram(proj.apply(x.data), x.geom, proj.subset)


def back_project(y: Sinogram) -> Image:
    """Exact adjoint of forward_project (not a filtered backprojection)."""
    proj = JosephProjector(y.geom, y.subset)
    return Image(proj.applyT(y.data), y.geom)


def dense_matrix_oracle(
    geom: ScanGeometry, subset: ViewSubset | None = None
) -> np.ndarray:
    """Explicit projection matrix, column j = projection of unit pixel j.

    Only for small grids; this is the reference the fast operators are
    tested against, not a production path.
    """
    m1, m2 = geom.grid
    if m1 * m2 > 4096:
        raise ValueError("dense oracle restricted to grids of <= 4096 pixels")
    proj = JosephProjector(geom, subset)
    n_rows = proj.out_shape[0] * proj.out_shape[1]
    mat = np.zeros((n_rows, m1 * m2))
    basis = np.zeros((m1, m2))
    for j in range(m1 * m2):
        basis.flat[j] = 1.0
        mat[:, j] = proj.apply(basis).ravel()
        basis.flat[j] = 0.0
    return mat
