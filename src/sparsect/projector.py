"""Ray-driven forward projection and the two-tap core shared by all operators.

Line integrals are accumulated by stepping along the dominant ray axis one
pixel plane at a time and linearly interpolating between the two pixels the
ray passes between (Joseph-style sampling).

The projector, the backprojector (fbp.PixelBackprojector) and the view
upsampler (fbp.ViewUpsampler) are one kind of operator: each output sample
is w0*src[i0] + w1*src[i1], and the transpose scatters with the same index
and weight tables, so each pair is an exact transpose to rounding. `_gather`
and `_scatter` are that pair. `_OrbitCore` runs it over a view subset for the
projector and the backprojector: it validates the subset, caches the tables,
and owns the two orbit loops (image -> rows and rows -> image). Tables are
built once per quarter-turn orbit of views (`geometry.view_orbits`): on a
square grid, fan views a multiple of pi/2 apart, and parallel views pi/2
apart, share one table, and each is gathered from (or accumulated into) an
np.rot90 copy of the image. Other grids build one table per view. Each
operator supplies only a module-level builder of its tables.
"""

from __future__ import annotations

import numpy as np

from .geometry import (
    PARALLEL,
    Image,
    ScanGeometry,
    Sinogram,
    ViewSubset,
    full_subset,
    view_orbits,
)

# Per-operator cache limit of `_OrbitCore`: tables are kept across calls only
# when an estimate over every view of the subset (32 bytes per tap: two int64
# indices and two float64 weights) fits, since large geometries would
# otherwise pin gigabytes. Without a cache, each call rebuilds one table per
# orbit, which costs about ten times the gather that uses it.
_CACHE_LIMIT_BYTES = 64 * 2**20


def _checked(a, shape: tuple[int, int], kind: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.shape != shape:
        raise ValueError(f"expected {kind} shape {shape}")
    return a


def _view_subset(geom: ScanGeometry, subset: ViewSubset | None) -> ViewSubset:
    """The subset (all views if None), checked against the full view count."""
    subset = subset if subset is not None else full_subset(geom)
    if subset.indices[-1] >= geom.n_views_full:
        raise ValueError("subset index exceeds the full view count")
    return subset


def _gather(src, i0, i1, w0, w1):
    """w0*src[i0] + w1*src[i1], summed over the leading step axis of 2-D tables."""
    vals = w0 * src[i0] + w1 * src[i1]
    return vals.sum(axis=0) if vals.ndim == 2 else vals


def _scatter(vals, i0, i1, w0, w1, out):
    """Transpose of `_gather`: adds its scatter of vals into the flat `out`."""
    out += np.bincount(i0.ravel(), (w0 * vals).ravel(), minlength=out.size)
    out += np.bincount(i1.ravel(), (w1 * vals).ravel(), minlength=out.size)
    return out


class _OrbitCore:
    """Orbit loops and table cache of a two-tap operator over a view subset.

    `build(geom, view)` returns the tables of full-view index `view` as a
    list of (sel, i0, i1, w0, w1) groups, where `sel` picks the detector
    cells of the row the group covers. The operator's `apply` is the gather
    direction of its tables and `applyT` the scatter direction. Tables that
    scatter into rows (the backprojector's) must select cells by a slice,
    since the scatter adds into a view of the output row.
    """

    def __init__(self, geom, subset, build, taps_per_view: float):
        self.geom = geom
        self.subset = _view_subset(geom, subset)
        self.orbits = view_orbits(geom, self.subset.indices)
        self.rows_shape = (self.subset.q1, geom.n_det)
        self._build = build
        est = self.subset.q1 * taps_per_view * 32
        self.cache: dict[int, list] | None = {} if est <= _CACHE_LIMIT_BYTES else None

    def tables(self, view: int) -> list:
        if self.cache is None:
            return self._build(self.geom, view)
        if view not in self.cache:
            self.cache[view] = self._build(self.geom, view)
        return self.cache[view]

    def image_to_rows(self, x, transpose: bool = False) -> np.ndarray:
        x = _checked(x, self.geom.grid, "image")
        flats = {}
        out = np.zeros(self.rows_shape)
        for rep, positions, turns in self.orbits:
            groups = self.tables(rep)
            for vi, k in zip(positions, turns):
                if k not in flats:
                    flats[k] = np.rot90(x, k).ravel()
                flat = flats[k]
                for sel, i0, i1, w0, w1 in groups:
                    if transpose:
                        _scatter(flat, i0, i1, w0, w1, out[vi, sel])
                    else:
                        out[vi, sel] = _gather(flat, i0, i1, w0, w1)
        return out

    def rows_to_image(self, y, transpose: bool = False) -> np.ndarray:
        y = _checked(y, self.rows_shape, "sinogram")
        grid = self.geom.grid
        m = grid[0] * grid[1]
        accs: dict[int, np.ndarray] = {}
        for rep, positions, turns in self.orbits:
            groups = self.tables(rep)
            for vi, k in zip(positions, turns):
                if k not in accs:
                    accs[k] = np.zeros(m)
                acc = accs[k]
                for sel, i0, i1, w0, w1 in groups:
                    if transpose:
                        _scatter(y[vi, sel], i0, i1, w0, w1, acc)
                    else:
                        acc += _gather(y[vi, sel], i0, i1, w0, w1)
        out = accs.pop(0, np.zeros(m)).reshape(grid)
        for k, acc in accs.items():
            out += np.rot90(acc.reshape(grid), -k)
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
    sub = subset if subset is not None else full_subset(x.geom)
    proj = JosephProjector(x.geom, sub)
    return Sinogram(proj.apply(x.data), x.geom, sub)


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
