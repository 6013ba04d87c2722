"""Ray-driven forward projection and its exact adjoint.

Line integrals are accumulated by stepping along the dominant ray axis one
pixel plane at a time and linearly interpolating between the two pixels the
ray passes between (Joseph-style sampling). The adjoint scatters with the
same index/weight tables the forward gathers with, so the two operators are
transposes of each other to rounding.

Tables are built once per quarter-turn orbit of views (`geometry.view_orbits`):
on a square grid, fan views a multiple of pi/2 apart, and parallel views pi/2
apart, share one table, and each is gathered from (or scattered into) an
np.rot90 copy of the image. Other grids build one table per view.
"""

from __future__ import annotations

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

# Per-geometry table cache is skipped above this many bytes, estimated over
# every view of the subset; large geometries would otherwise pin gigabytes.
# Above it, each call rebuilds one table per orbit, which costs about ten
# times the gather that uses it.
_CACHE_LIMIT_BYTES = 64 * 2**20


def _joseph_tables(p_col, p_row, d_col, d_row, m1, m2, pixel_size):
    """Index/weight tables for one bundle of rays sharing a view.

    Rays are given by a point (p_col, p_row) in fractional index
    coordinates and a unit direction (d_col, d_row). Returns a list of
    (ray_sel, lin0, lin1, w0, w1) groups, one per dominant axis, where
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
        ray_sel = None if bool(np.all(sel)) else np.flatnonzero(sel)
        groups.append((ray_sel, lin0, lin1, w0, w1))
    return groups


class JosephProjector:
    """Line-integral operator for the views of one subset.

    ``apply`` maps an (m1, m2) image to a (q1, n_det) sinogram in mm units;
    ``applyT`` is the exact transpose.
    """

    def __init__(self, geom: ScanGeometry, subset: ViewSubset | None = None):
        self.geom = geom
        self.subset = subset if subset is not None else full_subset(geom)
        if self.subset.indices[-1] >= geom.n_views_full:
            raise ValueError("subset index exceeds the full view count")
        self._orbits = view_orbits(geom, self.subset.indices)
        self.in_shape = geom.grid
        self.out_shape = (self.subset.q1, geom.n_det)
        m1, m2 = geom.grid
        est = self.subset.q1 * (m1 + m2) // 2 * geom.n_det * 32
        self._cache: dict[int, list] | None = (
            {} if est <= _CACHE_LIMIT_BYTES else None
        )

    # -- ray setup ---------------------------------------------------------

    def _view_rays(self, angle: float):
        g = self.geom
        m1, m2 = g.grid
        cc, cr = 0.5 * (m2 - 1), 0.5 * (m1 - 1)
        u = g.det_offsets / g.pixel_size
        cos, sin = np.cos(angle), np.sin(angle)
        if g.beam == PARALLEL:
            # detector axis (-sin, cos), ray direction (cos, sin)
            p_col = cc - u * sin
            p_row = cr + u * cos
            d_col = np.full_like(u, cos)
            d_row = np.full_like(u, sin)
        else:
            src = np.array([cos, sin]) * (g.src_dist / g.pixel_size)
            det_c = -np.array([cos, sin]) * (g.det_dist / g.pixel_size)
            px = det_c[0] - u * sin
            py = det_c[1] + u * cos
            d_col = px - src[0]
            d_row = py - src[1]
            norm = np.hypot(d_col, d_row)
            d_col, d_row = d_col / norm, d_row / norm
            p_col = np.full_like(u, src[0] + cc)
            p_row = np.full_like(u, src[1] + cr)
            return p_col, p_row, d_col, d_row
        return p_col, p_row, d_col, d_row

    def _view_tables(self, view: int):
        """Tables for full-view index `view`, cached by that index."""
        if self._cache is not None and view in self._cache:
            return self._cache[view]
        m1, m2 = self.geom.grid
        rays = self._view_rays(float(self.geom.view_angles_full[view]))
        tabs = _joseph_tables(*rays, m1, m2, self.geom.pixel_size)
        if self._cache is not None:
            self._cache[view] = tabs
        return tabs

    # -- operator interface --------------------------------------------------

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != self.in_shape:
            raise ValueError(f"expected image shape {self.in_shape}")
        flats = {}
        out = np.zeros(self.out_shape)
        for rep, positions, turns in self._orbits:
            tabs = self._view_tables(rep)
            for vi, k in zip(positions, turns):
                if k not in flats:
                    flats[k] = np.rot90(x, k).ravel()
                flat = flats[k]
                for ray_sel, lin0, lin1, w0, w1 in tabs:
                    vals = (w0 * flat[lin0] + w1 * flat[lin1]).sum(axis=0)
                    if ray_sel is None:
                        out[vi] = vals
                    else:
                        out[vi, ray_sel] = vals
        return out

    def applyT(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        if y.shape != self.out_shape:
            raise ValueError(f"expected sinogram shape {self.out_shape}")
        m = self.in_shape[0] * self.in_shape[1]
        accs: dict[int, np.ndarray] = {}
        for rep, positions, turns in self._orbits:
            tabs = self._view_tables(rep)
            for vi, k in zip(positions, turns):
                if k not in accs:
                    accs[k] = np.zeros(m)
                acc = accs[k]
                for ray_sel, lin0, lin1, w0, w1 in tabs:
                    row = y[vi] if ray_sel is None else y[vi, ray_sel]
                    acc += np.bincount(
                        lin0.ravel(), (w0 * row[None, :]).ravel(), minlength=m
                    )
                    acc += np.bincount(
                        lin1.ravel(), (w1 * row[None, :]).ravel(), minlength=m
                    )
        out = accs.pop(0, np.zeros(m)).reshape(self.in_shape)
        for k, acc in accs.items():
            out += np.rot90(acc.reshape(self.in_shape), -k)
        return out


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
