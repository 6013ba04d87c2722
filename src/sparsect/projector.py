"""Ray-driven forward projection and the tap-table core shared by all operators.

Line integrals are accumulated by stepping along the dominant ray axis one
pixel plane at a time and linearly interpolating between the two pixels the
ray passes between (Joseph-style sampling).

The projector, the backprojector (fbp.PixelBackprojector) and the view
upsampler (fbp.ViewUpsampler) are one kind of operator: each output sample
is a weighted sum of a few input samples, and each has an exact transpose
to rounding. The upsampler interpolates whole detector rows on its own.
The projector and the backprojector run on `_OrbitCore`: it checks the
subset and each input against the scan (`geometry._view_subset`,
`geometry._checked`), caches the tables, and owns the two orbit loops
(image -> rows and rows -> image). Tables are built once per orbit of
views under the 8 symmetries of the square (`geometry.view_orbits`): on a
square grid, views a quarter turn apart or mirror images about the grid's
diagonal share one table, and each is read from (or accumulated into) a
turned or transposed copy of the image, a mirrored view with its detector
row reversed. Other grids build one table per view. Each operator supplies
only a module-level builder of its tables.

Every table has one layout, a list of groups (cells, idx, stride, w_0,
..., w_K-1). `_gather` adds the sum of w_k * src[idx + k*stride] into
out[cells], and `_scatter` is its exact transpose. The projector's groups
map the image to detector cells; the backprojector's one group maps a
detector row to every pixel. A kept projector table derives its transpose
(`_transposed`) once, in the backprojector's layout, so the projector's
transpose gathers too; an unkept one scatters.

Kept tables live in one process-wide store (`_STORE`), keyed by what they
are (builder or derivation), geometry fingerprint and representative view,
so every operator over an equal geometry reads the same tables, whoever
built them first. The store also keeps the measured bytes of each
geometry's first table, which decide admission.

Each orbit loop runs a work list that `_OrbitCore` cuts into two parts at
construction: the orbits for image -> rows, the turn codes for rows ->
image. A loop that gathers, on a grid of at least `_SPLIT_PIXELS` pixels,
runs its second part on the one worker of a module-level thread pool while
the caller runs the first; every other call runs both in the caller. The
outputs are byte-identical either way.
"""

from __future__ import annotations

import os
import threading
from collections import Counter, OrderedDict
from functools import partial

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
# `_OrbitCore`: its tables are kept across calls only when 1.1 times its
# orbit representatives times the bytes of the first one's table fit (for
# the projector, its table plus the transpose it derives), since large
# geometries would otherwise pin gigabytes. The tables of other
# representatives differ in size: over all of them, the bytes kept divided
# by that product are 0.94-1.01 on the tested square scans and 0.80 on a
# fan wider than a quarter turn. The backprojector's table is 24 bytes
# per pixel in every view. Without admission, each call rebuilds one table
# per orbit, which costs about ten times the gather that uses it. At
# 128x128 with 256 fan views the full view set has 33 representatives:
# 29 MiB of projector tables with their transposes and 12.4 MiB of
# backprojector tables, which every subset shares.
_CACHE_LIMIT_BYTES = 64 * 2**20

# Threads an orbit loop may use: the caller and, where there are two
# cores, the one worker of `_POOL`, created on the first split call.
_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)
# Pixels of the grid from which an orbit loop that gathers splits between
# two threads (`_OrbitCore`).
_SPLIT_PIXELS = 112 * 112
_POOL = None
_POOL_LOCK = threading.Lock()


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
    The bookkeeping holds a lock, since operators in several threads, and
    the orbit loops' pool worker, share the store; two threads that miss
    one key may both build it. One split call never does: its parts look up
    disjoint orbits (image -> rows), or the caller looks up every table
    before the parts start (rows -> image).
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
        self.put(key, value)
        return value

    def put(self, key: tuple, value) -> None:
        """Keep `value` under `key` unless the key is kept or it exceeds the budget."""
        size = _nbytes(value)
        with self._lock:
            if size <= self.limit and key not in self.entries:
                while self.nbytes + size > self.limit:
                    self.nbytes -= self.entries.popitem(last=False)[1][1]
                self.entries[key] = (value, size)
                self.nbytes += size

    def clear(self) -> None:
        with self._lock:
            self.entries.clear()
            self.nbytes = 0


_STORE = _Store(_CACHE_LIMIT_BYTES)


def _first_tap(i0, i1, w1, stride: int):
    """Unclipped index of the first of two taps one `stride` apart.

    Builders clip both taps into the source, giving an outside tap zero
    weight. Where both land on one sample, only a first tap that fell off
    the low end leaves the second one weighted; there the first tap sits a
    stride below it, in the zero padding of the source.
    """
    return np.where((i0 == i1) & (w1 != 0), i0 - stride, i0)


def _image_pad(grid) -> int:
    """Zeros at each end of the flat image that the projector's tables index: one row."""
    return grid[1]


def _gather(src, table, out) -> None:
    """Adds the sum of w_k * src[idx + k*stride] over k, and over the steps
    of a 2-D idx, into out[cells], for each group (cells, idx, stride, w_0,
    ..., w_K-1) of `table`."""
    for group in table:
        cells, idx, stride, w0 = group[:4]
        vals = src.take(idx)
        vals *= w0
        shift = 0
        for w in group[4:]:
            shift += stride
            tap = src[shift:].take(idx)
            tap *= w
            vals += tap
        out[cells] += vals if vals.ndim == 1 else vals.sum(axis=0)


def _scatter(vals, table, acc) -> None:
    """Transpose of `_gather`: adds w_k * vals[cells] into acc[idx + k*stride]."""
    for group in table:
        cells, idx, stride = group[:3]
        v, flat = vals[cells], idx.ravel()
        for k, w in enumerate(group[3:]):
            dst = acc[k * stride:]
            dst += np.bincount(flat, (w * v).ravel(), minlength=dst.size)


def _transposed(groups, n_pixels: int, n_cells: int, pad: int) -> list:
    """The table of the transpose of the projector's table `groups`.

    It is one group over all pixels (cells `...`), with stride 1 and
    (n_pixels,) arrays into the detector row padded by one zero at each
    end: pixel p reads w_k[p] * row[idx[p] + k] over k < K. K is the
    widest span of cells that meet one pixel. A ray meets a pixel at most
    once, at the step of the pixel's plane and through one of its two
    taps, so each nonzero weight is one entry of some w_k.
    """
    parts = []
    for cells, idx, stride, w0, w1 in groups:
        ray = np.arange(n_cells)[cells]
        for shift, w in ((-pad, w0), (stride - pad, w1)):
            step, col = np.nonzero(w)
            parts.append((idx[step, col] + shift, ray[col], w[step, col]))
    lo = np.full(n_pixels, n_cells)
    hi = np.full(n_pixels, -1)
    for pix, cell, _ in parts:
        np.minimum.at(lo, pix, cell)
        np.maximum.at(hi, pix, cell)
    span = max(int((hi - lo).max()) + 1, 1)
    j0 = np.clip(lo, 0, n_cells - span)
    w = np.zeros((span, n_pixels))
    for pix, cell, wt in parts:
        w[cell - j0[pix], pix] = wt
    return [(..., j0 + 1, 1, *w)]


_KEEP, _REVERSE = slice(None), slice(None, None, -1)
# Per turn code: the axes to reverse, then whether to transpose. This is
# np.rot90(x, code % 4), transposed for code >= 4, as one slice view.
_TURNS = (
    ((_KEEP, _KEEP), False), ((_KEEP, _REVERSE), True),
    ((_REVERSE, _REVERSE), False), ((_REVERSE, _KEEP), True),
    ((_KEEP, _KEEP), True), ((_KEEP, _REVERSE), False),
    ((_REVERSE, _REVERSE), True), ((_REVERSE, _KEEP), False),
)


def _turned(x, code: int) -> np.ndarray:
    """View of x under the symmetry of turn code `code` (`geometry.view_orbits`)."""
    axes, transpose = _TURNS[code]
    x = x[axes]
    return x.T if transpose else x


def _unturned(z, code: int) -> np.ndarray:
    """Adjoint (and inverse) of `_turned`, also a view."""
    axes, transpose = _TURNS[code]
    return (z.T if transpose else z)[axes]


def _flat(img, pad: int) -> np.ndarray:
    """img flattened, with `pad` zeros at each end."""
    if not pad:
        return img.ravel()
    out = np.zeros(img.size + 2 * pad)
    out[pad:-pad].reshape(img.shape)[...] = img
    return out


def _stored_table(build, geom, fingerprint: str, view: int):
    """`build(geom, view)`, kept in `_STORE` under its builder, geometry and view."""
    return _STORE.get((build, fingerprint, view), lambda: build(geom, view))


def _run_part(kernel, tables, part, src, dst) -> None:
    """One part of an orbit loop: for each (rep, members) entry of `part`,
    `kernel(src[s], tables(rep), dst[d])` for each member (s, d)."""
    for rep, members in part:
        table = tables(rep)
        for s, d in members:
            kernel(src[s], table, dst[d])


def _pool():
    """The orbit loops' thread pool, created on the first split call."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            # Imported here: it loads `logging`, about 1 MiB of resident
            # memory that a process whose calls never split need not pay.
            from concurrent.futures import ThreadPoolExecutor
            _POOL = ThreadPoolExecutor(_WORKERS - 1, thread_name_prefix="orbit-loop")
        return _POOL


def _forget_pool() -> None:
    """In a forked child: the parent's worker thread does not exist there."""
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _orbit_loop(kernel, tables, work, src, dst, split: bool) -> None:
    """Run the work list `work` = (whole, (part_0, part_1)) of one orbit loop.

    A split call hands part 1 to the pool's worker and runs part 0 here;
    any other call runs `whole`, both parts merged in orbit order, here.
    """
    whole, (first, second) = work
    if not split:
        _run_part(kernel, tables, whole, src, dst)
        return
    future = _pool().submit(_run_part, kernel, tables, second, src, dst)
    try:
        _run_part(kernel, tables, first, src, dst)
    finally:
        future.result()


def _split_codes(orbits) -> tuple[set, set]:
    """Turn codes cut into two sets of about equal member count, largest first."""
    count = Counter(c for _, _, codes in orbits for c in codes)
    sets, load = (set(), set()), [0, 0]
    for code in sorted(count, key=lambda c: (-count[c], c)):
        j = int(load[1] < load[0])
        sets[j].add(code)
        load[j] += count[code]
    return sets


class _OrbitCore:
    """Orbit loops and table lookup of a tap-table operator over a view subset.

    `build(geom, view)` returns the table of full-view index `view`: a list
    of groups (cells, idx, stride, w_0, ..., w_K-1) that `_gather` reads
    and `_scatter` writes. The projector's table (`_ray_tables`) maps the
    flat image, with `_image_pad` zeros at each end, to the cells of a
    detector row, summing over the steps of (n_steps, n_cells) arrays; with
    `to_image` the table maps the detector row, with one zero at each end,
    to the pixels of the flat image in one group of (n_pixels,) arrays
    whose cells are `...`.

    `image_to_rows` and `rows_to_image` each run one orbit loop. The loop
    gathers where the table maps its input to its output and scatters
    where it maps the other way, except that `rows_to_image` of an admitted
    projector core gathers through the `_transposed` tables. A mirrored
    view (code >= 4) reads and writes its row reversed.

    Each loop runs a work list built here, once per core: a list of (rep,
    members) entries in orbit order, and the same work cut into two parts.
    `image_to_rows` cuts the orbits into two runs of about equal member
    count, so each view's row is written by one part. `rows_to_image` cuts
    the turn codes into two sets of about equal member count; each part
    adds into its own codes' accumulators only, in orbit order, and the
    accumulators are summed in the order in which each code first appears.
    So a split call and a serial one give byte-identical outputs. A serial
    call runs both parts merged in orbit order, so an unadmitted core
    builds each table once.

    A call splits, its part 1 run by the one worker of `_POOL` while the
    caller runs part 0, when its loop gathers (the projector's `apply`, an
    admitted projector's `applyT` and the backprojector's `apply`), the
    process may use two cores (`_WORKERS`), both parts have members, and
    the grid has at least `_SPLIT_PIXELS` pixels. The measure is the work
    of one member, not of the call: each member's gather is a few NumPy
    calls that release the interpreter lock, between Python steps that
    hold it, and on a small grid the two threads mostly wait for the lock.
    Split over serial time per call, parallel scans with 180 views, q=12
    to the full view set (2-vCPU x86, NumPy 2.4): 0.91-1.22 at 80x80,
    0.79-1.06 at 96x96, 0.72-0.91 at 112x112 and 0.63-0.82 at 128x128;
    1.16-1.25 at 64x64 with all views, though its lighter part holds as
    many member-pixels as 128x128 at q=45 (0.66). The toy scan, 32x32,
    never splits. Scatter loops stay serial: `np.bincount` holds the lock
    for most of its time, and a split backprojector `applyT` ran at
    0.93-1.07x the serial time at 128x128. A split `rows_to_image` of an
    admitted core looks up every table in the caller before the parts
    start, so each is built once, in orbit order. An unadmitted core builds
    its tables inside the part that uses them, so in `rows_to_image` both
    parts build each orbit's table; the full-view backprojector at 256x256
    (fan-1024 scaled) still ran at 0.74x the serial time.

    A pool task never submits to the pool, so concurrent callers cannot
    deadlock. It holds no reference to the core (`tables` is a partial of
    module-level functions), so a dropped operator is freed at once, as an
    operator that its core referenced back would not be. It calls no
    public function: the benchmark's tracer wraps those, and its span
    stack is not thread-safe.

    The core is admitted when its tables fit `_CACHE_LIMIT_BYTES`, judged
    at construction from the measured bytes of its first representative's
    table, and for the projector of that table's transpose too, derived and
    dropped. The store keeps that measure per geometry, so an equal
    operator builds nothing to judge, and keeps the table itself only for
    an admitted core. An admitted core keeps its tables in `_STORE`, where
    a projector core also keeps their transposes the first time
    `rows_to_image` runs. Any other core rebuilds its tables per call, and
    a projector core scatters through them in `rows_to_image`: deriving
    the transposes on each call takes about twice as long as that scatter
    at 256x256 with 45 parallel views, and as long at 512x512 with 64 fan
    views.
    """

    def __init__(self, geom, subset, build, to_image: bool):
        self.geom = geom
        self.subset = _view_subset(geom, subset)
        self.orbits = view_orbits(geom, self.subset.indices)
        self.rows_shape = (self.subset.q1, geom.n_det)
        self._build = build
        self._to_image = to_image
        self._fingerprint = geom.fingerprint
        rep = self.orbits[0][0]

        def measure() -> int:
            first = build(geom, rep)
            size = _nbytes(first) + (0 if to_image else _nbytes(self._derive_transpose(first)))
            if self._admits(size):
                _STORE.put((build, self._fingerprint, rep), first)
            return size

        self.admitted = self._admits(_STORE.get(((build, _nbytes), self._fingerprint, rep), measure))
        self.tables = (partial(_stored_table, build, geom, self._fingerprint) if self.admitted
                       else partial(build, geom))

        # image -> rows: member (code, (mirrored, position)) reads its code's
        # source and fills its own row.
        rows_work = [(rep, [(c, (int(c >= 4), vi)) for vi, c in zip(positions, codes)])
                     for rep, positions, codes in self.orbits]
        ends = np.cumsum([len(members) for _, members in rows_work])
        cut = int(np.argmin(np.abs(2 * ends - ends[-1]))) + 1
        self._rows_work = rows_work, (rows_work[:cut], rows_work[cut:])
        # rows -> image: member ((mirrored, position), code) reads its row
        # and adds into its code's accumulator.
        image_work = [(rep, [((int(c >= 4), vi), c) for vi, c in zip(positions, codes)])
                      for rep, positions, codes in self.orbits]
        parts = tuple([(rep, kept) for rep, members in image_work
                       if (kept := [m for m in members if m[1] in codes])]
                      for codes in _split_codes(self.orbits))
        self._image_work = image_work, parts
        self._codes = list(dict.fromkeys(c for _, _, codes in self.orbits for c in codes))

        big = _WORKERS > 1 and geom.grid[0] * geom.grid[1] >= _SPLIT_PIXELS
        self._split_rows = big and not to_image and all(self._rows_work[1])
        self._split_image = big and (to_image or self.admitted) and all(parts)

    def _admits(self, size: int) -> bool:
        return 1.1 * len(self.orbits) * size <= _CACHE_LIMIT_BYTES

    def _derive_transpose(self, table) -> list:
        grid = self.geom.grid
        return _transposed(table, grid[0] * grid[1], self.geom.n_det, _image_pad(grid))

    def transposed_tables(self, view: int):
        """The projector's table of `view` transposed (`_transposed`), derived once."""
        return _STORE.get(((self._build, _transposed), self._fingerprint, view),
                          lambda: self._derive_transpose(self.tables(view)))

    def image_to_rows(self, x) -> np.ndarray:
        x = _checked(x, self.geom.grid, "image")
        scatter = self._to_image
        pad = 0 if scatter else _image_pad(self.geom.grid)
        q1, n = self.rows_shape
        # Mirrored views fill their own rows unreversed, flipped once at the
        # end: adding into reversed row views is slower. A scattered row has
        # one zero of padding at each end.
        out = np.zeros((2, q1, n + 2 * scatter))
        srcs = {code: _flat(_turned(x, code), pad) for code in self._codes}
        _orbit_loop(_scatter if scatter else _gather, self.tables, self._rows_work, srcs, out,
                    self._split_rows)
        plain, mirrored = out
        row = slice(int(scatter), int(scatter) + n)
        return plain[:, row] + mirrored[:, ::-1][:, row]

    def rows_to_image(self, y) -> np.ndarray:
        y = _checked(y, self.rows_shape, "sinogram")
        grid = self.geom.grid
        m = grid[0] * grid[1]
        gather = self._to_image or self.admitted
        pad = 0 if gather else _image_pad(grid)
        # The rows, then the mirrored views' rows reversed, each contiguous.
        rows = np.zeros((2, y.shape[0], y.shape[1] + 2 * gather))
        rows[0, :, int(gather):int(gather) + y.shape[1]] = y
        rows[1] = rows[0, :, ::-1]
        tables = self.tables if self._to_image or not gather else self.transposed_tables
        if self._split_image and self.admitted:
            tables = {rep: tables(rep) for rep, _ in self._image_work[0]}.__getitem__
        accs = {code: np.zeros(m + 2 * pad) for code in self._codes}
        _orbit_loop(_gather if gather else _scatter, tables, self._image_work, rows, accs,
                    self._split_image)
        images = {code: acc[pad:pad + m].reshape(grid) for code, acc in accs.items()}
        out = images.pop(0, None)
        if out is None:
            out = np.zeros(grid)
        elif pad:
            out = out.copy()  # not a view into the padded accumulator
        for code, img in images.items():
            out += _unturned(img, code)
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


def _crossing(p_col, p_row, d_col, d_row, m1, m2) -> slice:
    """Cells from the first to the last ray with a nonzero Joseph weight.

    A ray has one where its minor coordinate at some step lies in
    (-1, n_minor). That coordinate is monotone in the step, in floating
    point too, and moves by at most about one per step, so a ray misses
    the grid exactly when its first and last steps fall on one side of
    that interval. The end coordinates use the arithmetic of
    `_joseph_tables`, so this agrees with its weights bit for bit.
    """
    col_major = np.abs(d_col) >= np.abs(d_row)
    hit = np.zeros(p_col.size, dtype=bool)
    for sel, (pa, pb, da, db), n_major, n_minor in (
        (col_major, (p_col, p_row, d_col, d_row), m2, m1),
        (~col_major, (p_row, p_col, d_row, d_col), m1, m2),
    ):
        first, last = (pb[sel] + ((s - pa[sel]) / da[sel]) * db[sel]
                       for s in (0.0, n_major - 1.0))
        hit[sel] = (np.maximum(first, last) > -1) & (np.minimum(first, last) < n_minor)
    rays = np.flatnonzero(hit)
    return slice(int(rays[0]), int(rays[-1]) + 1) if rays.size else slice(0, 0)


def _ray_tables(geom: ScanGeometry, view: int) -> list:
    """Joseph tables of full-view index `view`, in the row form of `_OrbitCore`.

    The `_OrbitCore` builder. Only the rays that cross the grid, one slice
    of cells, reach `_joseph_tables`. Each group keeps one index per tap,
    and selects its cells by a slice wherever they are consecutive.
    """
    m1, m2 = geom.grid
    rays = _view_rays(geom, float(geom.view_angles_full[view]))
    crossing = _crossing(*rays, m1, m2)
    rays = [r[crossing] for r in rays]
    col_major = np.abs(rays[2]) >= np.abs(rays[3])
    groups = []
    for sel, lin0, lin1, w0, w1 in _joseph_tables(*rays, m1, m2, geom.pixel_size):
        cells = np.arange(crossing.start, crossing.stop)[sel]
        stride = m2 if col_major[sel][0] else 1
        if cells[-1] - cells[0] == cells.size - 1:
            cells = slice(int(cells[0]), int(cells[-1]) + 1)
        idx = _first_tap(lin0, lin1, w1, stride) + _image_pad(geom.grid)
        groups.append((cells, idx, stride, w0, w1))
    return groups


class JosephProjector:
    """Line-integral operator for the views of one subset.

    ``apply`` maps an (m1, m2) image to a (q1, n_det) sinogram in mm units;
    ``applyT`` is the exact transpose.
    """

    def __init__(self, geom: ScanGeometry, subset: ViewSubset | None = None):
        self.geom = geom
        self._core = _OrbitCore(geom, subset, _ray_tables, False)
        self.subset = self._core.subset
        self.in_shape = geom.grid
        self.out_shape = self._core.rows_shape

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self._core.image_to_rows(x)

    def applyT(self, y: np.ndarray) -> np.ndarray:
        return self._core.rows_to_image(y)


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
