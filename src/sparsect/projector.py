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
diagonal share one table, and each reads a turned or transposed copy of
the image, a mirrored view with its detector row reversed. Other grids
build one table per view. Each operator supplies only a module-level
builder of its tables.

Every loop gathers. A table is a list of groups (cells, idx, stride, w_0,
..., w_K-1), and `_gather` adds the sum of w_k * src[idx + k*stride] into
out[cells]. The projector's groups map the image to detector cells; the
backprojector's one group maps a detector row to every pixel. Against its
table's direction an operator gathers through the table's transpose,
derived from the table alone: the projector's `_ray_transpose`, in the
backprojector's layout, and the backprojector's `_runs_by_cell`, its
pixels in detector-cell order, one run per cell (`_gather_runs`). So a
kept table and a rebuilt one give the same bytes.

Kept tables live in one process-wide store (`_STORE`), keyed by what they
are (builder or derivation), geometry fingerprint and representative view,
so every operator over an equal geometry reads the same tables, whoever
built them first. The store also keeps the measured bytes of each
geometry's first table, which decide admission.

On grids of at least `_SPLIT_PIXELS` pixels an orbit loop runs half its
work on the one worker of a module-level thread pool. On smaller grids a
kept core whose tables fit `_FUSE_BYTES` (every core of the toy scan) runs
fused loops over tables laid out for all members at once. Either way the
outputs are byte-identical to the serial member loops' (`_OrbitCore`).
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
# Pixels of the grid from which an orbit loop splits between two threads
# (`_OrbitCore`).
_SPLIT_PIXELS = 112 * 112
# Bytes of a core's tables, as admission measures them (its orbit count
# times the bytes of its first representative's table), up to which an
# admitted core on a grid of fewer than `_SPLIT_PIXELS` pixels runs fused
# loops (`_OrbitCore`). Fused over member loops, per call (2-vCPU x86,
# NumPy 2.4, projector apply / applyT, backprojector apply / applyT):
# the toy scan (32x32, 60 fan views; 0.21 and 0.19 MiB) 0.19 / 0.54 /
# 0.53 / 0.38 on the full view set and 0.72 / 0.88 / 0.89 / 0.31 at q=15;
# 48x48 with 120 parallel views at q=12 (0.50 and 0.21 MiB) 0.72-0.93,
# and 0.38 for the backprojector's applyT. Above the limit the projector's
# apply, which gathers every orbit for each turn code, can lose: 64x64
# with 180 views at q=45 (5.2 and 2.2 MiB) 2.07 / 0.91 / 0.97 / 0.25, and
# 96x96 with 180 views 1.12-1.40 for the projector's apply.
_FUSE_BYTES = 2**20
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

    def peek(self, key: tuple):
        """The value kept under `key`, or None, building nothing."""
        with self._lock:
            hit = self.entries.get(key)
        return None if hit is None else hit[0]

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


def _gather_runs(src, table, out) -> None:
    """Adds into out[..., cells] the sum of each run of w * src[..., order]
    for a `_runs_by_cell` table (order, starts, cells, w): one run per
    cell, from its start to the next. A 2-D src and out hold one member per
    row."""
    order, starts, cells, w = table
    vals = src.take(order, axis=-1)
    vals *= w
    out[..., cells] += np.add.reduceat(vals, starts, axis=-1)


def _runs_by_cell(geom, table) -> tuple:
    """The transpose of a table in pixel form, as `_gather_runs` reads it.

    `table` is one group over all pixels (cells `...`, stride 1) into the
    detector row with one zero at each end: pixel p reads w_k[p] *
    row[idx[p] + k]. Its (tap, pixel) entries are sorted by the cell they
    read, stably, and those that read the row's zeros are dropped. `order`
    holds each entry's pixel, offset by `_image_pad` into the padded image
    that the loops read, and `w` its weight; `starts` is where each cell's
    run begins, and `cells` the cells, a slice wherever they are
    consecutive.
    """
    [(_, idx, _, *weights)] = table
    cell = (idx + np.arange(len(weights))[:, None]).ravel()
    # Sorted as the narrowest unsigned integers that hold them: NumPy's
    # stable sort of those is a radix sort, 3-4x faster than of int64.
    order = np.argsort(cell.astype(np.min_scalar_type(geom.n_det + 1)), kind="stable")
    # Where the entries of padded cells 1, ..., n_det + 1 begin: cell 0 and
    # cell n_det + 1 are the zeros.
    bounds = np.searchsorted(cell.take(order), np.arange(1, geom.n_det + 2))
    read = bounds[1:] > bounds[:-1]
    cells = np.flatnonzero(read)
    if cells.size and cells[-1] - cells[0] == cells.size - 1:
        cells = slice(int(cells[0]), int(cells[-1]) + 1)
    order = order[bounds[0]:bounds[-1]]
    pixel = np.broadcast_to(np.arange(idx.size), (len(weights), idx.size)).ravel()
    return (pixel.take(order) + _image_pad(geom.grid), bounds[:-1][read] - bounds[0], cells,
            np.concatenate(weights).take(order))


def _derived(derive, tables, key, view):
    """`derive(tables(view))`, kept in `_STORE` under (*key, view) unless key is None."""
    if key is None:
        return derive(tables(view))
    return _STORE.get((*key, view), lambda: derive(tables(view)))


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


def _full_orbits(geom, fingerprint: str) -> list:
    """`view_orbits` of the full view set, kept in `_STORE` per geometry."""
    return _STORE.get((view_orbits, fingerprint),
                      lambda: view_orbits(geom, np.arange(geom.n_views_full)))


def _fused_rows_table(table_of, n_det: int, reps) -> tuple:
    """The projector's tables `table_of(rep)` of the representatives
    `reps`, side by side.

    Returns (groups, columns, width). Each group (i0, i1, w0, w1, first, stop)
    holds (n_steps, n) arrays: column j adds src[i0] * w0 + src[i1] * w1
    over the steps, i1 being i0 plus the source table's stride, into
    result column first + j. Tables are grouped by step count, so a square
    grid has one group: with a group per stride, as `_gather` needs, the
    toy projector's `apply` took 90 against 58 us per call.
    `columns[r, cell]` is the result column of the cell in the table of
    reps[r], or the last of the `width` columns, which no group fills, for
    a cell that no ray of the view reaches.
    """
    tables = [table_of(rep) for rep in reps]
    columns = np.full((len(tables), n_det), -1)
    groups, stop = [], 0
    for n_steps in sorted({group[1].shape[0] for table in tables for group in table}):
        parts = [(r, group) for r, table in enumerate(tables) for group in table
                 if group[1].shape[0] == n_steps]
        first = stop
        for r, (cells, idx, _, _, _) in parts:
            columns[r, cells] = stop + np.arange(idx.shape[1])
            stop += idx.shape[1]
        side_by_side = partial(np.concatenate, axis=1)
        groups.append((side_by_side([g[1] for _, g in parts]),
                       side_by_side([g[1] + g[2] for _, g in parts]),
                       side_by_side([g[3] for _, g in parts]),
                       side_by_side([g[4] for _, g in parts]), first, stop))
    columns[columns < 0] = stop
    return groups, columns, stop + 1


def _fused_image_table(table_of, width: int, orbits) -> list:
    """Per (rep, size) of `orbits`, the table `table_of(rep)` for `size` members.

    `table_of(rep)` is a one-group table over all pixels (cells `...`,
    stride 1) into a detector row of `width` samples, one zero at each
    end. Each entry (idx, w_0, ..., w_K-1) keeps the orbit's weights once,
    and a (size, n_pixels) idx whose row j reads row j of a stack of such
    rows: pixel p of member j reads w_k[p] times entry idx[j, p] + k of
    the flattened stack; row 0 is the representative's own index.
    """
    fused = []
    for rep, size in orbits:
        [(_, idx, _, *weights)] = table_of(rep)
        fused.append((idx + width * np.arange(size)[:, None], *weights))
    return fused


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

    `build(geom, view)` returns the table of full-view index `view`. The
    projector's table (`_ray_tables`) maps the flat image, with
    `_image_pad` zeros at each end, to the cells of a detector row, summing
    over the steps of (n_steps, n_cells) arrays; with `to_image` the table
    maps the detector row, with one zero at each end, to the pixels of the
    flat image in one group of (n_pixels,) arrays whose cells are `...`.
    `image_to_rows` and `rows_to_image` each run one orbit loop of
    gathers, through the table or, against its direction, through its
    transpose. A mirrored view (code >= 4) reads and writes its row
    reversed.

    Each loop runs a work list built here: (rep, members) entries in orbit
    order, and the same work cut into two parts. `image_to_rows` cuts the
    orbits into two runs of about equal member count, so each view's row is
    written by one part. `rows_to_image` cuts the turn codes into two sets
    of about equal member count; each part adds into its own codes'
    accumulators only, in orbit order, and the accumulators are summed in
    the order in which each code first appears. So a split call and a
    serial one give byte-identical outputs. A serial call runs both parts
    merged in orbit order, so an unadmitted core builds each table once.

    A call splits, its part 1 run by the one worker of `_POOL` while the
    caller runs part 0, when the process may use two cores (`_WORKERS`),
    both parts have members, and the grid has at least `_SPLIT_PIXELS`
    pixels. Each member's gather is a few NumPy calls that release the
    interpreter lock, between Python steps that hold it; on a small grid
    the threads mostly wait for the lock. Split over serial time per call,
    parallel scans with 180 views, q=12 to the full view set (2-vCPU x86,
    NumPy 2.4): 0.91-1.22 at 80x80, 0.79-1.06 at 96x96, 0.72-0.91 at
    112x112 and 0.63-0.82 at 128x128. The measure is one member's work,
    not the call's: 64x64 with all views ran at 1.16-1.25, though its
    lighter part holds as many member-pixels as 128x128 at q=45 (0.66).
    A split `rows_to_image` of an
    admitted core looks up every table in the caller before the parts
    start, so each is built once. An unadmitted core builds its tables in
    the part that uses them, so in `rows_to_image` both parts build every
    orbit's table; at 256x256 (fan-1024 scaled, full view set) that still
    ran at 0.74x the serial time for the backprojector and 0.86-0.98x for
    the projector's transpose, which derives each transpose twice too.
    A pool task never submits to the pool, so concurrent callers cannot
    deadlock. It holds no reference to the core (its tables are partials of
    module-level functions), so a dropped operator is freed at once. It
    calls no public function: the benchmark's tracer wraps those, and its
    span stack is not thread-safe.

    A core is fused when it is admitted, its grid has fewer than
    `_SPLIT_PIXELS` pixels, and its orbit count times the measured bytes of
    its first representative's table is at most `_FUSE_BYTES`. A fused core
    runs no member loop and never splits. The projector's image -> rows
    gathers, for each turn code, every orbit's columns of
    `_fused_rows_table` from that code's turned image, then takes each
    view's cells, a mirrored view's reversed; columns a code does not need
    are computed and dropped, a waste the limit keeps small. The other
    loops run once per orbit: rows -> image gathers the orbit's members'
    rows, stacked, with one index (`_fused_image_table`) and adds each
    member into its code's accumulator; the backprojector's image -> rows
    runs `_gather_runs` on the members' turned images as rows of one array.
    Sums over the steps axis and `np.add.reduceat` along a row add as they
    do for one member, so every output byte equals the member loops'. The
    fused tables are kept in `_STORE` under the geometry and the orbit
    representatives, so the toy subsets, which share their eight, share one
    of each. They are built from the kept representatives' tables where
    the store holds them, else from tables built and dropped.

    The core is admitted when its tables fit `_CACHE_LIMIT_BYTES`, judged
    at construction from the measured bytes of its first representative's
    table, and for the projector of its transpose too. The store keeps that
    measure per geometry, so an equal operator builds nothing to judge. An
    admitted core keeps its tables in `_STORE`, and a projector core their
    transposes; any other core rebuilds both per call. The backprojector's
    `_runs_by_cell` tables are derived per call and kept only in fused
    cores, where they are small, so admission never counts them: at
    `fan-1024` with q=64 the backprojector is admitted with 59.4 of its
    64 MiB, and deriving the cell order costs about as much as building the
    table (0.97 against 0.83 ms per orbit at 256x256).
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
            size = _nbytes(first) + (0 if to_image else _nbytes(_ray_transpose(geom, first)))
            if self._admits(size):
                _STORE.put((build, self._fingerprint, rep), first)
            return size

        size = _STORE.get(((build, _nbytes), self._fingerprint, rep), measure)
        self.admitted = self._admits(size)
        self.tables = (partial(_stored_table, build, geom, self._fingerprint) if self.admitted
                       else partial(build, geom))
        # (kernel, tables) of each loop; the tables of a loop against the
        # table's direction are its transposes.
        if to_image:
            runs = partial(_derived, partial(_runs_by_cell, geom), self.tables, None)
            self._rows_loop, self._image_loop = (_gather_runs, runs), (_gather, self.tables)
        else:
            key = ((build, _ray_transpose), self._fingerprint) if self.admitted else None
            transposes = partial(_derived, partial(_ray_transpose, geom), self.tables, key)
            self._rows_loop, self._image_loop = (_gather, self.tables), (_gather, transposes)
        self.fused = (self.admitted and geom.grid[0] * geom.grid[1] < _SPLIT_PIXELS
                      and len(self.orbits) * size <= _FUSE_BYTES)

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

        if self.fused:
            # The members' rows in the stack of plain then mirrored rows, in
            # orbit order; per orbit, its members' span of that order and
            # their codes' accumulators (a slice where they are consecutive).
            slot = {code: k for k, code in enumerate(self._codes)}
            self._fused_sel = np.array([int(c >= 4) * self.subset.q1 + vi
                                        for _, positions, codes in self.orbits
                                        for vi, c in zip(positions, codes)])
            self._fused_work, start = [], 0
            for rep, positions, codes in self.orbits:
                slots = [slot[c] for c in codes]
                if slots == list(range(slots[0], slots[0] + len(slots))):
                    slots = slice(slots[0], slots[0] + len(slots))
                else:
                    slots = np.array(slots)
                self._fused_work.append((start, start + len(codes), slots))
                start += len(codes)
            self._rows_map = None
            self._fused_key = (self._fingerprint, tuple(rep for rep, _, _ in self.orbits))

        big = _WORKERS > 1 and geom.grid[0] * geom.grid[1] >= _SPLIT_PIXELS
        self._split_rows = big and all(self._rows_work[1])
        self._split_image = big and all(parts)

    def _admits(self, size: int) -> bool:
        return 1.1 * len(self.orbits) * size <= _CACHE_LIMIT_BYTES

    def _table(self, view: int):
        """The table of `view`, the kept one if the store holds it, else built unkept."""
        table = _STORE.peek((self._build, self._fingerprint, view))
        return self._build(self.geom, view) if table is None else table

    def _fused_image_tables(self) -> list:
        """`_fused_image_table` of the backprojector's tables, or of the
        projector's transposes, for this core's orbits, each sized to its
        orbit in the full view set; kept per geometry and orbit set."""
        if self._to_image:
            kind, table_of = (self._build, _fused_image_table), self._table
        else:
            kind = (self._build, _ray_transpose, _fused_image_table)
            table_of = lambda rep: _ray_transpose(self.geom, self._table(rep))  # noqa: E731

        def make():
            sizes = {rep: len(positions)
                     for rep, positions, _ in _full_orbits(self.geom, self._fingerprint)}
            return _fused_image_table(table_of, self.geom.n_det + 2,
                                      [(rep, sizes[rep]) for rep, _, _ in self.orbits])

        return _STORE.get((kind, *self._fused_key), make)

    def _fused_project(self, x) -> np.ndarray:
        """image -> rows of a fused projector core: per turn code, one
        gather of every orbit's table (`_fused_rows_table`), then one take
        of each view's cells, its mirrored views' reversed."""
        geom = self.geom
        groups, columns, width = _STORE.get(
            ((self._build, _fused_rows_table), *self._fused_key),
            lambda: _fused_rows_table(self._table, geom.n_det, self._fused_key[1]))
        if self._rows_map is None:
            rows_map = np.empty(self.rows_shape, dtype=np.int64)
            for r, (_, positions, codes) in enumerate(self.orbits):
                for vi, c in zip(positions, codes):
                    k = self._codes.index(c)
                    rows_map[vi] = k * width + columns[r, ::-1 if c >= 4 else None]
            self._rows_map = rows_map
        res = np.zeros((len(self._codes), width))
        for k, code in enumerate(self._codes):
            src = _flat(_turned(x, code), _image_pad(geom.grid))
            for i0, i1, w0, w1, first, stop in groups:
                vals = src.take(i0)
                vals *= w0
                tap = src.take(i1)
                tap *= w1
                vals += tap
                vals.sum(axis=0, out=res[k, first:stop])
        return res.take(self._rows_map)

    def _fused_backproject_runs(self, srcs, out) -> None:
        """image -> rows of a fused backprojector core: per orbit, one
        `_gather_runs` over its members' turned images as rows."""
        stack = np.stack([srcs[code] for code in self._codes])
        # Derived from the fused gather tables, whose first member reads the
        # representative's own table, so no table is built twice.
        tables = _STORE.get(((self._build, _runs_by_cell), *self._fused_key),
                            lambda: [_runs_by_cell(self.geom, [(..., idx[0], 1, *weights)])
                                     for idx, *weights in self._fused_image_tables()])
        rows = np.zeros((self._fused_sel.size, self.rows_shape[1]))
        for (start, stop, slots), table in zip(self._fused_work, tables):
            _gather_runs(stack[slots], table, rows[start:stop])
        out.reshape(-1, rows.shape[1])[self._fused_sel] = rows

    def image_to_rows(self, x) -> np.ndarray:
        x = _checked(x, self.geom.grid, "image")
        if self.fused and not self._to_image:
            return self._fused_project(x)
        # Mirrored views fill their own rows unreversed, flipped once at the
        # end: adding into reversed row views is slower.
        out = np.zeros((2, *self.rows_shape))
        pad = _image_pad(self.geom.grid)
        srcs = {code: _flat(_turned(x, code), pad) for code in self._codes}
        if self.fused:
            self._fused_backproject_runs(srcs, out)
        else:
            _orbit_loop(*self._rows_loop, self._rows_work, srcs, out, self._split_rows)
        plain, mirrored = out
        return plain + mirrored[:, ::-1]

    def rows_to_image(self, y) -> np.ndarray:
        y = _checked(y, self.rows_shape, "sinogram")
        grid = self.geom.grid
        m = grid[0] * grid[1]
        # The rows, then the mirrored views' rows reversed, each contiguous
        # and with one zero at each end.
        rows = np.zeros((2, y.shape[0], y.shape[1] + 2))
        rows[0, :, 1:-1] = y
        rows[1] = rows[0, :, ::-1]
        if self.fused:
            # Per orbit, one gather from its members' rows; each member adds
            # into its code's accumulator, in orbit order as in the loops.
            stack = rows.reshape(-1, rows.shape[2]).take(self._fused_sel, axis=0).ravel()
            acc = np.zeros((len(self._codes), m))
            tables = self._fused_image_tables()
            for r, (start, stop, slots) in enumerate(self._fused_work):
                idx, *weights = tables[r]
                src = stack[start * rows.shape[2]:]
                idx = idx[:stop - start]
                vals = src.take(idx)
                vals *= weights[0]
                for k, w in enumerate(weights[1:], 1):
                    tap = src[k:].take(idx)
                    tap *= w
                    vals += tap
                acc[slots] += vals
            accs = dict(zip(self._codes, acc))
        else:
            kernel, tables = self._image_loop
            if self._split_image and self.admitted:
                tables = {rep: tables(rep) for rep, _ in self._image_work[0]}.__getitem__
            accs = {code: np.zeros(m) for code in self._codes}
            _orbit_loop(kernel, tables, self._image_work, rows, accs, self._split_image)
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
    """Joseph table of full-view index `view`, in the table layout of `_OrbitCore`.

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


def _ray_transpose(geom: ScanGeometry, groups) -> list:
    """The table of the transpose of the projector's table `groups`.

    It is one group over all pixels (cells `...`), with stride 1 and
    (n_pixels,) arrays into the detector row padded by one zero at each
    end: pixel p reads w_k[p] * row[idx[p] + k] over k < K. idx[p] - 1 is
    the first cell that meets the pixel, moved down where the K cells would
    pass the row's end, and K is the widest span of cells that meet one
    pixel. A ray meets a pixel at most once, at the step of the pixel's
    plane and through one of its two taps. At one step, the minor
    coordinate of a group's rays is monotone in the cell, since they are
    parallel or spread from one source, so the entries of one tap with a
    nonzero weight on a pixel are one run, and a pixel's first cell is the
    least of its runs' first cells.
    """
    n_pixels, n_cells = geom.grid[0] * geom.grid[1], geom.n_det
    lo = np.full(n_pixels, n_cells)
    entries = []
    for cells, idx, stride, w0, w1 in groups:
        cell = np.empty(idx.shape, dtype=np.int64)
        cell[:] = np.arange(n_cells)[cells]
        for k, w in enumerate((w0, w1)):
            valid = w != 0
            pix = np.where(valid, idx + (k * stride - _image_pad(geom.grid)), -1)
            start = valid.copy()
            start[:, 1:] &= pix[:, 1:] != pix[:, :-1]
            at = np.flatnonzero(start)
            first = np.full(n_pixels, n_cells)
            first[pix.take(at)] = cell.take(at)
            np.minimum(lo, first, out=lo)
            at = np.flatnonzero(valid)
            entries.append((pix.take(at), cell.take(at), w.take(at)))
    offsets = [cell - lo.take(pix) for pix, cell, _ in entries]
    span = max([int(d.max()) + 1 for d in offsets if d.size] + [1])
    j0 = np.clip(lo, 0, n_cells - span)
    shift, w = lo - j0, np.zeros((span, n_pixels))
    for (pix, _, wt), d in zip(entries, offsets):
        d += shift.take(pix)
        w.reshape(-1)[d * n_pixels + pix] = wt
    return [(..., j0 + 1, 1, *w)]


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
