"""Scan geometries, view subsets, and the domain types they stamp.

All lengths are millimetres, all angles radians. Images are (m1, m2) arrays
indexed [row, col]; sinograms are (n_views, n_det) with one row per view.
View counts are not stored: `ScanGeometry.n_views_full` is the length of
its angle array and `ViewSubset.q1` that of its index array.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

PARALLEL = "parallel"
FAN = "fan"


class GeometryError(ValueError):
    """Raised for inconsistent or physically invalid scan descriptions."""


@dataclass(frozen=True, eq=False)
class ScanGeometry:
    """Fixed acquisition description for one 2-D scan configuration.

    ``view_angles_full`` covers [0, pi) for parallel beam and [0, 2*pi) for
    fan beam, strictly increasing. ``src_dist``/``det_dist`` are the
    source-to-isocenter and isocenter-to-detector distances (fan only).
    """

    beam: str
    view_angles_full: np.ndarray
    n_det: int
    det_spacing: float
    grid: tuple[int, int]
    pixel_size: float
    src_dist: float | None = None
    det_dist: float | None = None

    def __post_init__(self):
        if self.beam not in (PARALLEL, FAN):
            raise GeometryError(f"unknown beam type {self.beam!r}")
        ang = np.asarray(self.view_angles_full, dtype=np.float64)
        object.__setattr__(self, "view_angles_full", ang)
        if ang.ndim != 1 or ang.size < 1 or self.n_det < 2:
            raise GeometryError("need a 1-D array of at least 1 view angle and 2 detector cells")
        if self.det_spacing <= 0 or self.pixel_size <= 0:
            raise GeometryError("spacings must be positive")
        m1, m2 = self.grid
        if m1 < 1 or m2 < 1:
            raise GeometryError("grid dimensions must be positive")
        if np.any(np.diff(ang) <= 0):
            raise GeometryError("view angles must be strictly increasing")
        if ang[0] < 0 or ang[-1] >= self.angular_range + 1e-12:
            raise GeometryError("view angles outside the angular range")
        if self.beam == FAN:
            if self.src_dist is None or self.det_dist is None:
                raise GeometryError("fan beam needs src_dist and det_dist")
            if self.src_dist <= 0 or self.det_dist < 0:
                raise GeometryError("fan distances must be positive")
            if self.src_dist <= self.support_radius:
                raise GeometryError("source inside the object support")
        if self.fov_radius < self.support_radius - 1e-9:
            raise GeometryError(
                f"detector span covers a field of view of radius "
                f"{self.fov_radius:.2f} mm but the image support needs "
                f"{self.support_radius:.2f} mm"
            )

    @property
    def fingerprint(self) -> str:
        """Digest of every field and of the view count.

        Equal geometries have equal fingerprints, so operators built on
        either share their tables (`projector._STORE`), and a sinogram fits
        a model whose geometry has its fingerprint. It is recomputed on each
        read (microseconds), so the instance keeps no state beyond its
        fields and `ScanGeometry(**vars(g))` copies it.
        """
        h = hashlib.blake2b(digest_size=16)
        h.update(repr((
            self.beam, int(self.n_views_full), int(self.n_det),
            float(self.det_spacing), tuple(map(int, self.grid)),
            float(self.pixel_size),
            *(None if d is None else float(d) for d in (self.src_dist, self.det_dist)),
        )).encode())
        h.update(self.view_angles_full.tobytes())
        return h.hexdigest()

    @property
    def n_views_full(self) -> int:
        return len(self.view_angles_full)

    @property
    def angular_range(self) -> float:
        return math.pi if self.beam == PARALLEL else 2.0 * math.pi

    @property
    def support_radius(self) -> float:
        """Radius of the circle circumscribing the pixel grid, in mm."""
        m1, m2 = self.grid
        return 0.5 * math.hypot(m1, m2) * self.pixel_size

    @property
    def fov_radius(self) -> float:
        """Radius of the region every view sees in full, in mm."""
        half_span = 0.5 * self.n_det * self.det_spacing
        if self.beam == PARALLEL:
            return half_span
        # Fan rays to the panel edge are tangent to the FOV circle.
        return self.src_dist * half_span / math.hypot(
            half_span, self.src_dist + self.det_dist
        )

    @property
    def det_offsets(self) -> np.ndarray:
        """Signed detector-cell center offsets along the panel, in mm."""
        k = np.arange(self.n_det, dtype=np.float64)
        return (k - 0.5 * (self.n_det - 1)) * self.det_spacing


@dataclass(frozen=True, eq=False)
class ViewSubset:
    """Strictly increasing view indices selecting q1 of the full views."""

    indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        object.__setattr__(self, "indices", idx)
        if idx.ndim != 1 or idx.size == 0:
            raise GeometryError("subset needs at least one view index")
        if idx[0] < 0 or np.any(np.diff(idx) <= 0):
            raise GeometryError("subset indices must be strictly increasing")

    @property
    def q1(self) -> int:
        return len(self.indices)


@dataclass(frozen=True, eq=False)
class Image:
    """Pixel grid tied to the geometry it was reconstructed on."""

    data: np.ndarray
    geom: ScanGeometry

    def __post_init__(self):
        d = _checked(self.data, self.geom.grid, "image")
        object.__setattr__(self, "data", np.ascontiguousarray(d))


@dataclass(frozen=True, eq=False)
class Sinogram:
    """Per-view detector rows for a (possibly sparse) set of views."""

    data: np.ndarray
    geom: ScanGeometry
    subset: ViewSubset

    def __post_init__(self):
        _view_subset(self.geom, self.subset)
        d = _checked(self.data, (self.subset.q1, self.geom.n_det), "sinogram")
        object.__setattr__(self, "data", np.ascontiguousarray(d))

    @property
    def angles(self) -> np.ndarray:
        return self.geom.view_angles_full[self.subset.indices]


def make_geometry(
    beam: str,
    n_views: int,
    n_det: int,
    det_spacing: float,
    grid: tuple[int, int],
    pixel_size: float,
    src_dist: float | None = None,
    det_dist: float | None = None,
) -> ScanGeometry:
    """Build a geometry with uniformly spaced views over the beam's range."""
    rng = math.pi if beam == PARALLEL else 2.0 * math.pi
    angles = np.arange(n_views, dtype=np.float64) * (rng / max(n_views, 1))
    return ScanGeometry(
        beam=beam,
        view_angles_full=angles,
        n_det=n_det,
        det_spacing=float(det_spacing),
        grid=(int(grid[0]), int(grid[1])),
        pixel_size=float(pixel_size),
        src_dist=None if src_dist is None else float(src_dist),
        det_dist=None if det_dist is None else float(det_dist),
    )


def full_subset(geom: ScanGeometry) -> ViewSubset:
    """Subset selecting every view."""
    return ViewSubset(np.arange(geom.n_views_full))


# Every scan is a (geometry, view subset, array) triple. These two checks are
# the only test of it: operators, containers, model, training and CLI call them.

def _view_subset(geom: ScanGeometry, subset: ViewSubset | None) -> ViewSubset:
    """The subset (every view if None), checked to fit the geometry."""
    subset = full_subset(geom) if subset is None else subset
    if subset.indices[-1] >= geom.n_views_full:
        raise GeometryError(
            f"subset index {subset.indices[-1]} exceeds the full view count "
            f"{geom.n_views_full}"
        )
    return subset


def _checked(a, shape: tuple[int, int], kind: str) -> np.ndarray:
    """`a` as float64, checked to have the scan's `shape`."""
    a = np.asarray(a, dtype=np.float64)
    if a.shape != shape:
        raise GeometryError(f"{kind} shape {a.shape} does not match the scan's {shape}")
    return a


def _check_count(name: str, value, least: int, error: type[ValueError] = ValueError) -> None:
    """Refuse, with `error`, a count that is not an integer (Python's or
    NumPy's; a bool is not one) or is below `least`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise error(f"{name} must be >= {least}, got {value}")


# Two view angles closer than this are the same view.
_ANGLE_TOL = 1e-12

_QUARTER = 0.5 * math.pi


def view_orbits(
    geom: ScanGeometry, indices: np.ndarray
) -> list[tuple[int, list[int], list[int]]]:
    """Group views that one projector or backprojector table can serve.

    On a square grid the pixel lattice is unchanged by the 8 symmetries of
    the square, and every detector is symmetric about its centre
    (`det_offsets == -det_offsets[::-1]`). So a view's rows can be read off
    another view's table applied to a turned or mirrored image. Turn code c
    names the symmetry, with k = c % 4:

    - c < 4: view theta + k*pi/2 of x is view theta of np.rot90(x, k);
    - c >= 4: view (k+1)*pi/2 - theta of x is view theta of
      np.rot90(x, k).T with its detector row reversed (the transpose
      mirrors the image about its diagonal, which maps view pi/2 - theta
      to view theta and each detector cell to its opposite).

    View j's partners are the views that serve it under some code, with an
    angle matching within 1e-12 rad. Its representative is the partner of
    lowest full-view index among those whose central ray runs along the
    image rows (|sin theta| > |cos theta|), or among all partners where
    none does. A projector table of such a view steps row by row, so each
    step of its gather reads neighbouring pixels of one row; a table that
    steps along the columns reads pixels a row apart, and its gather and
    scatter measured 10-40% slower (180-view parallel scan at 128x128,
    2-vCPU x86, NumPy 2.4). Ties keep the lower code, so a view that is its
    own representative has code 0.

    Fan angles match modulo 2*pi. Parallel angles are matched as they stand
    in [0, pi), with no detector flip across the wrap: a parallel view's
    orbit is theta, theta + pi/2, pi/2 - theta and pi - theta modulo pi,
    and any two of these that lie in [0, pi) are one code apart without a
    wrap. On a non-square grid, or without partners, each view is its own
    representative.

    Returns (representative full-view index, positions in `indices`, code
    per position) triples, one per representative, as plain ints for the
    per-view loops. Representatives are chosen over the full view set, so a
    view is computed the same way in every subset.
    """
    ang = geom.view_angles_full
    idx = np.asarray(indices, dtype=np.int64)
    # partners whose rays run along the rows rank first, then by index
    along_cols = np.abs(np.cos(ang)) >= np.abs(np.sin(ang))
    rank = along_cols * ang.size + np.arange(ang.size)
    rep = idx.copy()
    codes = np.zeros(idx.size, dtype=np.int64)
    m1, m2 = geom.grid
    for code in range(1, 8 if m1 == m2 else 1):
        k = code % 4
        # angle of the view that would serve each view under this code
        source = ang[idx] - k * _QUARTER if code < 4 else (k + 1) * _QUARTER - ang[idx]
        if geom.beam == FAN:
            source = np.mod(source + _ANGLE_TOL, 2.0 * math.pi) - _ANGLE_TOL
        hi = np.minimum(np.searchsorted(ang, source), ang.size - 1)
        lo = np.maximum(hi - 1, 0)
        near = np.where(np.abs(ang[lo] - source) <= np.abs(ang[hi] - source), lo, hi)
        hit = (rank[near] < rank[rep]) & (np.abs(ang[near] - source) <= _ANGLE_TOL)
        rep[hit] = near[hit]
        codes[hit] = code
    return [
        (r, np.flatnonzero(rep == r).tolist(), codes[rep == r].tolist())
        for r in sorted(set(rep.tolist()))
    ]


def sparse_subset(geom: ScanGeometry, q1: int) -> ViewSubset:
    """Decimate the full view set to q1 views: index k -> floor(k*n/q1)."""
    _check_count("q1", q1, 1, GeometryError)
    if q1 > geom.n_views_full:
        raise GeometryError(
            f"q1 must be in [1, {geom.n_views_full}], got {q1}"
        )
    k = np.arange(q1, dtype=np.int64)
    idx = (k * geom.n_views_full) // q1
    return ViewSubset(idx)


def perturb_geometry(geom: ScanGeometry, rel: float, seed: int) -> ScanGeometry:
    """Scale fan src/det distances by independent factors in [1-rel, 1+rel]."""
    if geom.beam != FAN:
        raise GeometryError("only fan geometries have distances to perturb")
    rng = np.random.default_rng(seed)
    f_src, f_det = rng.uniform(1.0 - rel, 1.0 + rel, size=2)
    return replace(
        geom, src_dist=geom.src_dist * f_src, det_dist=geom.det_dist * f_det
    )


# ---------------------------------------------------------------------------
# presets and text config
# ---------------------------------------------------------------------------

PRESETS = {
    "fan-1024": dict(
        beam=FAN, n_views=1024, n_det=1024, det_spacing=2.0,
        grid=(512, 512), pixel_size=0.7, src_dist=500.0, det_dist=500.0,
    ),
    "parallel-720": dict(
        beam=PARALLEL, n_views=720, n_det=729, det_spacing=0.7,
        grid=(512, 512), pixel_size=0.7,
    ),
}


def _preset(name: str) -> dict:
    """`make_geometry` keywords of a preset."""
    try:
        return PRESETS[name]
    except KeyError:
        raise GeometryError(
            f"unknown preset {name!r}; have {sorted(PRESETS)}"
        ) from None


def geometry_preset(name: str) -> ScanGeometry:
    return make_geometry(**_preset(name))


def scaled_preset(name: str, grid: tuple[int, int]) -> ScanGeometry:
    """Preset re-targeted to a different grid, coverage margin preserved.

    View and detector counts stay at the preset's values; detector pitch
    (and fan distances) scale with the physical grid diagonal so relative
    sampling and the FOV margin stay put.
    """
    base = _preset(name)
    m1, m2 = int(grid[0]), int(grid[1])
    ratio = math.hypot(m1, m2) / math.hypot(*base["grid"])
    scaled = {k: base[k] * ratio for k in ("det_spacing", "src_dist", "det_dist") if k in base}
    return make_geometry(**{**base, **scaled, "grid": (m1, m2)})


_CONFIG_KEYS = {
    "beam": str,
    "n_views": int,
    "n_det": int,
    "det_spacing_mm": float,
    "src_dist_mm": float,
    "det_dist_mm": float,
    "grid_m1": int,
    "grid_m2": int,
    "pixel_size_mm": float,
}


def geometry_from_config(path: str | Path) -> ScanGeometry:
    """Parse a line-oriented key=value geometry description.

    Blank lines and '#' comments are ignored; unknown or repeated keys are
    errors, as are missing required keys.
    """
    raw: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise GeometryError(f"{path}:{lineno}: expected key=value")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_KEYS:
            raise GeometryError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise GeometryError(f"{path}:{lineno}: repeated key {key!r}")
        raw[key] = val

    required = {"beam", "n_views", "n_det", "det_spacing_mm",
                "grid_m1", "grid_m2", "pixel_size_mm"}
    missing = required - raw.keys()
    if missing:
        raise GeometryError(f"{path}: missing keys {sorted(missing)}")

    vals: dict[str, object] = {}
    for key, text in raw.items():
        try:
            vals[key] = _CONFIG_KEYS[key](text)
        except ValueError:
            raise GeometryError(
                f"{path}: bad value {text!r} for {key}"
            ) from None

    beam = vals["beam"]
    if beam == FAN and not {"src_dist_mm", "det_dist_mm"} <= vals.keys():
        raise GeometryError(f"{path}: fan beam needs src_dist_mm/det_dist_mm")
    return make_geometry(
        beam=beam,
        n_views=vals["n_views"],
        n_det=vals["n_det"],
        det_spacing=vals["det_spacing_mm"],
        grid=(vals["grid_m1"], vals["grid_m2"]),
        pixel_size=vals["pixel_size_mm"],
        src_dist=vals.get("src_dist_mm"),
        det_dist=vals.get("det_dist_mm"),
    )


def resolve_geometry(spec: str) -> ScanGeometry:
    """Accept either a preset name or a path to a text config."""
    if spec in PRESETS:
        return geometry_preset(spec)
    if Path(spec).exists():
        return geometry_from_config(spec)
    raise GeometryError(
        f"{spec!r} is neither a preset ({sorted(PRESETS)}) nor a config file"
    )
