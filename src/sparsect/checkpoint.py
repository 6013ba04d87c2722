"""Model checkpoints: a small self-describing binary container.

Layout (little-endian):

    magic       4 bytes  b"MVMS"
    version     u32      currently 1
    width       u32      conv channels per level
    depth       u32      coarse-grid recursion depth
    n_stages    u32
    c_in        u32      refinement channels fed to each stage
    leaky_slope f64      always correction.LEAKY_SLOPE
    gamma       f64      structural term weight used during training
    param_count u64      recomputed and verified on load
    flags       u8       bit0 shared stage params, bit1 optimizer state,
                         bit2 rng state
    n_params    u32, then per entry:
        name_len u32, name utf8, rank u32, dims rank*u64, f64 payload
    [optimizer] step u64, lr/beta1/beta2/eps f64 (the last three always
                optim.BETA1/BETA2/EPS), then first-moment and second-moment
                entry lists in the same encoding
    [rng]       json_len u32, utf8 json of the bit-generator state

Given the scan geometry, `build_model` rebuilds the saved model, and a load
refuses a header that no model or loss config accepts. The slope, beta and
eps slots hold constants of the method; a load refuses a file whose values
differ and names the slot. A save writes a temporary file beside the target
and moves it into place (`tensorio.atomic_write`), so a failed save keeps the
previous checkpoint and a save that returned survives a crash. The
checkpoint it replaces is freed on a background thread, so the save does not
wait for the filesystem to release the old file's blocks.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .correction import LEAKY_SLOPE, CorrectionConfig, param_count
from .geometry import ScanGeometry
from .losses import LossConfig
from .model import ReconNet
from .optim import BETA1, BETA2, EPS, Adam, AdamConfig
from .refine import VARIANTS, stack_width, variant_groups
from .tensorio import atomic_write

MAGIC = b"MVMS"
VERSION = 1

_FLAG_SHARED = 1
_FLAG_ADAM = 2
_FLAG_RNG = 4

_VARIANT_FOR_WIDTH = {stack_width(variant_groups(v)): v for v in VARIANTS}


class CheckpointError(Exception):
    pass


class CheckpointMismatchError(CheckpointError):
    """Stored hyperparameters do not match the target model."""


@dataclass
class Checkpoint:
    width: int
    depth: int
    n_stages: int
    c_in: int
    gamma: float
    shared: bool
    params: dict[str, np.ndarray]
    adam: dict | None = None
    rng_state: dict | None = None

    @property
    def variant(self) -> str:
        return _VARIANT_FOR_WIDTH[self.c_in]


def _write_entries(f, entries: dict[str, np.ndarray]):
    f.write(struct.pack("<I", len(entries)))
    for name, arr in entries.items():
        raw = name.encode("utf-8")
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        f.write(struct.pack("<I", len(raw)))
        f.write(raw)
        f.write(struct.pack("<I", arr.ndim))
        f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        f.write(arr.tobytes())


def _read_entries(buf: bytes, off: int) -> tuple[dict[str, np.ndarray], int]:
    (count,) = struct.unpack_from("<I", buf, off)
    off += 4
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (nlen,) = struct.unpack_from("<I", buf, off)
        off += 4
        name = buf[off : off + nlen].decode("utf-8")
        off += nlen
        (rank,) = struct.unpack_from("<I", buf, off)
        off += 4
        dims = struct.unpack_from(f"<{rank}Q", buf, off)
        off += 8 * rank
        n = int(np.prod(dims, dtype=np.int64)) if rank else 1
        arr = np.frombuffer(buf, dtype="<f8", count=n, offset=off).reshape(dims)
        off += 8 * n
        out[name] = arr.astype(np.float64)  # copy; frombuffer view is read-only
    return out, off


def save_checkpoint(
    path: str | Path,
    model: ReconNet,
    gamma: float = 1.0,
    optimizer: Adam | None = None,
    rng: np.random.Generator | None = None,
):
    cfg = model.cfg
    flags = 0
    if model.share_stage_params:
        flags |= _FLAG_SHARED
    if optimizer is not None:
        flags |= _FLAG_ADAM
    if rng is not None:
        flags |= _FLAG_RNG
    with atomic_write(path) as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<IIII", cfg.width, cfg.depth, model.n_stages, cfg.c_in))
        f.write(struct.pack("<dd", LEAKY_SLOPE, gamma))
        f.write(struct.pack("<Q", model.param_count))
        f.write(struct.pack("<B", flags))
        _write_entries(f, model.named_parameters())
        if optimizer is not None:
            f.write(struct.pack("<Q", optimizer.t))
            f.write(struct.pack("<dddd", optimizer.cfg.lr, BETA1, BETA2, EPS))
            _write_entries(f, optimizer.m)
            _write_entries(f, optimizer.v)
        if rng is not None:
            blob = json.dumps(rng.bit_generator.state).encode("utf-8")
            f.write(struct.pack("<I", len(blob)))
            f.write(blob)


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint; a malformed or cut-short file raises CheckpointError."""
    buf = Path(path).read_bytes()
    try:
        return _decode(buf, path)
    except (struct.error, ValueError) as e:  # ValueError covers UnicodeDecodeError
        raise CheckpointError(f"{path}: malformed checkpoint: {e}") from e


def _check_constant(path: str | Path, name: str, value: float, fixed: float):
    """Refuse a slot that holds anything but the constant it stores (NaN too)."""
    if value != fixed:
        raise CheckpointError(f"{path}: {name} is {value!r}, not the fixed {fixed!r}")


def _decode(buf: bytes, path: str | Path) -> Checkpoint:
    if buf[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {buf[:4]!r}")
    (version,) = struct.unpack_from("<I", buf, 4)
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    width, depth, n_stages, c_in = struct.unpack_from("<IIII", buf, 8)
    if c_in not in _VARIANT_FOR_WIDTH:
        raise CheckpointError(f"{path}: c_in {c_in} not among widths {sorted(_VARIANT_FOR_WIDTH)}")
    slope, gamma = struct.unpack_from("<dd", buf, 24)
    if n_stages < 1:
        raise CheckpointError(f"{path}: n_stages must be >= 1, got {n_stages}")
    _check_constant(path, "leaky_slope", slope, LEAKY_SLOPE)
    CorrectionConfig(width, depth, c_in)  # each raises ValueError
    LossConfig(gamma=gamma)
    (stored_count,) = struct.unpack_from("<Q", buf, 40)
    (flags,) = struct.unpack_from("<B", buf, 48)
    unknown = flags & ~(_FLAG_SHARED | _FLAG_ADAM | _FLAG_RNG)
    if unknown:
        raise CheckpointError(f"{path}: unknown flag bits {unknown:#04x}")
    off = 49
    params, off = _read_entries(buf, off)

    shared = bool(flags & _FLAG_SHARED)
    expect = param_count(width, depth, c_in)
    if not shared:
        expect *= n_stages
    got = sum(a.size for a in params.values())
    if got != stored_count or got != expect:
        raise CheckpointError(
            f"{path}: parameter count {got} != stored {stored_count} / expected {expect}"
        )

    adam = None
    if flags & _FLAG_ADAM:
        (t,) = struct.unpack_from("<Q", buf, off)
        off += 8
        lr, b1, b2, eps = struct.unpack_from("<dddd", buf, off)
        off += 32
        _check_constant(path, "beta1", b1, BETA1)
        _check_constant(path, "beta2", b2, BETA2)
        _check_constant(path, "eps", eps, EPS)
        m, off = _read_entries(buf, off)
        v, off = _read_entries(buf, off)
        try:
            cfg = AdamConfig(lr=lr)
        except ValueError as e:
            raise CheckpointError(f"{path}: optimizer settings: {e}") from None
        adam = {"t": t, "m": m, "v": v, "cfg": cfg}

    rng_state = None
    if flags & _FLAG_RNG:
        (jlen,) = struct.unpack_from("<I", buf, off)
        off += 4
        rng_state = json.loads(buf[off : off + jlen].decode("utf-8"))
        off += jlen

    if off != len(buf):
        raise CheckpointError(f"{path}: {len(buf) - off} trailing bytes")
    return Checkpoint(
        width=width,
        depth=depth,
        n_stages=n_stages,
        c_in=c_in,
        gamma=gamma,
        shared=shared,
        params=params,
        adam=adam,
        rng_state=rng_state,
    )


def restore_model(model: ReconNet, ckpt: Checkpoint):
    """Copy checkpoint weights into an existing model, validating hypers."""
    cfg = model.cfg
    pairs = [
        ("width", cfg.width, ckpt.width),
        ("depth", cfg.depth, ckpt.depth),
        ("n_stages", model.n_stages, ckpt.n_stages),
        ("c_in", cfg.c_in, ckpt.c_in),
        ("shared", model.share_stage_params, ckpt.shared),
    ]
    bad = [f"{k}: model={a} checkpoint={b}" for k, a, b in pairs if a != b]
    if bad:
        raise CheckpointMismatchError("; ".join(bad))
    own = model.named_parameters()
    if own.keys() != ckpt.params.keys():
        raise CheckpointMismatchError("parameter name sets differ")
    for k, arr in own.items():
        if arr.shape != ckpt.params[k].shape:
            raise CheckpointMismatchError(f"{k}: shape {arr.shape} vs {ckpt.params[k].shape}")
        arr[...] = ckpt.params[k]


def build_model(geom: ScanGeometry, ckpt: Checkpoint) -> ReconNet:
    model = ReconNet(
        geom,
        width=ckpt.width,
        depth=ckpt.depth,
        n_stages=ckpt.n_stages,
        variant=ckpt.variant,
        share_stage_params=ckpt.shared,
    )
    restore_model(model, ckpt)
    return model


def restore_optimizer(optimizer: Adam, ckpt: Checkpoint):
    if ckpt.adam is None:
        raise CheckpointError("checkpoint carries no optimizer state")
    optimizer.load_state(ckpt.adam)


def restore_rng(rng: np.random.Generator, ckpt: Checkpoint):
    if ckpt.rng_state is None:
        raise CheckpointError("checkpoint carries no rng state")
    rng.bit_generator.state = ckpt.rng_state
