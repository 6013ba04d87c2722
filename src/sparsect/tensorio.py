"""Binary tensor files and dataset manifests.

Tensor container layout (little-endian throughout):

    magic   4 bytes  b"TGRD"
    version u32      currently 1
    rank    u32
    dims    rank * u64, row-major order
    dtype   u8       1 = float64, 2 = float32
    payload raw C-order array bytes

Tensors and checkpoints are written through `atomic_write`, so a crash or
error part-way through a save leaves any earlier file at the target intact.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MAGIC = b"TGRD"
VERSION = 1

_DTYPE_CODES = {1: np.dtype("<f8"), 2: np.dtype("<f4")}
_CODE_FOR = {np.dtype("float64"): 1, np.dtype("float32"): 2}


class TensorFormatError(Exception):
    pass


@contextmanager
def atomic_write(path: str | Path):
    """Yield a binary file that replaces `path` only once the block completes.

    Bytes go to a temporary file in the target's directory, which is synced
    and then moved over the target with os.replace. If the block raises, the
    temporary file is removed and the target is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_tensor(path: str | Path, arr: np.ndarray):
    arr = np.ascontiguousarray(arr)
    if arr.dtype not in _CODE_FOR:
        arr = arr.astype(np.float64)
    code = _CODE_FOR[arr.dtype]
    with atomic_write(path) as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", VERSION, arr.ndim))
        f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        f.write(struct.pack("<B", code))
        f.write(arr.astype(arr.dtype.newbyteorder("<")).tobytes())


def load_tensor(path: str | Path) -> np.ndarray:
    """Read a tensor file; a malformed or cut-short file raises TensorFormatError."""
    raw = Path(path).read_bytes()
    try:
        return _decode(raw, path)
    except (struct.error, ValueError) as e:
        raise TensorFormatError(f"{path}: malformed tensor file: {e}") from e


def _decode(raw: bytes, path: str | Path) -> np.ndarray:
    if raw[:4] != MAGIC:
        raise TensorFormatError(f"{path}: bad magic {raw[:4]!r}")
    version, rank = struct.unpack_from("<II", raw, 4)
    if version != VERSION:
        raise TensorFormatError(f"{path}: unsupported version {version}")
    off = 12
    dims = struct.unpack_from(f"<{rank}Q", raw, off)
    off += 8 * rank
    (code,) = struct.unpack_from("<B", raw, off)
    off += 1
    if code not in _DTYPE_CODES:
        raise TensorFormatError(f"{path}: unknown dtype code {code}")
    dt = _DTYPE_CODES[code]
    n = int(np.prod(dims, dtype=np.int64)) if rank else 1
    expect = n * dt.itemsize
    payload = raw[off : off + expect]
    if len(payload) != expect:
        raise TensorFormatError(f"{path}: truncated payload")
    return np.frombuffer(payload, dtype=dt).reshape(dims).astype(dt.newbyteorder("="))


@dataclass
class DatasetManifest:
    """Split name -> list of tensor paths, resolved against the manifest dir."""

    geometry: str
    splits: dict[str, list[Path]] = field(default_factory=dict)

    def paths(self, split: str) -> list[Path]:
        if split not in self.splits:
            raise KeyError(f"manifest has no split {split!r}")
        return self.splits[split]


def load_manifest(path: str | Path) -> DatasetManifest:
    path = Path(path)
    base = path.parent
    geometry = None
    splits: dict[str, list[Path]] = {}
    for ln, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("geometry="):
            if geometry is not None:
                raise ValueError(f"{path}:{ln}: geometry set twice")
            geometry = line.split("=", 1)[1].strip()
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"{path}:{ln}: expected '<split>\\t<path>'")
        split, rel = parts[0].strip(), parts[1].strip()
        splits.setdefault(split, []).append(base / rel)
    if geometry is None:
        raise ValueError(f"{path}: missing geometry= line")
    return DatasetManifest(geometry=geometry, splits=splits)


def write_manifest(path: str | Path, geometry: str, splits: dict[str, list[str]]):
    lines = [f"geometry={geometry}"]
    for split, rels in splits.items():
        lines.extend(f"{split}\t{rel}" for rel in rels)
    Path(path).write_text("\n".join(lines) + "\n")
