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
A save that replaces a file first hard-links the old file to a hidden
*retired* name, so the rename drops only one of its two links; a background
thread unlinks the retired name, which is where the filesystem frees the old
blocks (tens of milliseconds on a filesystem mounted with `discard`). Once a
save returns, its directory is synced, so the new file survives a crash. A
crash can leave a hidden temporary or retired name beside the target, never a
partial file at the target.
"""

from __future__ import annotations

import itertools
import os
import struct
import threading
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MAGIC = b"TGRD"
VERSION = 1

_DTYPE_CODES = {1: np.dtype("<f8"), 2: np.dtype("<f4")}
_CODE_FOR = {np.dtype("float64"): 1, np.dtype("float32"): 2}


class TensorFormatError(Exception):
    pass


# Each save's hidden names carry the pid and a number of their own, so two
# threads saving one path never share a temporary or a retired name.
_save_numbers = itertools.count()
# The one retired file still being unlinked in the background, if any.
_pending_free: threading.Thread | None = None
_pending_lock = threading.Lock()


@contextmanager
def atomic_write(path: str | Path):
    """Yield a binary file that replaces `path` only once the block completes.

    Bytes go to a temporary file in the target's directory, created for this
    save alone and synced before anything else happens. If the block raises,
    the temporary file is removed and the target is left as it was.

    Then, if the target exists, it is hard-linked to a retired name beside
    it, and os.replace moves the temporary file over the target. The rename
    drops one of the old file's two links, so it frees nothing and returns
    at once; the target always holds a complete file. The directory is
    synced, so the rename is on disk when the save returns, and a
    background thread unlinks the retired name. Before it starts that
    thread, a save waits for the previous save's unlink, so at most one is
    pending per process, and the interpreter waits for it at exit. Where the
    target cannot be linked (no hard links on the filesystem), os.replace
    frees the old file itself.
    """
    path = Path(path)
    stem = f".{path.name}.{os.getpid()}.{next(_save_numbers)}"
    tmp = path.with_name(stem + ".tmp")
    retired = path.with_name(stem + ".retired")
    try:
        with open(tmp, "xb") as f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        linked = _link(path, retired)
        try:
            os.replace(tmp, path)
        except BaseException:
            if linked:
                os.unlink(retired)
            raise
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    try:
        _sync_dir(path.parent)
    finally:
        if linked:
            _free_later(retired)


def _link(path: Path, retired: Path) -> bool:
    """Link `path` itself (not a symlink's target) to `retired`, if it can."""
    try:
        os.link(path, retired, follow_symlinks=False)
    except (OSError, NotImplementedError):
        return False
    return True


def _sync_dir(directory: Path):
    """Put the directory's entries on disk, where directories can be opened."""
    if not hasattr(os, "O_DIRECTORY"):
        return
    fd = os.open(directory, os.O_RDONLY | os.O_DIRECTORY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _free_later(retired: Path):
    """Unlink `retired` on a non-daemon thread, after the pending one ends.

    The thread calls only `os` functions. Where no thread can be started,
    the caller unlinks it.
    """
    global _pending_free
    with _pending_lock:
        if _pending_free is not None:
            _pending_free.join()
        thread = threading.Thread(target=_unlink, args=(retired,), name="tensorio-free")
        try:
            thread.start()
        except RuntimeError:
            os.unlink(retired)
            return
        _pending_free = thread


def _unlink(name: Path):
    # The directory may have been removed, with the retired name, first.
    with suppress(FileNotFoundError):
        os.unlink(name)


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
    if off + expect != len(raw):
        raise TensorFormatError(f"{path}: {len(raw) - off - expect} trailing bytes")
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
