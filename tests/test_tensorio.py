import os
import stat
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from conftest import drain_pending_free
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from sparsect import tensorio
from sparsect.tensorio import (
    MAGIC,
    TensorFormatError,
    load_manifest,
    load_tensor,
    save_tensor,
    write_manifest,
)

RNG = np.random.default_rng(71)


class TestTensorRoundTrip:
    def test_float64_bit_exact(self, tmp_path):
        a = RNG.standard_normal((5, 7))
        p = tmp_path / "a.tgrd"
        save_tensor(p, a)
        b = load_tensor(p)
        assert b.dtype == np.float64
        assert np.array_equal(a, b)

    def test_float32_keeps_narrow_dtype(self, tmp_path):
        a = RNG.standard_normal((4, 4)).astype(np.float32)
        p = tmp_path / "a.tgrd"
        save_tensor(p, a)
        b = load_tensor(p)
        assert b.dtype == np.float32
        assert np.array_equal(a, b)

    def test_integer_input_coerced_to_float64(self, tmp_path):
        a = np.arange(12, dtype=np.int32).reshape(3, 4)
        p = tmp_path / "a.tgrd"
        save_tensor(p, a)
        b = load_tensor(p)
        assert b.dtype == np.float64
        assert np.array_equal(a.astype(np.float64), b)

    @pytest.mark.parametrize("shape", [(1,), (6,), (2, 3, 4), (1, 1, 1, 5)])
    def test_arbitrary_ranks(self, tmp_path, shape):
        a = RNG.standard_normal(shape)
        p = tmp_path / "a.tgrd"
        save_tensor(p, a)
        b = load_tensor(p)
        assert b.shape == a.shape
        assert np.array_equal(a, b)

    @given(
        a=arrays(
            np.float64,
            array_shapes(min_dims=1, max_dims=3, max_side=6),
            elements=st.floats(-1e12, 1e12, allow_nan=False),
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_any_float_payload_survives(self, a, tmp_path_factory):
        p = tmp_path_factory.mktemp("t") / "x.tgrd"
        save_tensor(p, a)
        assert np.array_equal(load_tensor(p), a)

    def test_failed_save_keeps_previous_tensor(self, tmp_path, monkeypatch):
        p = tmp_path / "a.tgrd"
        a = RNG.standard_normal((4, 3))
        save_tensor(p, a)
        real_struct = tensorio.struct

        class FailAfterHeader:
            unpack_from = staticmethod(real_struct.unpack_from)

            @staticmethod
            def pack(fmt, *values):
                if fmt == "<B":  # the dtype code, after magic, version and dims
                    raise OSError("disk full")
                return real_struct.pack(fmt, *values)

        monkeypatch.setattr(tensorio, "struct", FailAfterHeader)
        with pytest.raises(OSError, match="disk full"):
            save_tensor(p, np.zeros((2, 2)))
        monkeypatch.undo()
        assert np.array_equal(load_tensor(p), a)
        assert [q.name for q in tmp_path.iterdir()] == ["a.tgrd"]


_CHILD_SAVES_TWICE = """
import sys
import numpy as np
from sparsect.tensorio import save_tensor
save_tensor(sys.argv[1], np.zeros(4))
save_tensor(sys.argv[1], np.ones(4))
"""


class TestReplacingSave:
    """A save over an existing file links it to a retired name, renames over
    one of its two links, and unlinks the retired name on another thread."""

    def test_target_has_two_links_just_before_replace(self, tmp_path, monkeypatch):
        p = tmp_path / "a.tgrd"
        save_tensor(p, np.zeros(3))
        links = []
        real_replace = os.replace

        def replace(src, dst):
            links.append(os.stat(dst).st_nlink)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        save_tensor(p, np.ones(3))
        monkeypatch.undo()
        drain_pending_free()
        assert links == [2]
        assert np.array_equal(load_tensor(p), np.ones(3))
        assert os.stat(p).st_nlink == 1
        assert [q.name for q in tmp_path.iterdir()] == ["a.tgrd"]

    def test_retired_name_is_unlinked_off_the_callers_thread(self, tmp_path, monkeypatch):
        p = tmp_path / "a.tgrd"
        save_tensor(p, np.zeros(3))
        calls = []
        real_unlink = os.unlink

        def unlink(name, *args, **kwargs):
            calls.append((Path(name), threading.get_ident()))
            real_unlink(name, *args, **kwargs)

        monkeypatch.setattr(os, "unlink", unlink)
        save_tensor(p, np.ones(3))
        drain_pending_free()
        monkeypatch.undo()
        [(name, thread)] = calls
        assert name.parent == tmp_path and name.name.startswith(".a.tgrd.")
        assert thread != threading.get_ident()
        assert [q.name for q in tmp_path.iterdir()] == ["a.tgrd"]

    @pytest.mark.parametrize("error", [OSError("no hard links"),
                                       NotImplementedError("follow_symlinks")])
    def test_save_where_no_link_can_be_made_still_replaces(self, tmp_path, monkeypatch, error):
        p = tmp_path / "a.tgrd"
        save_tensor(p, np.zeros(3))

        def link(*args, **kwargs):
            raise error

        monkeypatch.setattr(os, "link", link)
        save_tensor(p, np.ones(3))
        monkeypatch.undo()
        drain_pending_free()
        assert np.array_equal(load_tensor(p), np.ones(3))
        assert [q.name for q in tmp_path.iterdir()] == ["a.tgrd"]

    def test_save_where_no_thread_can_start_frees_in_the_caller(self, tmp_path, monkeypatch):
        # Python 3.12+ refuses new threads once the interpreter is shutting down.
        p = tmp_path / "a.tgrd"
        save_tensor(p, np.zeros(3))
        drain_pending_free()

        def start(self):
            raise RuntimeError("can't create new thread at interpreter shutdown")

        monkeypatch.setattr(threading.Thread, "start", start)
        save_tensor(p, np.ones(3))
        monkeypatch.undo()
        assert np.array_equal(load_tensor(p), np.ones(3))
        assert [q.name for q in tmp_path.iterdir()] == ["a.tgrd"]

    def test_failed_replace_removes_the_retired_link(self, tmp_path, monkeypatch):
        p = tmp_path / "a.tgrd"
        save_tensor(p, np.zeros(3))
        before = p.read_bytes()

        def replace(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError, match="rename refused"):
            save_tensor(p, np.ones(3))
        monkeypatch.undo()
        drain_pending_free()
        assert p.read_bytes() == before
        assert os.stat(p).st_nlink == 1
        assert [q.name for q in tmp_path.iterdir()] == ["a.tgrd"]

    def test_failed_save_after_a_replace_leaves_only_the_target(self, tmp_path):
        p = tmp_path / "a.tgrd"
        save_tensor(p, np.zeros(3))
        save_tensor(p, np.ones(3))
        before = p.read_bytes()
        with pytest.raises(OSError, match="disk full"):
            with tensorio.atomic_write(p) as f:
                f.write(b"partial")
                raise OSError("disk full")
        drain_pending_free()
        assert p.read_bytes() == before
        assert [q.name for q in tmp_path.iterdir()] == ["a.tgrd"]

    def test_two_threads_saving_one_path(self, tmp_path):
        p = tmp_path / "a.tgrd"
        arrays = [np.full(2000, 1.0), np.full(3000, 2.0)]
        errors = []

        def saves(a):
            try:
                for _ in range(50):
                    save_tensor(p, a)
            except Exception as e:
                errors.append(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=saves, args=(a,)) for a in arrays]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        drain_pending_free()
        out = load_tensor(p)
        assert any(np.array_equal(out, a) for a in arrays)
        assert [q.name for q in tmp_path.iterdir()] == ["a.tgrd"]

    @pytest.mark.skipif(not hasattr(os, "O_DIRECTORY"),
                        reason="directories cannot be opened on this platform")
    def test_rename_is_synced_after_the_file(self, tmp_path, monkeypatch):
        p = tmp_path / "a.tgrd"
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            events.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
            real_fsync(fd)

        def replace(src, dst):
            events.append("replace")
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        save_tensor(p, np.zeros(3))  # a new file
        save_tensor(p, np.ones(3))  # a replaced one
        monkeypatch.undo()
        drain_pending_free()
        assert events == ["file", "replace", "dir"] * 2

    def test_child_that_exits_at_once_leaves_only_the_target(self, tmp_path):
        p = tmp_path / "a.tgrd"
        src = str(Path(tensorio.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(q for q in (src, env.get("PYTHONPATH")) if q)
        run = subprocess.run([sys.executable, "-c", _CHILD_SAVES_TWICE, str(p)], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert np.array_equal(load_tensor(p), np.ones(4))
        assert [q.name for q in tmp_path.iterdir()] == ["a.tgrd"]

class TestTensorCorruption:
    def write_good(self, tmp_path):
        p = tmp_path / "g.tgrd"
        save_tensor(p, RNG.standard_normal((3, 3)))
        return p

    def test_bad_magic(self, tmp_path):
        p = self.write_good(tmp_path)
        raw = bytearray(p.read_bytes())
        raw[:4] = b"JUNK"
        p.write_bytes(bytes(raw))
        with pytest.raises(TensorFormatError):
            load_tensor(p)

    def test_bad_version(self, tmp_path):
        p = self.write_good(tmp_path)
        raw = bytearray(p.read_bytes())
        raw[4:8] = struct.pack("<I", 9)
        p.write_bytes(bytes(raw))
        with pytest.raises(TensorFormatError):
            load_tensor(p)

    def test_unknown_dtype_code(self, tmp_path):
        p = self.write_good(tmp_path)
        raw = bytearray(p.read_bytes())
        # dtype byte sits after magic, version, rank and two u64 dims
        raw[4 + 4 + 4 + 16] = 250
        p.write_bytes(bytes(raw))
        with pytest.raises(TensorFormatError):
            load_tensor(p)

    def test_truncated_payload(self, tmp_path):
        p = self.write_good(tmp_path)
        raw = p.read_bytes()
        p.write_bytes(raw[:-8])
        with pytest.raises(TensorFormatError):
            load_tensor(p)

    def test_trailing_bytes_rejected(self, tmp_path):
        # Eight more bytes would be one more float64 of a shorter payload.
        p = tmp_path / "t.tgrd"
        save_tensor(p, RNG.standard_normal((2, 3)))
        p.write_bytes(p.read_bytes() + bytes(8))
        with pytest.raises(TensorFormatError, match="8 trailing bytes"):
            load_tensor(p)

    def test_cut_at_every_byte_offset_rejected(self, tmp_path):
        p = self.write_good(tmp_path)
        raw = p.read_bytes()
        # One copy, shrunk a byte at a time, holds raw[:n] for every n below
        # len(raw). Rewriting the file for each cut would free its blocks
        # each time, which on a filesystem mounted with `discard` costs tens
        # of milliseconds per cut.
        for n in reversed(range(len(raw))):
            os.truncate(p, n)
            with pytest.raises(TensorFormatError):
                load_tensor(p)


class TestManifest:
    def test_write_then_load_resolves_relative_paths(self, tmp_path):
        mpath = tmp_path / "data" / "set.manifest"
        mpath.parent.mkdir()
        write_manifest(
            mpath,
            "fan-1024",
            {"train": ["img/a.tgrd", "img/b.tgrd"], "test": ["img/c.tgrd"]},
        )
        m = load_manifest(mpath)
        assert m.geometry == "fan-1024"
        assert m.paths("train") == [
            tmp_path / "data" / "img" / "a.tgrd",
            tmp_path / "data" / "img" / "b.tgrd",
        ]
        assert len(m.paths("test")) == 1

    def test_comments_and_blanks_ignored(self, tmp_path):
        p = tmp_path / "m.manifest"
        p.write_text(
            "# phantom corpus\n\ngeometry=parallel-720\n# train split\ntrain\ta.tgrd\n\n"
        )
        m = load_manifest(p)
        assert m.geometry == "parallel-720"
        assert [q.name for q in m.paths("train")] == ["a.tgrd"]

    def test_missing_geometry_rejected(self, tmp_path):
        p = tmp_path / "m.manifest"
        p.write_text("train\ta.tgrd\n")
        with pytest.raises(ValueError):
            load_manifest(p)

    def test_duplicate_geometry_rejected(self, tmp_path):
        p = tmp_path / "m.manifest"
        p.write_text("geometry=fan-1024\ngeometry=fan-1024\n")
        with pytest.raises(ValueError):
            load_manifest(p)

    def test_malformed_row_rejected(self, tmp_path):
        p = tmp_path / "m.manifest"
        p.write_text("geometry=fan-1024\ntrain a.tgrd\n")  # space, not tab
        with pytest.raises(ValueError):
            load_manifest(p)

    def test_unknown_split_raises_keyerror(self, tmp_path):
        p = tmp_path / "m.manifest"
        p.write_text("geometry=fan-1024\ntrain\ta.tgrd\n")
        with pytest.raises(KeyError):
            load_manifest(p).paths("val")
