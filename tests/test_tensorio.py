import struct

import numpy as np
import pytest
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

    def test_cut_at_every_byte_offset_rejected(self, tmp_path):
        p = self.write_good(tmp_path)
        raw = p.read_bytes()
        for n in range(len(raw)):
            p.write_bytes(raw[:n])
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
