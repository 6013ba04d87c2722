import struct

import numpy as np
import pytest

from sparsect import checkpoint
from sparsect.checkpoint import (
    MAGIC,
    Checkpoint,
    CheckpointError,
    CheckpointMismatchError,
    build_model,
    load_checkpoint,
    restore_model,
    restore_optimizer,
    restore_rng,
    save_checkpoint,
)
from sparsect.model import ReconNet
from sparsect.optim import Adam, AdamConfig

RNG = np.random.default_rng(53)


def tiny_model(geom, **kw):
    kw.setdefault("width", 2)
    kw.setdefault("depth", 1)
    kw.setdefault("n_stages", 2)
    kw.setdefault("variant", "e")
    return ReconNet(geom, **kw)


class TestRoundTrip:
    def test_weights_restore_bit_exact(self, tiny_fan, tmp_path):
        m = tiny_model(tiny_fan, seed=3)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, m, gamma=0.7)
        ckpt = load_checkpoint(path)
        assert (ckpt.width, ckpt.depth, ckpt.n_stages) == (2, 1, 2)
        assert ckpt.gamma == 0.7
        assert ckpt.variant == "e"
        assert ckpt.adam is None and ckpt.rng_state is None

        rebuilt = build_model(tiny_fan, ckpt)
        fa, fb = m.named_parameters(), rebuilt.named_parameters()
        assert set(fa) == set(fb)
        for k in fa:
            assert np.array_equal(fa[k], fb[k]), k

    def test_save_load_save_is_byte_identical(self, tiny_fan, tmp_path):
        m = tiny_model(tiny_fan, seed=9)
        opt = Adam(m.named_parameters(), AdamConfig(lr=0.003))
        opt.step({k: RNG.standard_normal(v.shape) for k, v in m.named_parameters().items()})
        rng = np.random.default_rng(77)
        rng.random(13)

        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, m, gamma=1.0, optimizer=opt, rng=rng)
        ckpt = load_checkpoint(p1)

        m2 = build_model(tiny_fan, ckpt)
        opt2 = Adam(m2.named_parameters())
        restore_optimizer(opt2, ckpt)
        rng2 = np.random.default_rng(0)
        restore_rng(rng2, ckpt)
        save_checkpoint(p2, m2, gamma=ckpt.gamma, optimizer=opt2, rng=rng2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_optimizer_state_round_trip(self, tiny_fan, tmp_path):
        m = tiny_model(tiny_fan)
        flat = m.named_parameters()
        opt = Adam(flat, AdamConfig(lr=0.02, beta1=0.85))
        for _ in range(3):
            opt.step({k: RNG.standard_normal(v.shape) for k, v in flat.items()})
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, m, optimizer=opt)
        ckpt = load_checkpoint(path)
        assert ckpt.adam["t"] == 3
        assert ckpt.adam["cfg"] == AdamConfig(lr=0.02, beta1=0.85)

        opt2 = Adam(build_model(tiny_fan, ckpt).named_parameters())
        restore_optimizer(opt2, ckpt)
        assert opt2.t == 3
        for k in opt.m:
            assert np.array_equal(opt.m[k], opt2.m[k])
            assert np.array_equal(opt.v[k], opt2.v[k])

    def test_rng_state_round_trip_continues_stream(self, tiny_fan, tmp_path):
        m = tiny_model(tiny_fan)
        rng = np.random.default_rng(123)
        rng.random(7)
        expected_next = np.random.default_rng(123)
        expected_next.random(7)

        path = tmp_path / "m.ckpt"
        save_checkpoint(path, m, rng=rng)
        restored = np.random.default_rng(0)
        restore_rng(restored, load_checkpoint(path))
        assert np.array_equal(restored.random(20), expected_next.random(20))

    def test_unshared_stage_params_round_trip(self, tiny_fan, tmp_path):
        m = tiny_model(tiny_fan, share_stage_params=False, n_stages=3)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, m)
        ckpt = load_checkpoint(path)
        assert not ckpt.shared
        rebuilt = build_model(tiny_fan, ckpt)
        assert not rebuilt.share_stage_params
        fa, fb = m.named_parameters(), rebuilt.named_parameters()
        for k in fa:
            assert np.array_equal(fa[k], fb[k])

    def test_failed_save_keeps_previous_checkpoint(self, tiny_fan, tmp_path, monkeypatch):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, tiny_model(tiny_fan, seed=1))
        before = path.read_bytes()
        write_entries = checkpoint._write_entries

        def fail_midway(f, entries):
            write_entries(f, entries)
            raise OSError("disk full")

        monkeypatch.setattr(checkpoint, "_write_entries", fail_midway)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, tiny_model(tiny_fan, seed=2))
        assert path.read_bytes() == before
        assert load_checkpoint(path).width == 2
        assert [q.name for q in tmp_path.iterdir()] == ["m.ckpt"]


class TestValidation:
    def test_hyper_mismatch_fields_each_rejected(self, tiny_fan, tmp_path):
        m = tiny_model(tiny_fan)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, m)
        ckpt = load_checkpoint(path)

        for other in (
            tiny_model(tiny_fan, width=3),
            tiny_model(tiny_fan, depth=2),
            tiny_model(tiny_fan, n_stages=3),
            tiny_model(tiny_fan, variant="g"),
            tiny_model(tiny_fan, leaky_slope=0.2),
            tiny_model(tiny_fan, share_stage_params=False),
        ):
            with pytest.raises(CheckpointMismatchError):
                restore_model(other, ckpt)

    def test_variant_recovered_from_channel_width(self, tiny_fan, tmp_path):
        for variant in "abcdefg":
            m = tiny_model(tiny_fan, variant=variant)
            path = tmp_path / f"{variant}.ckpt"
            save_checkpoint(path, m)
            assert load_checkpoint(path).variant == variant

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 60)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_unsupported_version_rejected(self, tiny_fan, tmp_path):
        m = tiny_model(tiny_fan)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, m)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tiny_fan, tmp_path):
        m = tiny_model(tiny_fan)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, m)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 16])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_cut_at_every_byte_offset_rejected(self, tiny_fan, tmp_path):
        # Every section: header, parameters, optimizer moments and rng state.
        m = tiny_model(tiny_fan, width=1, depth=0, n_stages=1, variant="a")
        opt = Adam(m.named_parameters())
        opt.step({k: np.ones(v.shape) for k, v in m.named_parameters().items()})
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, m, optimizer=opt, rng=np.random.default_rng(0))
        raw = path.read_bytes()
        for n in range(len(raw)):
            path.write_bytes(raw[:n])
            with pytest.raises(CheckpointError):
                load_checkpoint(path)

    def test_non_utf8_parameter_name_rejected(self, tiny_fan, tmp_path):
        m = tiny_model(tiny_fan)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, m)
        raw = bytearray(path.read_bytes())
        # first name byte: 49-byte header, u32 entry count, u32 name length
        raw[49 + 4 + 4] = 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_trailing_garbage_rejected(self, tiny_fan, tmp_path):
        m = tiny_model(tiny_fan)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, m)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_corrupted_param_count_rejected(self, tiny_fan, tmp_path):
        m = tiny_model(tiny_fan)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, m)
        raw = bytearray(path.read_bytes())
        raw[40:48] = struct.pack("<Q", 12345)
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_restores_demand_matching_state_blocks(self, tiny_fan, tmp_path):
        m = tiny_model(tiny_fan)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, m)  # no optimizer, no rng
        ckpt = load_checkpoint(path)
        with pytest.raises(CheckpointError):
            restore_optimizer(Adam(m.named_parameters()), ckpt)
        with pytest.raises(CheckpointError):
            restore_rng(np.random.default_rng(0), ckpt)
