import dataclasses
import math
import os
import struct
import threading
from pathlib import Path

import numpy as np
import pytest
from conftest import drain_pending_free

from sparsect import checkpoint
from sparsect.checkpoint import (
    CheckpointError,
    CheckpointMismatchError,
    build_model,
    load_checkpoint,
    restore_model,
    restore_optimizer,
    restore_rng,
    save_checkpoint,
)
from sparsect.correction import init_params
from sparsect.geometry import Sinogram, sparse_subset
from sparsect.model import ReconNet
from sparsect.optim import BETA1, BETA2, EPS, Adam, AdamConfig
from sparsect.projector import JosephProjector

RNG = np.random.default_rng(53)


def tiny_model(geom, **kw):
    kw.setdefault("width", 2)
    kw.setdefault("depth", 1)
    kw.setdefault("n_stages", 2)
    kw.setdefault("variant", "e")
    return ReconNet(geom, **kw)


def seven_channel_model(geom):
    """A model whose config claims c_in = 7, a width no variant has, with
    parameters to match, so its file is self-consistent."""
    m = tiny_model(geom)
    m.cfg = dataclasses.replace(m.cfg, c_in=7)
    m.param_sets = [init_params(m.cfg, 0)]
    return m


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
        opt = Adam(flat, AdamConfig(lr=0.02))
        for _ in range(3):
            opt.step({k: RNG.standard_normal(v.shape) for k, v in flat.items()})
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, m, optimizer=opt)
        ckpt = load_checkpoint(path)
        assert ckpt.adam["t"] == 3
        assert ckpt.adam["cfg"] == AdamConfig(lr=0.02)

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

    @pytest.mark.parametrize("share", [True, False])
    @pytest.mark.parametrize("variant", "abcdefg")
    def test_rebuilt_model_reconstructs_bitwise(self, tiny_fan, tmp_path, variant, share):
        m = tiny_model(tiny_fan, variant=variant, share_stage_params=share, seed=4)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, m)
        rebuilt = build_model(tiny_fan, load_checkpoint(path))
        subset = sparse_subset(tiny_fan, 5)
        y = Sinogram(JosephProjector(tiny_fan, subset).apply(RNG.random(tiny_fan.grid)),
                     tiny_fan, subset)
        assert np.array_equal(rebuilt.forward(y).data, m.forward(y).data)

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


class TestReplacingCheckpoint:
    """A save over an earlier checkpoint renames over one of its two links
    and frees the old file on another thread."""

    def test_old_checkpoint_is_linked_twice_then_freed_off_thread(self, tiny_fan, tmp_path,
                                                                   monkeypatch):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, tiny_model(tiny_fan, seed=1))
        m = tiny_model(tiny_fan, seed=2)
        events = []
        real_replace, real_unlink = os.replace, os.unlink

        def replace(src, dst):
            events.append(("replace", os.stat(dst).st_nlink, threading.get_ident()))
            real_replace(src, dst)

        def unlink(name, *args, **kwargs):
            events.append(("unlink", Path(name).parent, threading.get_ident()))
            real_unlink(name, *args, **kwargs)

        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(os, "unlink", unlink)
        save_checkpoint(path, m)
        drain_pending_free()
        monkeypatch.undo()
        caller = threading.get_ident()
        [replaced, unlinked] = events
        assert replaced == ("replace", 2, caller)
        assert unlinked[:2] == ("unlink", tmp_path) and unlinked[2] != caller
        stored = load_checkpoint(path).params
        assert all(np.array_equal(v, stored[k]) for k, v in m.named_parameters().items())
        assert [q.name for q in tmp_path.iterdir()] == ["m.ckpt"]

    def test_failed_save_after_a_replace_keeps_the_last_checkpoint(self, tiny_fan, tmp_path,
                                                                   monkeypatch):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, tiny_model(tiny_fan, seed=1))
        save_checkpoint(path, tiny_model(tiny_fan, seed=2))
        before = path.read_bytes()
        write_entries = checkpoint._write_entries

        def fail_midway(f, entries):
            write_entries(f, entries)
            raise OSError("disk full")

        monkeypatch.setattr(checkpoint, "_write_entries", fail_midway)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, tiny_model(tiny_fan, seed=3))
        drain_pending_free()
        assert path.read_bytes() == before
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
        # One copy, shrunk a byte at a time, holds raw[:n] for every n below
        # len(raw). Rewriting the file for each cut would free its blocks
        # each time, which on a filesystem mounted with `discard` costs tens
        # of milliseconds per cut.
        for n in reversed(range(len(raw))):
            os.truncate(path, n)
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

    def test_unknown_flag_bit_rejected(self, tiny_fan, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, tiny_model(tiny_fan))
        raw = bytearray(path.read_bytes())
        raw[48] |= 0x80  # the flags byte; bits 0-2 are the only ones defined
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="flag bits 0x80"):
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

    def test_channel_width_of_no_variant_rejected(self, tiny_fan, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, seven_channel_model(tiny_fan))
        with pytest.raises(CheckpointError, match=r"c_in 7 .*\[1, 2, 3, 4, 5, 6, 8\]"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, value", [(0.02, -0.02)], ids=["lr"])
    def test_invalid_optimizer_setting_rejected(self, tiny_fan, tmp_path, field, value):
        m = tiny_model(tiny_fan)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, m, optimizer=Adam(m.named_parameters(), AdamConfig(lr=0.02)))
        raw = path.read_bytes()
        old = struct.pack("<d", field)
        assert raw.count(old) == 1
        path.write_bytes(raw.replace(old, struct.pack("<d", value)))
        with pytest.raises(CheckpointError, match="optimizer settings"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, fixed, value", [
        ("beta1", BETA1, 0.85), ("beta2", BETA2, 0.99), ("eps", EPS, 1e-7), ("eps", EPS, math.nan),
    ], ids=["beta1", "beta2", "eps", "eps-nan"])
    def test_garbled_adam_constant_rejected(self, tiny_fan, tmp_path, field, fixed, value):
        """The optimizer block still stores Adam's constants; a file that
        holds another value was not written by this optimizer."""
        m = tiny_model(tiny_fan)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, m, optimizer=Adam(m.named_parameters()))
        raw = path.read_bytes()
        old = struct.pack("<d", fixed)
        assert raw.count(old) == 1
        path.write_bytes(raw.replace(old, struct.pack("<d", value)))
        with pytest.raises(CheckpointError, match=f"{field} is "):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "field, offset, fmt, value",
        [("n_stages", 16, "<I", 0), ("leaky_slope", 24, "<d", -0.5),
         ("leaky_slope", 24, "<d", math.nan), ("leaky_slope", 24, "<d", 0.2),
         ("gamma", 32, "<d", math.nan), ("gamma", 32, "<d", -3.0)],
        ids=["n_stages-0", "leaky_slope-negative", "leaky_slope-nan", "leaky_slope-other",
             "gamma-nan", "gamma-negative"],
    )
    def test_header_setting_no_model_accepts_rejected(
            self, tiny_fan, tmp_path, field, offset, fmt, value):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, tiny_model(tiny_fan))
        raw = bytearray(path.read_bytes())
        raw[offset : offset + struct.calcsize(fmt)] = struct.pack(fmt, value)
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match=field):
            load_checkpoint(path)

    @pytest.mark.parametrize("garble, message", [
        (lambda params, name: params.setdefault(name + ".extra", params[name]),
         "parameter name sets differ"),
        (lambda params, name: params.update({name + ".renamed": params.pop(name)}),
         "parameter name sets differ"),
        (lambda params, name: params.update({name: params[name][..., None]}), "shape"),
    ], ids=["extra-name", "renamed", "shape"])
    def test_parameters_that_do_not_fit_the_model_rejected(self, tiny_fan, tmp_path, garble,
                                                           message):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, tiny_model(tiny_fan))
        ckpt = load_checkpoint(path)
        garble(ckpt.params, "p0.cm.w")
        with pytest.raises(CheckpointMismatchError, match=message):
            restore_model(tiny_model(tiny_fan, seed=1), ckpt)

    def test_restores_demand_matching_state_blocks(self, tiny_fan, tmp_path):
        m = tiny_model(tiny_fan)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, m)  # no optimizer, no rng
        ckpt = load_checkpoint(path)
        with pytest.raises(CheckpointError):
            restore_optimizer(Adam(m.named_parameters()), ckpt)
        with pytest.raises(CheckpointError):
            restore_rng(np.random.default_rng(0), ckpt)
