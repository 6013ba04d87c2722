"""End-to-end drives of the command-line entry point.

All invocations go through cli.main(argv) in process, so exit codes,
stdout, and stderr stay observable without spawning interpreters.
"""

import dataclasses

import numpy as np
import pytest

from sparsect import experiments
from sparsect.checkpoint import load_checkpoint, save_checkpoint
from sparsect.cli import main
from sparsect.correction import init_params
from sparsect.geometry import geometry_from_config
from sparsect.model import ReconNet
from sparsect.tensorio import load_tensor, save_tensor

GEOM_CFG = """\
# small fan layout for fast CLI runs
beam = fan
n_views = 12
n_det = 23
det_spacing_mm = 2.3
grid_m1 = 16
grid_m2 = 16
pixel_size_mm = 1.0
src_dist_mm = 40.0
det_dist_mm = 40.0
"""


@pytest.fixture()
def geom_file(tmp_path):
    p = tmp_path / "tiny.cfg"
    p.write_text(GEOM_CFG)
    return str(p)


def test_selftest_passes(capsys):
    rc = main(["selftest"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "param_count(32,5,8)=293441" in out
    assert "selftest: ok" in out


def test_phantom_project_fbp_flow(tmp_path, geom_file, capsys):
    ph = str(tmp_path / "ph.tgrd")
    sino = str(tmp_path / "sino.tgrd")
    rec = str(tmp_path / "rec.tgrd")

    assert main(["phantom", "--geometry", geom_file, "--out", ph]) == 0
    assert main(["project", "--geometry", geom_file, "--views", "12", ph,
                 "--out", sino]) == 0
    assert main(["fbp", "--geometry", geom_file, "--views", "12", sino,
                 "--out", rec]) == 0

    assert load_tensor(ph).shape == (16, 16)
    assert load_tensor(sino).shape == (12, 23)
    r = load_tensor(rec)
    assert r.shape == (16, 16) and np.isfinite(r).all()

    capsys.readouterr()
    assert main(["eval", rec, ph]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "psnr\tssim\trmse_hu"
    psnr_db = float(lines[1].split("\t")[0])
    assert psnr_db > 10.0  # 12-view FBP on a 16x16 grid is rough but not garbage


def test_phantom_kinds(tmp_path, geom_file):
    for kind, extra in [("disk", ["--radius", "0.4"]),
                        ("random_ellipses", ["--seed", "3"])]:
        out = str(tmp_path / f"{kind}.tgrd")
        assert main(["phantom", "--geometry", geom_file, "--kind", kind,
                     *extra, "--out", out]) == 0
        a = load_tensor(out)
        assert a.shape == (16, 16)
        assert a.min() >= 0.0 and a.max() <= 1.0


def test_eval_shape_mismatch_exits_2_before_any_output(tmp_path, capsys):
    pa, pb = str(tmp_path / "a.tgrd"), str(tmp_path / "b.tgrd")
    save_tensor(pa, np.zeros((4, 4)))
    save_tensor(pb, np.zeros((4, 5)))
    assert main(["eval", pa, pb]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "shape mismatch (4, 4) vs (4, 5)" in captured.err


def test_eval_identical_pair(tmp_path, capsys):
    rng = np.random.default_rng(0)
    a = rng.random((9, 9))
    pa = str(tmp_path / "a.tgrd")
    pb = str(tmp_path / "b.tgrd")
    save_tensor(pa, a)
    save_tensor(pb, a)

    assert main(["eval", pa, pb]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "psnr\tssim\trmse_hu"
    psnr_s, ssim_s, rmse_s = lines[1].split("\t")
    assert psnr_s == "inf"
    assert float(ssim_s) == 1.0
    assert float(rmse_s) == 0.0


def test_typed_errors_exit_2(tmp_path, geom_file, capsys):
    # missing sinogram file
    rc = main(["fbp", "--geometry", geom_file, "--views", "12",
               str(tmp_path / "nope.tgrd"), "--out", str(tmp_path / "o.tgrd")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:")

    # unknown geometry preset
    rc = main(["phantom", "--geometry", "no-such-preset",
               "--out", str(tmp_path / "p.tgrd")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "error:" in err


@pytest.mark.parametrize("size", [10, 30, 60, 200])
def test_truncated_checkpoint_exits_2(tmp_path, geom_file, capsys, size):
    ck = tmp_path / "model.ckpt"
    model = ReconNet(geometry_from_config(geom_file), width=2, depth=1, n_stages=1, variant="a")
    save_checkpoint(ck, model)
    ck.write_bytes(ck.read_bytes()[:size])
    sino = str(tmp_path / "y.tgrd")
    save_tensor(sino, np.zeros((6, 23)))
    rc = main(["reconstruct", "--geometry", geom_file, "--views", "6",
               "--checkpoint", str(ck), sino, "--out", str(tmp_path / "rec.tgrd")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and "malformed checkpoint" in err


def test_checkpoint_of_no_variant_width_exits_2(tmp_path, geom_file, capsys):
    ck = tmp_path / "model.ckpt"
    model = ReconNet(geometry_from_config(geom_file), width=2, depth=1, n_stages=1, variant="a")
    model.cfg = dataclasses.replace(model.cfg, c_in=7)
    model.param_sets = [init_params(model.cfg, 0)]
    save_checkpoint(ck, model)
    sino = str(tmp_path / "y.tgrd")
    save_tensor(sino, np.zeros((6, 23)))
    rc = main(["reconstruct", "--geometry", geom_file, "--views", "6",
               "--checkpoint", str(ck), sino, "--out", str(tmp_path / "rec.tgrd")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and "c_in 7" in err


def test_truncated_tensor_exits_2(tmp_path, geom_file, capsys):
    sino = tmp_path / "y.tgrd"
    save_tensor(sino, np.zeros((12, 23)))
    sino.write_bytes(sino.read_bytes()[:14])  # cut inside the dims
    rc = main(["fbp", "--geometry", geom_file, "--views", "12",
               str(sino), "--out", str(tmp_path / "o.tgrd")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and "malformed tensor file" in err


def test_project_shape_mismatch_exits_2(tmp_path, geom_file, capsys):
    bad = str(tmp_path / "bad.tgrd")
    save_tensor(bad, np.zeros((8, 8)))
    rc = main(["project", "--geometry", geom_file, "--views", "12", bad,
               "--out", str(tmp_path / "y.tgrd")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "shape" in err


def _write_train_setup(tmp_path, geom_file):
    """Two tiny phantoms, a manifest pointing at them, and a 6-view sinogram."""
    paths = []
    for i in range(2):
        p = str(tmp_path / f"img{i}.tgrd")
        assert main(["phantom", "--geometry", geom_file,
                     "--kind", "random_ellipses", "--seed", str(10 + i),
                     "--out", p]) == 0
        paths.append(p)
    man = tmp_path / "data.manifest"
    man.write_text(
        f"geometry={geom_file}\n"
        + "".join(f"train\t{p}\n" for p in paths)
        + f"test\t{paths[0]}\n"
    )
    sino = str(tmp_path / "y6.tgrd")
    assert main(["project", "--geometry", geom_file, "--views", "6",
                 paths[0], "--out", sino]) == 0
    return str(man), paths, sino


TRAIN_ARGS = ["--views", "6,12", "--steps", "4", "--lr", "1e-3",
              "--width", "2", "--depth", "1", "--stages", "1",
              "--variant", "a", "--seed", "0"]


def test_train_reconstruct_pnp_finetune_flow(tmp_path, geom_file, capsys):
    man, paths, sino = _write_train_setup(tmp_path, geom_file)
    ck = str(tmp_path / "model.ckpt")
    log = str(tmp_path / "train.tsv")

    rc = main(["train", "--geometry", geom_file, "--manifest", man,
               *TRAIN_ARGS, "--checkpoint", ck, "--log", log])
    out = capsys.readouterr().out
    assert rc == 0
    assert "trained 4 steps on 2 images" in out
    log_lines = (tmp_path / "train.tsv").read_text().strip().splitlines()
    assert log_lines[0] == "step\tview_count\tloss\tl1\tssim_term"
    assert len(log_lines) == 1 + 4

    rec = str(tmp_path / "rec.tgrd")
    assert main(["reconstruct", "--geometry", geom_file, "--views", "6",
                 "--checkpoint", ck, sino, "--out", rec]) == 0
    r = load_tensor(rec)
    assert r.shape == (16, 16) and np.isfinite(r).all()

    capsys.readouterr()
    pnp_out = str(tmp_path / "pnp.tgrd")
    assert main(["pnp", "--geometry", geom_file, "--views", "6",
                 "--checkpoint", ck, "--iters", "2",
                 "--reference", paths[0], sino, "--out", pnp_out]) == 0
    out = capsys.readouterr().out
    assert "iter\tpsnr" in out
    # trace covers the start plus both iterations
    for i in range(3):
        assert f"\n{i}\t" in "\n" + out
    assert load_tensor(pnp_out).shape == (16, 16)

    ft = str(tmp_path / "tuned.ckpt")
    assert main(["finetune", "--geometry", geom_file, "--views", "6",
                 "--checkpoint", ck, "--epochs", "2", "--lr", "1e-6",
                 sino, "--out", ft]) == 0
    before = load_checkpoint(ck)
    after = load_checkpoint(ft)
    assert (after.width, after.depth, after.n_stages, after.c_in) == (
        before.width, before.depth, before.n_stages, before.c_in)
    changed = any(
        not np.array_equal(after.params[k], before.params[k])
        for k in before.params
    )
    assert changed


def test_train_is_bitwise_reproducible(tmp_path, geom_file):
    man, _, _ = _write_train_setup(tmp_path, geom_file)
    cks = []
    for tag in ("one", "two"):
        ck = tmp_path / f"{tag}.ckpt"
        assert main(["train", "--geometry", geom_file, "--manifest", man,
                     *TRAIN_ARGS, "--checkpoint", str(ck)]) == 0
        cks.append(ck.read_bytes())
    assert cks[0] == cks[1]


def test_train_epochs_fallback_and_warning(tmp_path, geom_file, capsys):
    man, _, _ = _write_train_setup(tmp_path, geom_file)
    log = tmp_path / "ep.tsv"
    rc = main(["train", "--geometry", geom_file, "--manifest", man,
               "--views", "6", "--epochs", "2", "--lr", "1e-3",
               "--width", "2", "--depth", "1", "--stages", "1",
               "--variant", "a", "--log", str(log)])
    captured = capsys.readouterr()
    assert rc == 0
    # 2 epochs x 2 train images = 4 steps, and no checkpoint means a warning
    assert "trained 4 steps" in captured.out
    assert "no --checkpoint" in captured.err
    assert len(log.read_text().strip().splitlines()) == 1 + 4


def test_finetune_zero_epochs_noop(tmp_path, geom_file, capsys):
    man, _, sino = _write_train_setup(tmp_path, geom_file)
    ck = str(tmp_path / "m.ckpt")
    assert main(["train", "--geometry", geom_file, "--manifest", man,
                 *TRAIN_ARGS, "--checkpoint", ck]) == 0
    out = str(tmp_path / "same.ckpt")
    capsys.readouterr()
    assert main(["finetune", "--geometry", geom_file, "--views", "6",
                 "--checkpoint", ck, "--epochs", "0", sino, "--out", out]) == 0
    assert "(no-op)" in capsys.readouterr().out
    before = load_checkpoint(ck)
    after = load_checkpoint(out)
    for k in before.params:
        assert np.array_equal(after.params[k], before.params[k])


@pytest.mark.slow
def test_ablate_prints_table(tmp_path, capsys):
    out_file = tmp_path / "ablate.tsv"
    rc = main(["ablate", "--variants", "a", "--steps", "2", "--seed", "0",
               "--out", str(out_file)])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("variant\tpsnr@")
    assert lines[1].startswith("a\t")
    assert out_file.read_text().strip() == out.strip()


def test_train_refuses_a_manifest_made_for_another_geometry(tmp_path, geom_file, capsys):
    man, _, _ = _write_train_setup(tmp_path, geom_file)
    (tmp_path / "other.cfg").write_text(GEOM_CFG.replace("det_dist_mm = 40.0", "det_dist_mm = 41.0"))
    text = (tmp_path / "data.manifest").read_text()
    (tmp_path / "data.manifest").write_text(text.replace(geom_file, "other.cfg"))
    ck, log = tmp_path / "m.ckpt", tmp_path / "t.tsv"
    rc = main(["train", "--geometry", geom_file, "--manifest", man, *TRAIN_ARGS,
               "--checkpoint", str(ck), "--log", str(log)])
    assert rc == 2
    assert "manifest geometry 'other.cfg' differs" in capsys.readouterr().err
    assert not ck.exists() and not log.exists()


def test_manifest_geometry_path_is_relative_to_the_manifest(tmp_path, geom_file, monkeypatch):
    man, _, _ = _write_train_setup(tmp_path, geom_file)
    text = (tmp_path / "data.manifest").read_text()
    (tmp_path / "data.manifest").write_text(text.replace(geom_file, "tiny.cfg"))
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    assert main(["train", "--geometry", geom_file, "--manifest", man, *TRAIN_ARGS]) == 0


def _tiny_checkpoint(tmp_path, geom_file):
    ck = str(tmp_path / "m.ckpt")
    model = ReconNet(geometry_from_config(geom_file), width=2, depth=1, n_stages=1, variant="a")
    save_checkpoint(ck, model)
    sino = str(tmp_path / "y.tgrd")
    save_tensor(sino, np.zeros((6, 23)))
    return ck, sino


@pytest.mark.parametrize("count", [["pnp", "--iters", "-3"], ["finetune", "--epochs", "-1"]],
                         ids=["pnp", "finetune"])
def test_negative_counts_exit_2_and_write_nothing(tmp_path, geom_file, capsys, count):
    ck, sino = _tiny_checkpoint(tmp_path, geom_file)
    out = tmp_path / "out"
    rc = main([count[0], "--geometry", geom_file, "--views", "6", "--checkpoint", ck,
               *count[1:], sino, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error:") and ">= 0" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("count", [["--steps", "0"], ["--epochs", "0"]], ids=["steps", "epochs"])
def test_train_of_zero_steps_exits_2_and_writes_nothing(tmp_path, geom_file, capsys, count):
    man, _, _ = _write_train_setup(tmp_path, geom_file)
    ck, log = tmp_path / "model.ckpt", tmp_path / "train.tsv"
    capsys.readouterr()
    rc = main(["train", "--geometry", geom_file, "--manifest", man, "--views", "6", *count,
               "--width", "2", "--depth", "1", "--stages", "1", "--variant", "a",
               "--checkpoint", str(ck), "--log", str(log)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error:") and "at least one step" in captured.err
    assert captured.out == "" and not ck.exists() and not log.exists()


def test_train_resumed_with_no_steps_left_exits_2_and_writes_nothing(tmp_path, geom_file, capsys):
    man, _, _ = _write_train_setup(tmp_path, geom_file)
    first, log = tmp_path / "a.ckpt", tmp_path / "train.tsv"
    args = ["train", "--geometry", geom_file, "--manifest", man, "--views", "6", "--steps", "2",
            "--width", "2", "--depth", "1", "--stages", "1", "--variant", "a"]
    assert main([*args, "--checkpoint", str(first), "--log", str(log)]) == 0
    logged = log.read_bytes()
    capsys.readouterr()
    second = tmp_path / "b.ckpt"
    rc = main([*args, "--resume-from", str(first), "--checkpoint", str(second), "--log", str(log)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error:") and "ran 2 steps of 2" in captured.err
    assert captured.out == "" and not second.exists() and log.read_bytes() == logged


def test_train_refuses_a_negative_checkpoint_interval_and_writes_nothing(
        tmp_path, geom_file, capsys):
    # argparse reads "-1" as a value, and (step + 1) % -1 == 0 on every step.
    man, _, _ = _write_train_setup(tmp_path, geom_file)
    ck, log = tmp_path / "model.ckpt", tmp_path / "train.tsv"
    capsys.readouterr()
    rc = main(["train", "--geometry", geom_file, "--manifest", man, *TRAIN_ARGS,
               "--checkpoint-every", "-1", "--checkpoint", str(ck), "--log", str(log)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error:") and "checkpoint_every must be >= 0" in captured.err
    assert captured.out == "" and not ck.exists() and not log.exists()


def test_ablate_checks_every_letter_before_training(tmp_path, monkeypatch, capsys):
    def train_toy(*args, **kwargs):
        raise AssertionError("a variant started training")

    monkeypatch.setattr(experiments, "train_toy", train_toy)
    out = tmp_path / "table.tsv"
    rc = main(["ablate", "--variants", "a,z", "--out", str(out)])
    assert rc == 2
    assert "unknown variant 'z'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("setting", [["--lr=-1e-5"], ["--lr", "nan"], ["--gamma", "-2"]],
                         ids=["negative-lr", "nan-lr", "negative-gamma"])
def test_finetune_refuses_bad_settings_and_writes_nothing(tmp_path, geom_file, capsys, setting):
    ck, sino = _tiny_checkpoint(tmp_path, geom_file)
    out = tmp_path / "tuned.ckpt"
    rc = main(["finetune", "--geometry", geom_file, "--views", "6", "--checkpoint", ck,
               "--epochs", "1", *setting, sino, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error:") and setting[0][2:].split("=")[0] in captured.err
    assert captured.out == "" and not out.exists()


def test_train_refuses_a_negative_rate_before_training(tmp_path, geom_file, capsys):
    man, _, _ = _write_train_setup(tmp_path, geom_file)
    ck = tmp_path / "model.ckpt"
    args = [a if a != "1e-3" else "-0.001" for a in TRAIN_ARGS]
    rc = main(["train", "--geometry", geom_file, "--manifest", man, *args,
               "--checkpoint", str(ck)])
    assert rc == 2
    assert "lr must be finite and > 0" in capsys.readouterr().err
    assert not ck.exists()


# argparse before Python 3.13 took "-1e-5" for an option and failed with
# "expected one argument"; every spelling now reaches the config checks.
@pytest.mark.parametrize("setting", [["--lr", "-1e-5"], ["--lr", "-1E+2"], ["--lr", "-.5"],
                                     ["--gamma", "-2e-3"]],
                         ids=["lr-exponent", "lr-upper-exponent", "lr-point", "gamma-exponent"])
@pytest.mark.parametrize("command", ["train", "finetune"])
def test_negative_values_in_any_spelling_reach_the_config_check(
        tmp_path, geom_file, capsys, command, setting):
    if command == "train":
        man, _, _ = _write_train_setup(tmp_path, geom_file)
        written = tmp_path / "model.ckpt"
        args = ["train", "--geometry", geom_file, "--manifest", man,
                *TRAIN_ARGS, *setting, "--checkpoint", str(written)]
    else:
        ck, sino = _tiny_checkpoint(tmp_path, geom_file)
        written = tmp_path / "tuned.ckpt"
        args = ["finetune", "--geometry", geom_file, "--views", "6", "--checkpoint", ck,
                "--epochs", "1", *setting, sino, "--out", str(written)]
    capsys.readouterr()
    rc = main(args)
    captured = capsys.readouterr()
    assert rc == 2
    want = "lr must be finite and > 0" if setting[0] == "--lr" else "gamma must be >= 0"
    assert captured.err.startswith("error:") and want in captured.err
    assert captured.out == "" and not written.exists()


def test_train_accepts_an_exponent_form_rate(tmp_path, geom_file, capsys):
    man, _, _ = _write_train_setup(tmp_path, geom_file)
    ck = tmp_path / "model.ckpt"
    args = [a if a != "1e-3" else "1e-5" for a in TRAIN_ARGS]
    assert main(["train", "--geometry", geom_file, "--manifest", man, *args,
                 "--checkpoint", str(ck)]) == 0
    assert "trained 4 steps" in capsys.readouterr().out
    assert ck.exists()
