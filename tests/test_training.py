import tracemalloc

import numpy as np
import pytest

from sparsect import training as training_module
from sparsect.experiments import ToySpec, toy_model, toy_phantoms
from sparsect.geometry import Sinogram, sparse_subset
from sparsect.model import ReconNet
from sparsect.optim import Adam
from sparsect.phantoms import random_ellipses
from sparsect.projector import JosephProjector
from sparsect.training import (
    LOG_HEADER,
    TrainConfig,
    TrainingDivergedError,
    finetune_unsupervised,
    train_loop,
)

from conftest import registered_view_counts

RNG = np.random.default_rng(61)


def tiny_model(geom, **kw):
    kw.setdefault("width", 2)
    kw.setdefault("depth", 1)
    kw.setdefault("n_stages", 2)
    kw.setdefault("variant", "e")
    return ReconNet(geom, **kw)


def tiny_images(geom, n=4):
    return [random_ellipses(geom.grid, seed=100 + i) for i in range(n)]


def cfg(**kw):
    kw.setdefault("steps", 4)
    kw.setdefault("view_schedule", (5, 10))
    kw.setdefault("lr", 1e-3)
    return TrainConfig(**kw)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(steps=-1, view_schedule=(5,))
        with pytest.raises(ValueError):
            TrainConfig(steps=1, view_schedule=())

    @pytest.mark.parametrize("lr", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_a_learning_rate_that_is_not_positive_and_finite(self, lr):
        with pytest.raises(ValueError, match="lr"):
            TrainConfig(steps=1, view_schedule=(5,), lr=lr)

    @pytest.mark.parametrize("gamma", [-2.0, float("nan")])
    def test_rejects_a_negative_or_nan_gamma(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            TrainConfig(steps=1, view_schedule=(5,), gamma=gamma)
        assert TrainConfig(steps=1, view_schedule=(5,), gamma=0.0).gamma == 0.0

    @pytest.mark.parametrize("every", [-1, -5])
    def test_rejects_a_negative_checkpoint_interval(self, every):
        with pytest.raises(ValueError, match="checkpoint_every"):
            TrainConfig(steps=1, view_schedule=(5,), checkpoint_every=every)
        assert TrainConfig(steps=1, view_schedule=(5,), checkpoint_every=0).checkpoint_every == 0

    @pytest.mark.parametrize("field", ["steps", "view_schedule", "checkpoint_every"])
    @pytest.mark.parametrize("value", [2.5, True, np.float64(3.0), "3"],
                             ids=["float", "bool", "numpy-float", "str"])
    def test_non_integer_count_rejected(self, field, value):
        name = "view count" if field == "view_schedule" else field
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            cfg(**{field: (5, value) if field == "view_schedule" else value})

    def test_view_count_below_one_rejected(self):
        with pytest.raises(ValueError, match="view count must be >= 1, got 0"):
            cfg(view_schedule=(5, 0))


class TestTrainLoop:
    def test_runs_and_registers_schedule(self, tiny_fan):
        m = tiny_model(tiny_fan)
        res = train_loop(m, tiny_images(tiny_fan), cfg())
        assert len(res.rows) == 4
        assert registered_view_counts(m) == (5, 10)
        assert all(q in (5, 10) for _, q, *_ in res.rows)
        assert np.isfinite(res.final_loss)

    def test_numpy_integer_counts_train_as_ints(self, tiny_fan):
        """A schedule of NumPy integers once raised AttributeError in
        register_views."""
        images = tiny_images(tiny_fan)
        m, ref = tiny_model(tiny_fan), tiny_model(tiny_fan)
        res = train_loop(m, images, cfg(steps=np.int64(2), view_schedule=tuple(np.array([5, 10]))))
        want = train_loop(ref, images, cfg(steps=2, view_schedule=(5, 10)))
        assert registered_view_counts(m) == (5, 10)
        assert res.rows == want.rows

    def test_empty_or_misshapen_inputs_rejected(self, tiny_fan):
        m = tiny_model(tiny_fan)
        with pytest.raises(ValueError):
            train_loop(m, [], cfg())
        with pytest.raises(ValueError):
            train_loop(m, [np.zeros((4, 4))], cfg())

    def test_parameters_actually_move(self, tiny_fan):
        m = tiny_model(tiny_fan)
        before = {k: v.copy() for k, v in m.named_parameters().items()}
        train_loop(m, tiny_images(tiny_fan), cfg(steps=2))
        after = m.named_parameters()
        assert any(not np.array_equal(before[k], after[k]) for k in before)

    def test_loss_trend_decreases_on_one_image(self, tiny_fan):
        # 50 repeats of a single sample: trailing average must improve
        m = tiny_model(tiny_fan, width=3)
        images = tiny_images(tiny_fan, n=1)
        res = train_loop(
            m, images, cfg(steps=50, view_schedule=(5,), lr=3e-3, augment_flips=False)
        )
        losses = [r[2] for r in res.rows]
        assert np.mean(losses[-10:]) < np.mean(losses[:10])

    def test_log_format(self, tiny_fan, tmp_path):
        m = tiny_model(tiny_fan)
        log = tmp_path / "train.tsv"
        res = train_loop(m, tiny_images(tiny_fan), cfg(steps=3), log_path=log)
        lines = log.read_text().splitlines()
        assert lines[0] == LOG_HEADER
        assert lines[0] == "step\tview_count\tloss\tl1\tssim_term"
        assert len(lines) == 4
        first = lines[1].split("\t")
        assert first[0] == "0"
        assert int(first[1]) in (5, 10)
        assert float(first[2]) == pytest.approx(res.rows[0][2])
        # loss column is l1 + ssim_term
        assert float(first[2]) == pytest.approx(float(first[3]) + float(first[4]))

    def test_nan_image_aborts(self, tiny_fan):
        m = tiny_model(tiny_fan)
        bad = [np.full(tiny_fan.grid, np.nan)]
        with pytest.raises(TrainingDivergedError):
            train_loop(m, bad, cfg(steps=1))

    def test_determinism_across_identical_runs(self, tiny_fan):
        images = tiny_images(tiny_fan)
        m1 = tiny_model(tiny_fan, seed=2)
        m2 = tiny_model(tiny_fan, seed=2)
        r1 = train_loop(m1, images, cfg())
        r2 = train_loop(m2, images, cfg())
        assert r1.rows == r2.rows
        f1, f2 = m1.named_parameters(), m2.named_parameters()
        assert all(np.array_equal(f1[k], f2[k]) for k in f1)


class TestStepMemory:
    """A training step's memory grows by less than one stage's tape per
    added stage: no conv keeps its im2col bands, and backward frees each
    node's gradient and closures once used. The bound, 3 MiB per stage, was
    fixed before the change; the kept-band tape grew by about 7.3 MiB."""

    @staticmethod
    def step_peak_bytes(n_stages):
        spec = ToySpec(n_stages=n_stages)
        model = toy_model(spec)
        images = toy_phantoms(2, 0)
        run = TrainConfig(steps=1, view_schedule=spec.schedule[:1], lr=spec.lr,
                          gamma=spec.gamma, augment_flips=False)
        train_loop(model, images, run)  # builds the operators and their tables
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            train_loop(model, images, run)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_toy_step_peak_grows_by_at_most_3_mib_per_stage(self):
        one, three = self.step_peak_bytes(1), self.step_peak_bytes(3)
        assert (three - one) / 2 <= 3 * 2**20


class TestResume:
    def test_split_run_is_bitwise_identical(self, tiny_fan, tmp_path):
        images = tiny_images(tiny_fan)

        # uninterrupted: 6 steps straight through
        m_full = tiny_model(tiny_fan, seed=5)
        r_full = train_loop(m_full, images, cfg(steps=6))

        # interrupted: 3 steps, checkpoint, fresh model, resume to 6
        ck = tmp_path / "mid.ckpt"
        m_a = tiny_model(tiny_fan, seed=5)
        r_a = train_loop(m_a, images, cfg(steps=3), checkpoint_path=ck)
        m_b = tiny_model(tiny_fan, seed=999)  # weights overwritten by resume
        r_b = train_loop(m_b, images, cfg(steps=6), resume_from=ck)

        assert [*r_a.rows, *r_b.rows] == r_full.rows
        ff, fb = m_full.named_parameters(), m_b.named_parameters()
        assert all(np.array_equal(ff[k], fb[k]) for k in ff)

    def test_resume_appends_to_existing_log(self, tiny_fan, tmp_path):
        images = tiny_images(tiny_fan)
        ck, log = tmp_path / "c.ckpt", tmp_path / "t.tsv"
        m = tiny_model(tiny_fan, seed=5)
        train_loop(m, images, cfg(steps=2), log_path=log, checkpoint_path=ck)
        m2 = tiny_model(tiny_fan, seed=5)
        train_loop(m2, images, cfg(steps=4), log_path=log, resume_from=ck)
        lines = log.read_text().splitlines()
        assert len(lines) == 5  # header + 4 rows
        assert [ln.split("\t")[0] for ln in lines[1:]] == ["0", "1", "2", "3"]

    def test_crash_between_row_and_checkpoint_leaves_uninterrupted_log(
        self, tiny_fan, tmp_path, monkeypatch
    ):
        images = tiny_images(tiny_fan)
        run = cfg(steps=5, checkpoint_every=2)
        full = tmp_path / "full.tsv"
        train_loop(tiny_model(tiny_fan, seed=5), images, run, log_path=full)

        # Crash inside step 3: rows 0-2 are logged, the checkpoint is of step 1.
        ck, log = tmp_path / "c.ckpt", tmp_path / "t.tsv"
        step = Adam.step

        def step_or_crash(self, grads):
            if self.t == 3:
                raise RuntimeError("crash")
            step(self, grads)

        monkeypatch.setattr(Adam, "step", step_or_crash)
        with pytest.raises(RuntimeError, match="crash"):
            train_loop(tiny_model(tiny_fan, seed=5), images, run,
                       log_path=log, checkpoint_path=ck)
        monkeypatch.undo()
        assert [ln.split("\t")[0] for ln in log.read_text().splitlines()[1:]] == ["0", "1", "2"]

        res = train_loop(tiny_model(tiny_fan, seed=999), images, run,
                         log_path=log, checkpoint_path=ck, resume_from=ck)
        assert [row[0] for row in res.rows] == [2, 3, 4]
        assert log.read_bytes() == full.read_bytes()

    def test_resume_drops_a_partial_last_row(self, tiny_fan, tmp_path):
        images = tiny_images(tiny_fan)
        full = tmp_path / "full.tsv"
        train_loop(tiny_model(tiny_fan, seed=5), images, cfg(steps=3), log_path=full)
        ck, log = tmp_path / "c.ckpt", tmp_path / "t.tsv"
        train_loop(tiny_model(tiny_fan, seed=5), images, cfg(steps=1),
                   log_path=log, checkpoint_path=ck)
        with open(log, "a") as f:
            f.write("1\t5\t1.2")  # a row cut short by a crash
        train_loop(tiny_model(tiny_fan, seed=5), images, cfg(steps=3),
                   log_path=log, resume_from=ck)
        assert log.read_bytes() == full.read_bytes()

    @pytest.mark.parametrize("steps", [2, 1], ids=["at", "past"])
    def test_resume_with_no_steps_left_raises_and_writes_nothing(self, tiny_fan, tmp_path, steps):
        images = tiny_images(tiny_fan)
        ck, log = tmp_path / "a.ckpt", tmp_path / "t.tsv"
        train_loop(tiny_model(tiny_fan, seed=5), images, cfg(steps=2),
                   log_path=log, checkpoint_path=ck)
        logged = log.read_bytes()
        resumed = tmp_path / "b.ckpt"
        with pytest.raises(ValueError, match=f"ran 2 steps of {steps}"):
            train_loop(tiny_model(tiny_fan, seed=5), images, cfg(steps=steps),
                       log_path=log, checkpoint_path=resumed, resume_from=ck)
        assert log.read_bytes() == logged and not resumed.exists()

    @pytest.mark.parametrize("setting, saved, asked", [("lr", 1e-3, 5e-2), ("gamma", 1.0, 0.5)])
    def test_resume_with_other_settings_raises_and_writes_nothing(
            self, tiny_fan, tmp_path, setting, saved, asked):
        """The checkpoint's lr once won silently over the call's, and the
        call's gamma over the checkpoint's."""
        images = tiny_images(tiny_fan)
        ck, log = tmp_path / "a.ckpt", tmp_path / "t.tsv"
        train_loop(tiny_model(tiny_fan, seed=5), images, cfg(steps=2),
                   log_path=log, checkpoint_path=ck)
        logged = log.read_bytes()
        resumed = tmp_path / "b.ckpt"
        with pytest.raises(ValueError, match=f"{setting}={saved!r}; this run asks for "
                                             f"{setting}={asked!r}"):
            train_loop(tiny_model(tiny_fan, seed=5), images, cfg(steps=4, **{setting: asked}),
                       log_path=log, checkpoint_path=resumed, resume_from=ck)
        assert log.read_bytes() == logged and not resumed.exists()

    def test_periodic_checkpointing_writes_midrun_state(self, tiny_fan, tmp_path):
        images = tiny_images(tiny_fan)
        ck = tmp_path / "c.ckpt"
        m = tiny_model(tiny_fan)
        train_loop(m, images, cfg(steps=3, checkpoint_every=2), checkpoint_path=ck)
        assert ck.exists()  # step 2 and the final step both write


class TestFinetune:
    def make_measurement(self, geom, q=5):
        x = random_ellipses(geom.grid, seed=7)
        subset = sparse_subset(geom, q)
        proj = JosephProjector(geom, subset)
        return Sinogram(proj.apply(x), geom, subset)

    def test_zero_steps_is_a_no_op(self, tiny_fan):
        m = tiny_model(tiny_fan)
        before = {k: v.copy() for k, v in m.named_parameters().items()}
        res = finetune_unsupervised(m, self.make_measurement(tiny_fan), steps=0)
        assert res.rows == []
        after = m.named_parameters()
        assert all(np.array_equal(before[k], after[k]) for k in before)

    def test_reduces_reprojection_loss(self, tiny_fan):
        m = tiny_model(tiny_fan, width=3)
        y = self.make_measurement(tiny_fan)
        res = finetune_unsupervised(m, y, steps=30, lr=1e-3)
        losses = [r[2] for r in res.rows]
        assert np.mean(losses[-5:]) < np.mean(losses[:5])

    @pytest.mark.parametrize("steps", [2.5, True, np.float64(2.0), "2"],
                             ids=["float", "bool", "numpy-float", "str"])
    def test_non_integer_steps_rejected_before_any_work(self, tiny_fan, tmp_path, steps,
                                                        monkeypatch):
        """steps=True once ran one step, and 2.5 failed in range() after the
        optimizer was built."""
        def no_optimizer(*args, **kwargs):
            raise AssertionError("the optimizer was built before steps was checked")

        monkeypatch.setattr(training_module, "Adam", no_optimizer)
        log = tmp_path / "ft.tsv"
        with pytest.raises(ValueError, match="steps must be an integer"):
            finetune_unsupervised(tiny_model(tiny_fan), self.make_measurement(tiny_fan),
                                  steps=steps, log_path=log)
        assert not log.exists()

    def test_numpy_integer_steps_accepted(self, tiny_fan):
        y = self.make_measurement(tiny_fan)
        got = finetune_unsupervised(tiny_model(tiny_fan), y, steps=np.int64(2), lr=1e-3)
        want = finetune_unsupervised(tiny_model(tiny_fan), y, steps=2, lr=1e-3)
        assert got.rows == want.rows

    def test_negative_steps_rejected(self, tiny_fan, tmp_path):
        log = tmp_path / "ft.tsv"
        with pytest.raises(ValueError, match="steps"):
            finetune_unsupervised(tiny_model(tiny_fan), self.make_measurement(tiny_fan),
                                  steps=-1, log_path=log)
        assert not log.exists()

    def test_logs_measurement_view_count(self, tiny_fan, tmp_path):
        m = tiny_model(tiny_fan)
        log = tmp_path / "ft.tsv"
        finetune_unsupervised(m, self.make_measurement(tiny_fan), steps=2, log_path=log)
        lines = log.read_text().splitlines()
        assert lines[0] == LOG_HEADER
        assert all(ln.split("\t")[1] == "5" for ln in lines[1:])
