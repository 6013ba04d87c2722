"""Toy-recipe plumbing: geometry coverage, split hygiene, baseline wiring."""

import numpy as np
import pytest

from sparsect import experiments
from sparsect.experiments import (
    ToySpec,
    eval_fbp,
    run_ablation,
    toy_geometry,
    toy_model,
    toy_phantoms,
    toy_splits,
    tuned_fista_lambda,
)
from sparsect.fista import FistaConfig
from sparsect.geometry import sparse_subset


def test_toy_geometry_supports_the_schedule_and_more():
    geom = toy_geometry()
    assert geom.n_views_full == 60
    # training schedule plus the untrained count used for blind evaluation
    for q in (15, 20, 30):
        assert len(sparse_subset(geom, q).indices) == q


def test_toy_splits_disjoint_and_sized():
    tr, va, te = toy_splits(n_train=6, n_val=3, n_test=4, seed=0)
    assert (len(tr), len(va), len(te)) == (6, 3, 4)
    blobs = [im.tobytes() for im in tr + va + te]
    assert len(set(blobs)) == len(blobs)


def test_toy_phantoms_deterministic():
    a = toy_phantoms(2, 100)
    b = toy_phantoms(2, 100)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_toy_model_follows_spec_fields():
    spec = ToySpec()
    model = toy_model(spec)
    assert model.n_stages == spec.n_stages
    assert model.cfg.width == spec.width
    assert model.cfg.depth == spec.depth
    assert model.variant == spec.variant


def test_run_ablation_rejects_unknown_variant():
    with pytest.raises(ValueError):
        run_ablation(("q",), ToySpec(steps=1))


def refuse_training(monkeypatch):
    def train_toy(*args, **kwargs):
        raise AssertionError("a variant started training")

    monkeypatch.setattr(experiments, "train_toy", train_toy)


def test_run_ablation_checks_every_letter_before_training(monkeypatch):
    refuse_training(monkeypatch)
    with pytest.raises(ValueError, match="'z'"):
        run_ablation(("a", "z"), ToySpec(steps=1))


def test_eval_fbp_scores_each_image():
    geom = toy_geometry()
    imgs = toy_phantoms(2, 7000)
    scores = eval_fbp(geom, imgs, 15)
    assert len(scores) == 2
    assert all(np.isfinite(s) and s > 0 for s in scores)


def test_tuned_lambda_comes_from_the_grid():
    geom = toy_geometry()
    val = toy_phantoms(2, 8000)
    grid = (0.01, 0.1)
    lam = tuned_fista_lambda(geom, val, 15, lambdas=grid, cfg=FistaConfig(n_iters=5))
    assert lam in grid
