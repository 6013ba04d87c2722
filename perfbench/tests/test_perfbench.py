"""Tests of the benchmark itself, not of sparsect.

    python3 -m pytest -q perfbench/tests

They sit outside the repository's `tests/` directory so that the main
suite does not collect them.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from sparsect import Sinogram, experiments, refine  # noqa: E402
from tracing import Span, Tracer  # noqa: E402


# -- percentile and self-time arithmetic ---------------------------------------

@pytest.mark.parametrize("n", [1, 2, 5, 10, 37])
@pytest.mark.parametrize("q", [0, 10, 50, 90, 100])
def test_percentile_matches_numpy(n, q):
    vals = list(np.random.default_rng(n).exponential(size=n))
    assert run.percentile(vals, q) == pytest.approx(np.percentile(vals, q), rel=1e-12)


def test_percentile_rejects_no_samples():
    with pytest.raises(ValueError):
        run.percentile([], 50)


def test_covered_merges_overlaps():
    assert tracing.covered([]) == 0.0
    assert tracing.covered([(1.0, 3.0), (2.0, 4.0), (5.0, 6.0)]) == pytest.approx(4.0)
    assert tracing.covered([(0.0, 5.0), (1.0, 2.0)]) == pytest.approx(5.0)


def _spans():
    # op 0: root [0, 10] with children [1, 3] and [5, 6]; grandchild [1.5, 2.5]
    # op 1: root [11, 15] with no children
    return [
        Span("a", 0.0, 10.0, parent=-1, op=0),
        Span("b", 1.0, 3.0, parent=0, op=0),
        Span("c", 1.5, 2.5, parent=1, op=0),
        Span("d", 5.0, 6.0, parent=0, op=0),
        Span("a", 11.0, 15.0, parent=-1, op=1),
    ]


def test_self_times_subtract_children():
    assert tracing.self_times(_spans()) == pytest.approx([7.0, 1.0, 1.0, 1.0, 4.0])


def test_self_times_sum_to_root_per_op():
    spans = _spans()
    ratio = tracing.self_over_wall(spans, tracing.self_times(spans), {0: 10.0, 1: 5.0})
    assert ratio == pytest.approx(1.0)  # op 0 is fully covered by its root span


def test_layer_metrics_counts_operator_calls_per_stage():
    spans = [
        Span("refine.assemble_stack", 0.0, 1.0, parent=-1, op=0),
        Span("projector.JosephProjector.apply", 0.1, 0.2, parent=0, op=0, info={"rays": 10}),
        Span("fbp.FbpOperator.apply", 0.3, 0.5, parent=0, op=0),
        Span("fbp.PixelBackprojector.apply", 0.3, 0.4, parent=2, op=0),
        Span("projector.JosephProjector.applyT", 1.5, 1.6, parent=-1, op=0, info={"rays": 30}),
    ]
    m = tracing.layer_metrics(spans, {0: 2.0})
    assert m["refine.op_calls_per_stage"] == 2  # the applyT is outside the stage
    assert m["projector.rays_per_call"] == 20
    assert m["projector.mrays_per_s"] == pytest.approx(40 / 0.2 / 1e6)
    assert m["fbp.backproject.ms"] == pytest.approx(100.0)
    assert m["trace.self_over_wall"] == pytest.approx(1.1 / 2.0)


def test_layer_metrics_ignore_spans_of_unfinished_ops():
    spans = [
        Span("fista.tv_prox", 0.0, 1.0, op=0),  # op 0 raised
        Span("refine.assemble_stack", 1.0, 2.0, parent=-1, op=1),
        Span("fbp.ViewUpsampler.apply", 1.2, 1.4, parent=1, op=1),
        Span("fista.tv_prox", 1.5, 1.6, parent=1, op=1),
    ]
    m = tracing.layer_metrics(spans, {1: 1.0})
    assert m["fista.tv_prox.calls"] == 1
    assert m["fista.tv_prox.ms"] == pytest.approx(100.0)
    assert m["refine.op_calls_per_stage"] == 1
    assert m["refine.assemble_stack.self_ms"] == pytest.approx(700.0)


# -- golden checks -------------------------------------------------------------

def test_golden_check_passes_rounding_drift_and_rejects_perturbations():
    want = workloads.load_golden()["recon-mid"]
    assert workloads.golden_check("x", want * (1 + 1e-15), want)[0]
    assert workloads.golden_check("x", want + 1e-16, want)[0]
    perturbed = want.copy()
    perturbed[40:60, 40:60] += 1e-6
    assert not workloads.golden_check("x", perturbed, want)[0]
    assert not workloads.golden_check("x", np.zeros_like(want), want)[0]
    assert not workloads.golden_check("x", want[:-1], want)[0]
    broken = want.copy()
    broken[0, 0] = np.nan
    assert not workloads.golden_check("x", broken, want)[0]


@pytest.mark.parametrize("channel", ["e_full_r", "e_null", "x_interp"])
def test_zeroed_channel_moves_the_output_far_past_the_tolerance(monkeypatch, channel):
    model = experiments.toy_model()
    bundle = model.register_views(15)
    x = experiments.toy_phantoms(1, 5)[0]
    y = Sinogram(bundle.proj_s.apply(x), model.geom, bundle.subset)
    reference = model.forward(y).data

    original = refine.stage_channels

    def zeroing(xn, ctx, groups=refine.ALL_GROUPS):
        chans = original(xn, ctx, groups)
        chans[channel] = xn.tape.constant(np.zeros(xn.value.shape))
        return chans

    monkeypatch.setattr(refine, "stage_channels", zeroing)
    err = workloads.relative_error(model.forward(y).data, reference)
    assert err > 1e3 * workloads.REL_TOL


def test_non_increasing():
    assert workloads._non_increasing([3.0, 2.0, 2.0, 1.0])
    assert not workloads._non_increasing([3.0, 2.0, 2.5])
    assert not workloads._non_increasing([3.0, np.nan])


# -- seeds change the generated inputs only -------------------------------------

def _same(a, b):
    if isinstance(a, list):
        return len(a) == len(b) and all(_same(u, v) for u, v in zip(a, b))
    return np.array_equal(a, b)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_inputs(name):
    wl = workloads.WORKLOADS[name]
    one, again, two = wl.inputs(1), wl.inputs(1), wl.inputs(2)
    for key in one:
        assert _same(one[key], again[key])
        assert not _same(one[key], two[key])


def test_seed_does_not_change_the_model_or_the_golden_op(tmp_path):
    wl = workloads.WORKLOADS["train-toy"]
    golden = workloads.load_golden()
    a, b = wl.setup(1, tmp_path, golden), wl.setup(2, tmp_path, golden)
    assert a.gate[0] and b.gate[0]
    pa, pb = a.model.named_parameters(), b.model.named_parameters()
    assert all(np.array_equal(pa[k], pb[k]) for k in pa)
    assert not _same(a.images, b.images)


def test_scan_workloads_build_no_seeded_state():
    for name in ("recon-mid", "fista-tv"):
        wl = workloads.WORKLOADS[name]
        assert "seed" not in wl.build.__code__.co_varnames


# -- traced-run wrappers ---------------------------------------------------------

def _bindings():
    out = {}
    for modname, mod in list(sys.modules.items()):
        if modname == "sparsect" or modname.startswith("sparsect."):
            for attr, val in vars(mod).items():
                out[(modname, attr)] = val
                if isinstance(val, type) and val.__module__.startswith("sparsect"):
                    for meth, fn in vars(val).items():
                        out[(modname, attr, meth)] = fn
    return out


def test_tracer_restores_the_original_functions():
    before = _bindings()
    import sparsect.autodiff as ad
    import sparsect.projector as projector

    with Tracer():
        assert ad.conv3x3 is not before[("sparsect.autodiff", "conv3x3")]
        assert (projector.JosephProjector.apply
                is not before[("sparsect.projector", "JosephProjector", "apply")])
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_restores_after_an_exception():
    before = _bindings()
    with pytest.raises(KeyError):
        with Tracer():
            raise KeyError("boom")
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_traced_toy_forward_counts_ten_operator_calls_per_stage():
    model = experiments.toy_model()
    bundle = model.register_views(15)
    x = experiments.toy_phantoms(1, 5)[0]
    y = Sinogram(bundle.proj_s.apply(x), model.geom, bundle.subset)
    untraced = model.forward(y).data
    with Tracer() as tracer:
        import time
        t0 = time.perf_counter()
        traced = model.forward(y).data
        wall = time.perf_counter() - t0
    assert np.array_equal(traced, untraced)
    m = tracing.layer_metrics(tracer.spans, {0: wall})
    assert m["refine.op_calls_per_stage"] == 10
    assert m["correction.calls"] == 3
    assert 0.0 < m["trace.self_over_wall"] <= 1.0
    assert m["autodiff.tape_nodes"] > 0 and m["autodiff.tape_mib"] > 0


# -- command line ----------------------------------------------------------------

def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-toy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
