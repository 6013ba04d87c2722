"""Span tracing for the traced benchmark run.

`Tracer` wraps the public functions and methods of the sparsect modules in
`TRACED_MODULES` from the outside: nothing under `src/` is edited. Each
wrapped call appends one span (name, start, end, parent span, op id) to an
in-memory list; `layer_metrics` turns the spans into the per-layer metrics
once the traced phase is over. Leaving the `with` block restores every
original function.

`training` is not wrapped: `train_loop` spans many training steps, so its
span would belong to no single op.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import time
from dataclasses import dataclass, field

TRACED_MODULES = (
    "projector", "fbp", "refine", "correction", "autodiff",
    "model", "losses", "optim", "checkpoint", "fista",
)

# Calls counted by refine.op_calls_per_stage: the tomographic operators.
OPERATOR_SPANS = frozenset((
    "projector.JosephProjector.apply", "projector.JosephProjector.applyT",
    "fbp.FbpOperator.apply", "fbp.FbpOperator.applyT",
    "fbp.ViewUpsampler.apply", "fbp.ViewUpsampler.applyT",
))


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index into Tracer.spans, -1 for a top-level span
    op: int = 0
    info: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _conv3x3_info(args, kwargs, out):
    """Computed work of one forward 3x3 conv and the im2col bytes it keeps."""
    c, h, w = args[0].value.shape
    o = args[1].value.shape[0]
    return {"flop": 2 * o * c * 9 * h * w, "cols_bytes": 8 * c * 9 * h * w}


def _projector_info(args, kwargs, out):
    q1, n_det = args[0].out_shape
    return {"rays": q1 * n_det}


def _save_info(args, kwargs, out):
    return {"bytes": os.path.getsize(args[0])}


def _graph_info(args, kwargs, out):
    tape = args[2] if len(args) > 2 else kwargs["tape"]
    return {"tape_nodes": len(tape.nodes), "node_bytes": tape_bytes(tape)}


def tape_bytes(tape) -> int:
    """Bytes of the distinct arrays the tape's nodes hold (computed)."""
    seen: dict[int, int] = {}
    for node in tape.nodes:
        arr = node.value
        while getattr(arr, "base", None) is not None:
            arr = arr.base
        seen[id(arr)] = arr.nbytes
    return sum(seen.values())


_INFO = {
    "autodiff.conv3x3": _conv3x3_info,
    "projector.JosephProjector.apply": _projector_info,
    "projector.JosephProjector.applyT": _projector_info,
    "checkpoint.save_checkpoint": _save_info,
    "model.ReconNet.forward_graph": _graph_info,
}


class Tracer:
    """Records a span per call of every public sparsect function it wraps.

    `op` is the id of the op in progress; the workload loop sets it, and
    every span started while it holds that value is tagged with it.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- install / restore -------------------------------------------------

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [m for n, m in sys.modules.items()
                      if n == "sparsect" or n.startswith("sparsect.")]
        try:
            for short in TRACED_MODULES:
                mod = importlib.import_module(f"sparsect.{short}")
                for attr, obj in list(vars(mod).items()):
                    if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                        continue
                    if inspect.isfunction(obj):
                        wrapped = self._wrap(f"{short}.{attr}", obj)
                        # `from .x import f` binds f in other modules too.
                        for ns in namespaces:
                            for name, val in list(vars(ns).items()):
                                if val is obj:
                                    self._patch(ns, name, wrapped)
                    elif inspect.isclass(obj):
                        for meth, fn in list(vars(obj).items()):
                            if not meth.startswith("_") and inspect.isfunction(fn):
                                qual = f"{short}.{attr}.{meth}"
                                self._patch(obj, meth, self._wrap(qual, fn))
        except BaseException:
            self.restore()
            raise

    def restore(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name, new):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def _wrap(self, name, fn):
        info = _INFO.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, parent=stack[-1] if stack else -1, op=self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if info is not None:
                span.info = info(args, kwargs, out)
            return out

        return traced


# ---------------------------------------------------------------------------
# arithmetic on spans
# ---------------------------------------------------------------------------

def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for sp in spans:
        if sp.parent >= 0:
            children[sp.parent].append((sp.start, sp.end))
    return [sp.duration - covered(children[i]) for i, sp in enumerate(spans)]


def self_over_wall(spans: list[Span], selfs: list[float], op_walls: dict[int, float]) -> float:
    """Largest ratio, over ops, of the summed self times to the op's wall time."""
    per_op: dict[int, float] = {}
    for sp, st in zip(spans, selfs):
        per_op[sp.op] = per_op.get(sp.op, 0.0) + st
    return max((per_op.get(op, 0.0) / wall for op, wall in op_walls.items()), default=0.0)


def _ancestor(spans: list[Span], i: int, name: str) -> int:
    p = spans[i].parent
    while p >= 0 and spans[p].name != name:
        p = spans[p].parent
    return p


def layer_metrics(spans: list[Span], op_walls: dict[int, float]) -> dict[str, float]:
    """Per-layer metrics of one traced phase.

    `op_walls` maps each completed op id to its wall time in seconds; spans
    of ops not in it (an op cut by an exception) are ignored. Times named
    `.ms` are per op (total over the phase divided by the op count) unless
    the unit says per call.
    """
    n_ops = max(len(op_walls), 1)
    selfs = self_times(spans)
    kept = [i for i, sp in enumerate(spans) if sp.op in op_walls]
    incl: dict[str, float] = {}
    excl: dict[str, float] = {}
    calls: dict[str, int] = {}
    per_call: dict[str, list[float]] = {}
    info: dict[str, list[dict]] = {}
    for i in kept:
        sp = spans[i]
        incl[sp.name] = incl.get(sp.name, 0.0) + sp.duration
        excl[sp.name] = excl.get(sp.name, 0.0) + selfs[i]
        calls[sp.name] = calls.get(sp.name, 0) + 1
        per_call.setdefault(sp.name, []).append(sp.duration)
        if sp.info is not None:
            info.setdefault(sp.name, []).append(sp.info)

    def ms(*names):
        return 1e3 * sum(incl.get(n, 0.0) for n in names) / n_ops

    def self_ms(name):
        return 1e3 * excl.get(name, 0.0) / n_ops

    def per_op_calls(*names):
        return sum(calls.get(n, 0) for n in names) / n_ops

    def median_call_ms(name):
        vals = per_call.get(name)
        return 1e3 * statistics.median(vals) if vals else 0.0

    def median_info(name, key):
        vals = [d[key] for d in info.get(name, [])]
        return float(statistics.median(vals)) if vals else 0.0

    proj = ("projector.JosephProjector.apply", "projector.JosephProjector.applyT")
    rays = sum(d["rays"] for n in proj for d in info.get(n, []))
    proj_s = sum(incl.get(n, 0.0) for n in proj)
    proj_calls = sum(calls.get(n, 0) for n in proj)

    per_stage = {i: 0 for i in kept if spans[i].name == "refine.assemble_stack"}
    for i in kept:
        if spans[i].name in OPERATOR_SPANS:
            a = _ancestor(spans, i, "refine.assemble_stack")
            if a in per_stage:
                per_stage[a] += 1

    conv_flop = sum(d["flop"] for d in info.get("autodiff.conv3x3", []))

    # Tape memory at the end of forward_graph: node buffers plus the im2col
    # columns each 3x3 conv inside it keeps for its weight gradient.
    graph = "model.ReconNet.forward_graph"
    tape_mib = {i: spans[i].info["node_bytes"] / 2**20 for i in kept if spans[i].name == graph}
    for i in kept:
        if spans[i].name == "autodiff.conv3x3":
            g = _ancestor(spans, i, graph)
            if g in tape_mib:
                tape_mib[g] += spans[i].info["cols_bytes"] / 2**20
    return {
        "projector.apply.ms": ms(proj[0]),
        "projector.apply.calls": per_op_calls(proj[0]),
        "projector.applyT.ms": ms(proj[1]),
        "projector.applyT.calls": per_op_calls(proj[1]),
        "projector.mrays_per_s": rays / proj_s / 1e6 if proj_s > 0 else 0.0,
        "projector.rays_per_call": rays / proj_calls if proj_calls else 0.0,
        "fbp.apply.ms": ms("fbp.FbpOperator.apply"),
        "fbp.applyT.ms": ms("fbp.FbpOperator.applyT"),
        "fbp.calls": per_op_calls("fbp.FbpOperator.apply", "fbp.FbpOperator.applyT"),
        "fbp.backproject.ms": ms("fbp.PixelBackprojector.apply", "fbp.PixelBackprojector.applyT"),
        "fbp.ramp.ms": ms("fbp.RampFilter.apply", "fbp.RampFilter.applyT"),
        "fbp.upsample.ms": ms("fbp.ViewUpsampler.apply", "fbp.ViewUpsampler.applyT"),
        "fbp.upsample.calls": per_op_calls("fbp.ViewUpsampler.apply", "fbp.ViewUpsampler.applyT"),
        "refine.assemble_stack.self_ms": self_ms("refine.assemble_stack"),
        "refine.build_context.ms": ms("refine.build_context"),
        "refine.op_calls_per_stage": float(statistics.median(per_stage.values())) if per_stage else 0.0,
        "correction.apply_correction.self_ms": self_ms("correction.apply_correction"),
        "correction.calls": per_op_calls("correction.apply_correction"),
        "autodiff.conv3x3.ms": ms("autodiff.conv3x3"),
        "autodiff.conv3x3.gflop": conv_flop / n_ops / 1e9,
        "autodiff.conv2x2_down.ms": ms("autodiff.conv2x2_down"),
        "autodiff.tconv2x2_up.ms": ms("autodiff.tconv2x2_up"),
        "autodiff.backward.ms": ms("autodiff.backward"),
        "autodiff.tape_nodes": median_info("model.ReconNet.forward_graph", "tape_nodes"),
        "autodiff.tape_mib": float(statistics.median(tape_mib.values())) if tape_mib else 0.0,
        "model.forward.ms": ms("model.ReconNet.forward"),
        "model.forward_graph.ms": ms("model.ReconNet.forward_graph"),
        "losses.total_loss.ms": ms("losses.total_loss"),
        "optim.step.ms": ms("optim.Adam.step"),
        "checkpoint.save.ms": median_call_ms("checkpoint.save_checkpoint"),
        "checkpoint.save.bytes": median_info("checkpoint.save_checkpoint", "bytes"),
        "checkpoint.load.ms": median_call_ms("checkpoint.load_checkpoint"),
        "fista.tv_prox.ms": ms("fista.tv_prox"),
        "fista.tv_prox.calls": per_op_calls("fista.tv_prox"),
        "fista.estimate_lipschitz.ms": ms("fista.estimate_lipschitz"),
        "trace.spans_per_op": len(kept) / n_ops,
        "trace.self_over_wall": self_over_wall(spans, selfs, op_walls),
    }
