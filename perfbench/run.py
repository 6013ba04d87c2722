#!/usr/bin/env python3
"""Closed-loop benchmark of sparsect.

Run from the root of a checkout that holds src/sparsect:

    python3 perfbench/run.py --workload train-toy --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

`--trace 0` reports the end-to-end metrics of an untraced run. `--trace 1`
runs the ops untraced for `--seconds`, then traced for `--seconds`, and
reports the per-layer metrics and the tracing overhead. `--workload all`
runs every workload, each in a process of its own, so that peak memory is
per workload. Metric names and units come from BENCHMARK.json.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. A record with
the environment and the raw samples is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3


def percentile(values, q: float) -> float:
    """q-th percentile with linear interpolation between order statistics
    (NumPy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _blas_threads():
    """Thread count of the OpenBLAS NumPy was built with, or None if unknown."""
    import ctypes
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        try:
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return int(fn())
    return None


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    threads = _blas_threads()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": nproc,
        "threads_exceed_nproc": threads is not None and threads > nproc,
        "mem_total_mib": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20),
        "git_commit": _git_commit(),
        "platform": platform.platform(),
    }


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_phase(wl, state, seconds, log):
    t0 = time.perf_counter()
    wl.run(state, seconds, log)
    wall = time.perf_counter() - t0
    wl.finish(state, log)
    if not log.latencies_s:
        raise RuntimeError(f"{wl.name}: no op completed in {seconds} s")
    return wall


def untraced_run(wl, seed, seconds, workdir, golden, log):
    setup_s = []
    for _ in range(SETUP_REPEATS):
        state = None  # let the previous set-up go before building the next
        gc.collect()
        t0 = time.perf_counter()
        state = wl.setup(seed, workdir, golden)
        setup_s.append(time.perf_counter() - t0)
        log.gate(*state.gate)
    wall = _timed_phase(wl, state, seconds, log)
    lat = log.latencies_s
    p50, p90 = percentile(lat, 50), percentile(lat, 90)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "throughput_per_s": len(lat) / wall,
        "latency_ms_p50": 1e3 * p50,
        "latency_ms_p90": 1e3 * p90,
        "peak_rss_mib": _peak_rss_mib(),
        "psnr_db": statistics.fmean(log.psnr_db),
    }
    notes = {
        "setup_s": f"median of {len(setup_s)} set-ups",
        "throughput_per_s": f"{len(lat)} ops in {wall:.2f} s",
        "latency_ms_p50": f"n={len(lat)}",
        "latency_ms_p90": f"n={len(lat)}, {sum(x > p90 for x in lat)} above",
        "psnr_db": f"mean of {len(log.psnr_db)}",
    }
    samples = {"setup_s": setup_s, "latency_s": lat, "psnr_db": log.psnr_db}
    return metrics, notes, samples


def traced_run(wl, seed, seconds, workdir, golden, log):
    from tracing import Tracer, layer_metrics
    from workloads import OpLog

    state = wl.setup(seed, workdir, golden)
    log.gate(*state.gate)
    plain = OpLog()
    _timed_phase(wl, state, seconds, plain)
    traced = OpLog()
    tracer = Tracer()
    traced.tracer = tracer
    with tracer:
        wl.run(state, seconds, traced)
    wl.finish(state, traced)
    if not traced.latencies_s:
        raise RuntimeError(f"{wl.name}: no traced op completed in {seconds} s")
    for part in (plain, traced):
        log.attempted += part.attempted
        log.failed += part.failed
        log.problems += part.problems
    metrics = layer_metrics(tracer.spans, traced.op_walls)
    p50_plain = percentile(plain.latencies_s, 50)
    p50_traced = percentile(traced.latencies_s, 50)
    metrics["trace.overhead_pct"] = 100.0 * (p50_traced / p50_plain - 1.0)
    log.gate(metrics["trace.self_over_wall"] <= 1.0 + 1e-9,
             "trace: layer self times sum to more than an op's wall time")
    shapes = "computed from array shapes"
    notes = {
        "projector.rays_per_call": shapes,
        "autodiff.conv3x3.gflop": shapes,
        "autodiff.tape_mib": shapes,
        "projector.mrays_per_s": "computed rays over measured time",
        "trace.overhead_pct": f"traced p50 {1e3 * p50_traced:.2f} ms (n={len(traced.latencies_s)}) "
                              f"against untraced p50 {1e3 * p50_plain:.2f} ms (n={len(plain.latencies_s)})",
    }
    samples = {"latency_s_untraced": plain.latencies_s, "latency_s_traced": traced.latencies_s}
    return metrics, notes, samples


def run_one(spec: dict, name: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, OpLog, load_golden

    env = environment()
    print(f"workload {name} seed {seed} seconds {seconds:g} trace {int(trace)}")
    print("env " + json.dumps(env))
    if env["threads_exceed_nproc"]:
        print(f"WARNING: {env['blas_threads']} BLAS threads on {env['nproc']} CPUs")
    wl = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT))
    log = OpLog()
    try:
        run = traced_run if trace else untraced_run
        metrics, notes, samples = run(wl, seed, seconds, workdir, load_golden(), log)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wanted = spec["per_layer" if trace else "end_to_end"]
    mismatch = {m["name"] for m in wanted} ^ set(metrics)
    if mismatch:
        raise RuntimeError(f"metrics and BENCHMARK.json disagree on {sorted(mismatch)}")
    for problem in log.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    error_rate = log.failed / log.attempted
    for m in wanted:
        note = notes.get(m["name"])
        if trace and metrics[m["name"]] == 0:
            note = "layer not run by this workload"
        print(f"metric {m['name']} {metrics[m['name']]:.6g} {m['unit']}" + (f" ({note})" if note else ""))
    print(f"metric error_rate {error_rate:.6g} ratio ({log.failed} failed of {log.attempted} attempted)")
    result = {
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = dict(result, workload=name, seed=seed, seconds=seconds, trace=int(trace),
                  env=env, error_rate=error_rate, problems=log.problems, samples=samples)
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


def run_all(spec: dict, args) -> int:
    """Each workload in a child process, one after the other."""
    status = 0
    for wl in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


def main(argv=None) -> int:
    if not (ROOT / "src" / "sparsect" / "__init__.py").is_file():
        print(f"error: no sparsect sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(spec, args)
    return run_one(spec, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
