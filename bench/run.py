#!/usr/bin/env python3
"""Benchmark of the coopbc toolkit, driven through its CLI entry point.

    python3 bench/run.py --workload analytic --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout: the package is imported from the
checkout's `src/`, and scenario files and CSV outputs go to `.bench_work/`
at the checkout root, which is removed at the end. Workloads (see jobs.py):

  analytic  regions, rate and snr jobs; no Monte Carlo
  af_mc     AF ber at 4-QAM and 256-QAM, 1 thread
  df_mc     DF ber (MLD and MRC) and compare, 1 thread

Not benchmarked: DF 16-QAM -> 256-QAM, regime h2, coop_bandwidth_fraction
0.5 at the default 100k trials. That shape asks mld_llr_batch for an 8 GiB
(16384, 1, 256, 256) array, so on a machine without that much free memory
its outcome depends on the machine. It can join df_mc once the detector's
memory is bounded.

One run sets up (imports coopbc and writes the inputs) several times, then
repeats passes over the workload's job list for --seconds and checks every
output.

Pass times are normalized to the host's speed. On a shared host the speed of
a core drifts by tens of percent over minutes, so a wall time measures the
host as much as the program. Before every job the run times a fixed reference
kernel that does not touch coopbc; `pass_norm_s` is the sum of each job's
median time, scaled by REF_S over the kernel's median time in the same run:
the pass time on a host that runs the kernel in REF_S seconds. The unscaled
times are reported too, as `host.wall_s` and `host.ref_s`.

With --trace 0 a run reports the end-to-end metrics of BENCHMARK.json; with
--trace 1 it splits --seconds between untraced and traced passes and reports
the per-layer metrics. A line before the result records the machine,
the environment and the sha256 of every job's CSV. The last line of standard
output is the result object. Without `src/coopbc` in the checkout the run
exits with code 2 and prints no result.
"""
from __future__ import annotations

import os

# --threads must be the only concurrency, so BLAS is pinned before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import hashlib
import importlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

import numpy as np

import checks
import jobs
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"

# Median time of reference_kernel() on a 2-core x86-64 sandbox (Python 3.11,
# numpy with OpenBLAS at one thread); only the scale of pass_norm_s.
REF_S = 0.022

SETUP_REPS = 15  # timed set-ups per run, after one that warms the bytecode cache
MIN_PASSES = 3


_REF_RNG = np.random.default_rng(0)
_REF_SYMBOLS = _REF_RNG.standard_normal(1 << 14) + 1j * _REF_RNG.standard_normal(1 << 14)
_REF_POINTS = _REF_SYMBOLS[:16].copy()


def reference_kernel() -> float:
    """Seconds for a fixed piece of work outside coopbc: an interpreted loop
    of float and dict operations, and numpy nearest-point slicing, in about
    the proportion of the workloads."""
    t0 = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(50000):
        acc += (i * 0.5) ** 0.5
        table[i & 255] = acc
    for _ in range(4):
        np.argmin(np.abs(_REF_SYMBOLS[:, None] - _REF_POINTS[None, :]), axis=1)
    return time.perf_counter() - t0


@dataclass(frozen=True)
class JobRun:
    rc: int
    seconds: float
    sha256: str
    rows: int
    ref_s: float  # reference_kernel() just before the job


Pass = dict[str, JobRun]


def wall_s(passes: list[Pass]) -> float:
    """Sum over the jobs of each job's median time."""
    return sum(statistics.median(p[job].seconds for p in passes) for job in passes[0])


def ref_s(passes: list[Pass]) -> float:
    return statistics.median(r.ref_s for p in passes for r in p.values())


def pass_norm_s(passes: list[Pass]) -> float:
    """wall_s at the host speed where reference_kernel() takes REF_S."""
    return wall_s(passes) * REF_S / ref_s(passes)


def rows(p: Pass) -> int:
    return sum(r.rows for r in p.values())


def set_up(name: str, seed: int, workdir: Path) -> tuple[Any, jobs.Workload, list[float]]:
    """Import coopbc afresh and write the inputs, SETUP_REPS + 1 times.

    Every module the import brings in (not only coopbc's own) is dropped
    before each repetition, so a heavier dependency shows in the time.
    """
    sys.path.insert(0, str(SRC))
    baseline = set(sys.modules)
    times = []
    for _ in range(SETUP_REPS + 1):
        for module in [m for m in sys.modules if m not in baseline]:
            del sys.modules[module]
        t0 = time.perf_counter()
        cli = importlib.import_module("coopbc.cli")
        wl = jobs.workload(name, seed)
        jobs.write_inputs(wl, workdir)
        times.append(time.perf_counter() - t0)
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"coopbc was imported from {cli.__file__}, not from {SRC}")
    return cli, wl, times[1:]


def run_job(cli: Any, job: jobs.Job, workdir: Path, threads: int, tag: str = "") -> JobRun:
    out = job.out_path(workdir, tag)
    out.unlink(missing_ok=True)
    ref = reference_kernel()
    t0 = time.perf_counter()
    try:
        rc = cli.main(job.argv(workdir, threads, tag))
    except Exception:  # an escaped exception is a failed job, not a failed benchmark
        traceback.print_exc()
        rc = -1
    seconds = time.perf_counter() - t0
    data = out.read_bytes() if rc == 0 and out.exists() else b""
    return JobRun(rc, seconds, hashlib.sha256(data).hexdigest(),
                  max(data.count(b"\n") - 2, 0), ref)


def run_pass(cli: Any, wl: jobs.Workload, workdir: Path) -> Pass:
    return {job.name: run_job(cli, job, workdir, wl.threads) for job in wl.jobs}


def repeat(seconds: float, one_pass) -> list:
    """At least MIN_PASSES passes, more until `seconds` have elapsed."""
    results, start = [], time.perf_counter()
    while len(results) < MIN_PASSES or time.perf_counter() - start < seconds:
        results.append(one_pass())
    return results


def judge(wl: jobs.Workload, workdir: Path, passes: list[Pass],
          probe: Optional[JobRun]) -> dict[str, str]:
    """Reason each incorrect job is incorrect. A job is correct when it exits
    0 in every pass, its CSV is byte-identical in every pass (untraced,
    traced, and the probe at the other thread count), and the CSV passes the
    job's checks."""
    reasons = {}
    for job in wl.jobs:
        runs = [p[job.name] for p in passes]
        if probe is not None and job.name == wl.probe:
            runs.append(probe)
        if any(r.rc != 0 for r in runs):
            reasons[job.name] = f"exit codes {sorted({r.rc for r in runs})}"
        elif len({r.sha256 for r in runs}) > 1:
            reasons[job.name] = "CSV differs between runs of the same inputs"
        else:
            pair = wl.job(job.pair).out_path(workdir) if job.pair else None
            reason = checks.check_job(job, job.out_path(workdir), pair)
            if reason:
                reasons[job.name] = reason
    return reasons


def run_probe(cli: Any, wl: jobs.Workload, workdir: Path) -> Optional[JobRun]:
    if wl.probe is None:
        return None
    return run_job(cli, wl.job(wl.probe), workdir, wl.probe_threads, tag=".probe")


def parallel_speedup(wl: jobs.Workload, passes: list[Pass], probe: Optional[JobRun]) -> float:
    """Time of the probe job at 1 thread over its time at 2 threads; 0 for a
    workload without Monte Carlo."""
    if probe is None:
        return 0.0
    at_workload = statistics.median(p[wl.probe].seconds for p in passes)
    if wl.threads > wl.probe_threads:
        return probe.seconds / at_workload
    return at_workload / probe.seconds


def layer_values(tr: tracing.Tracer) -> dict[str, Optional[float]]:
    """Per-layer metrics of one traced pass; None where the layer is absent."""
    sp, cnt, mx = tr.spans, tr.counters, tr.maxima
    sim = [sp["mc.simulate_af"], sp["mc.simulate_df"]]
    sim_wall = sum(s.total_s for s in sim)
    values: dict[str, tuple[str, Optional[float]]] = {
        "af.campaign_calls": ("af.campaign", sp["af.campaign"].calls),
        "af.campaign_steps": ("af.campaign_steps", cnt["af.campaign_steps"]),
        "af.campaign_s": ("af.campaign", sp["af.campaign"].total_s),
        "af.run_recursion_s": ("af.run_recursion", sp["af.run_recursion"].total_s),
        "metrics.decision_regions_self_s":
            ("metrics.decision_regions", sp["metrics.decision_regions"].self_s),
        "metrics.region_cells": ("metrics.region_cells", cnt["metrics.region_cells"]),
        "channel.plan_bandwidth_calls":
            ("channel.plan_bandwidth", sp["channel.plan_bandwidth"].calls),
        "df.detect_s": ("df.detect", sp["df.detect"].total_s),
        "df.detect_calls": ("df.detect", sp["df.detect"].calls),
        "df.detect_ops": ("df.detect_ops", cnt["df.detect_ops"]),
        "mc.simulate_af_s": ("mc.simulate_af", sp["mc.simulate_af"].total_s),
        "mc.simulate_af_self_s": ("mc.simulate_af", sp["mc.simulate_af"].self_s),
        "mc.simulate_df_s": ("mc.simulate_df", sp["mc.simulate_df"].total_s),
        "mc.simulate_df_self_s": ("mc.simulate_df", sp["mc.simulate_df"].self_s),
        "df.mld_llr_batch_s": ("df.mld_llr_batch", sp["df.mld_llr_batch"].total_s),
        "df.mld_blocks": ("df.mld_blocks", cnt["df.mld_blocks"]),
        "df.mld_cells": ("df.mld_cells", cnt["df.mld_cells"]),
        "df.mld_mixture_bytes_max": ("df.mld_mixture_bytes_max", mx["df.mld_mixture_bytes_max"]),
        "df.relay_decode_s": ("df.relay_decode", sp["df.relay_decode"].total_s),
        "df.relay_pilot_s": ("df.relay_pilot", sp["df.relay_pilot"].total_s),
        "mc.symbols": ("mc.symbols", cnt["mc.symbols"]),
        "mc.bits": ("mc.bits", cnt["mc.bits"]),
        "mc.cpu_util": ("mc.simulate_af",
                        sum(s.cpu_s for s in sim) / sim_wall if sim_wall else 0.0),
        "cli.self_s": ("cli.main", sp["cli.main"].self_s),
        "scenario.parse_s": ("scenario.parse", sp["scenario.parse"].total_s),
        **{f"cli.{c}_s": (f"cli.{c}", sp[f"cli.{c}"].total_s) for c in tracing.COMMANDS},
    }
    return {name: None if source in tr.absent else float(value)
            for name, (source, value) in values.items()}


def median_or_none(values: list[Optional[float]]) -> Optional[float]:
    return None if any(v is None for v in values) else statistics.median(values)


def environment(wl: jobs.Workload, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 has no dict form
        blas = {}
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "workload": wl.name,
        "seed": seed,
        "threads": wl.threads,
    }


def metric_specs(kind: str) -> list[dict]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)[kind]


def benchmark(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (record, result)."""
    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir()
    cli, wl, setup_times = set_up(name, seed, WORKDIR)

    budget = seconds / 2 if trace else seconds
    passes = repeat(budget, lambda: run_pass(cli, wl, WORKDIR))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced: list[tuple[Pass, dict]] = []
    tracer = tracing.Tracer()
    if trace:
        def traced_pass() -> tuple[Pass, dict]:
            tracer.reset()
            p = run_pass(cli, wl, WORKDIR)
            return p, {"layers": layer_values(tracer),
                       "self_s": {k: v.self_s for k, v in tracer.spans.items()}}
        with tracer.installed(tracing.TARGETS):
            traced = repeat(budget, traced_pass)
    probe = run_probe(cli, wl, WORKDIR)

    every_pass = passes + [p for p, _ in traced]
    reasons = judge(wl, WORKDIR, every_pass, probe)
    runs = [r for p in every_pass for r in p.values()] + ([probe] if probe else [])
    attempted, failed = len(runs), sum(r.rc != 0 for r in runs)
    norm_s = pass_norm_s(passes)
    record = {
        "environment": environment(wl, seed),
        "passes": len(passes),
        "traced_passes": len(traced),
        "pass_seconds": [sum(r.seconds for r in p.values()) for p in passes],
        "ref_seconds": ref_s(passes),
        "sha256": {job: r.sha256 for job, r in passes[0].items()},
        "job_seconds": {job.name: statistics.median(p[job.name].seconds for p in passes)
                        for job in wl.jobs},
        "incorrect": reasons,
    }

    if not trace:
        values = {
            "pass_norm_s": norm_s,
            "points_per_norm_s": rows(passes[0]) / norm_s,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
            "correct_frac": 1.0 - len(reasons) / len(wl.jobs),
        }
        specs = metric_specs("end_to_end")
    else:
        layers = [t["layers"] for _, t in traced]
        values = {k: median_or_none([v[k] for v in layers]) for k in layers[0]}
        bits = values["mc.bits"]
        values.update({
            "mc.bits_per_s": None if bits is None else bits / wall_s(passes),
            "mc.parallel_speedup": parallel_speedup(wl, passes, probe),
            "cli.rows": float(rows(passes[0])),
            "cli.failed_frac": failed / attempted,
            "trace.overhead_frac": pass_norm_s([p for p, _ in traced]) / norm_s - 1.0,
            "host.wall_s": wall_s(passes),
            "host.ref_s": ref_s(passes),
        })
        self_s = {k: statistics.median(t["self_s"].get(k, 0.0) for _, t in traced)
                  for k in tracer.spans}
        record["self_s"] = dict(sorted(self_s.items(), key=lambda kv: -kv[1]))
        record["absent"] = sorted(tracer.absent)
        specs = metric_specs("per_layer")
    result = {
        "correct": not reasons and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs},
    }
    shutil.rmtree(WORKDIR, ignore_errors=True)
    return record, result


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "coopbc" / "__init__.py").is_file():
        print(f"error: no coopbc sources under {SRC}", file=sys.stderr)
        return 2
    record, result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
