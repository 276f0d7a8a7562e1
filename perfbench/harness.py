"""Runs one workload in this process and writes its result as JSON.

``perfbench/run.py`` starts this module in a fresh process with a
pinned environment; it is not meant to be run by hand.  An untraced
run reports the end-to-end metrics.  A traced run first repeats the
untraced measurement, then sets up again under the span recorder and
measures the same work traced, and reports the per-layer metrics; the
two phases share ``--seconds`` half and half, which keeps a traced run,
companion included, well inside the run's time limit.

End-to-end timings are reported in bench-host seconds: each is
multiplied by the host scale measured around it
(``workloads.in_bench_seconds``), so the host's speed swings cancel
out.  The raw timings and probes are kept in the result file's
samples.  Per-layer timings are raw host seconds of the traced passes.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import platform
import resource
import sys
import time
from typing import Dict, List

import numpy as np

from repro.perf import counters as perf_counters

from . import spans as spans_mod
from .reference import adjacency_csr
from .stats import median, percentile
from .workloads import (
    SETUP_REPEATS,
    WORKLOADS,
    BfsOracle,
    Checker,
    ClusterPr,
    PrTree,
    ServeOpen,
    in_bench_seconds,
    usable_cpus,
)

HERE = os.path.dirname(os.path.abspath(__file__))
#: Modelled digests recorded at ``RECORDED_SEED`` (see README.md).
EXPECTED_PATH = os.path.join(HERE, "expected.json")
RECORDED_SEED = 0

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "latency_p50_s": "s",
    "latency_p95_s": "s",
    "goodput_qps": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "spmv.ip.exec.s": "s",
    "spmv.ip.exec.calls": "count",
    "spmv.ip.probe.s": "s",
    "spmv.op.probe.s": "s",
    "spmv.op.exec.s": "s",
    "spmv.probes_per_spmv": "ratio",
    "spmv.ip_batch.s": "s",
    "spmv.op_batch.s": "s",
    "spmv.batch.columns": "count",
    "hardware.run.s": "s",
    "hardware.run.calls": "count",
    "hardware.probe.s": "s",
    "hardware.probe.calls": "count",
    "hardware.us_per_price": "us",
    "core.spmv.self_s": "s",
    "core.decide.calls": "count",
    "formats.conversion_words": "words",
    "core.spmv_batch.self_s": "s",
    "graphs.driver.self_s": "s",
    "cluster.spmv.self_s": "s",
    "cluster.exchange.s": "s",
    "cluster.exchange_bytes": "bytes",
    "cluster.network_cycles_share": "ratio",
    "parallel.map.s": "s",
    "parallel.fallbacks": "count",
    "parallel.start_session.s": "s",
    "cluster.pooled_over_serial": "ratio",
    "serve.cache_hit_ratio": "ratio",
    "serve.coalesce_width_mean": "count",
    "serve.batches": "count",
    "serve.exec.s": "s",
    "serve.max_queue_depth": "count",
    "serve.latency_p50_s": "s",
    "serve.latency_p95_s": "s",
    "sim.cycles": "cycles",
    "sim.spmv_per_host_s": "1/s",
    "loadgen.late_p95_s": "s",
    "obs.trace_overhead_frac": "ratio",
}

#: Per-layer metrics that count work rather than time it; apart from
#: the serving window's, they repeat exactly between runs.
EXACT_COUNTS = (
    "spmv.ip.exec.calls",
    "spmv.probes_per_spmv",
    "spmv.batch.columns",
    "hardware.run.calls",
    "hardware.probe.calls",
    "core.decide.calls",
    "formats.conversion_words",
    "cluster.exchange_bytes",
    "cluster.network_cycles_share",
    "sim.cycles",
)


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_expected(workload: str, seed: int):
    if seed != RECORDED_SEED:
        return None
    with open(EXPECTED_PATH) as fh:
        return json.load(fh).get(workload)


def layer_metrics(spans: List[spans_mod.Span], passes: int) -> Dict[str, float]:
    """Per-layer metrics from the spans of ``passes`` traced passes."""
    totals = spans_mod.layer_totals(spans)

    def get(name, field="s"):
        return totals.get(name, {}).get(field, 0) / passes

    probes = get("spmv.ip.probe", "calls") + get("spmv.op.probe", "calls")
    batch_calls = get("spmv.ip_batch", "calls") + get("spmv.op_batch", "calls")
    batch_cols = get("spmv.ip_batch", "columns") + get("spmv.op_batch", "columns")
    prices = get("hardware.run", "calls") + get("hardware.probe", "calls")
    cycles = get("graphs.driver", "cycles")
    return {
        "spmv.ip.exec.s": get("spmv.ip.exec"),
        "spmv.ip.exec.calls": get("spmv.ip.exec", "calls"),
        "spmv.ip.probe.s": get("spmv.ip.probe"),
        "spmv.op.probe.s": get("spmv.op.probe"),
        "spmv.op.exec.s": get("spmv.op.exec"),
        "spmv.probes_per_spmv": (
            probes / get("core.spmv", "calls") if get("core.spmv", "calls") else 0.0
        ),
        "spmv.ip_batch.s": get("spmv.ip_batch"),
        "spmv.op_batch.s": get("spmv.op_batch"),
        "spmv.batch.columns": batch_cols / batch_calls if batch_calls else 0.0,
        "hardware.run.s": get("hardware.run"),
        "hardware.run.calls": get("hardware.run", "calls"),
        "hardware.probe.s": get("hardware.probe"),
        "hardware.probe.calls": get("hardware.probe", "calls"),
        "hardware.us_per_price": (
            (get("hardware.run") + get("hardware.probe")) / prices * 1e6
            if prices else 0.0
        ),
        "core.spmv.self_s": get("core.spmv", "self_s"),
        "core.decide.calls": get("core.decide", "calls"),
        "formats.conversion_words": get("graphs.driver", "conversion_words"),
        "core.spmv_batch.self_s": get("core.spmv_batch", "self_s"),
        "graphs.driver.self_s": get("graphs.driver", "self_s"),
        "cluster.spmv.self_s": get("cluster.spmv", "self_s"),
        "cluster.exchange.s": get("cluster.exchange"),
        "cluster.exchange_bytes": get("graphs.driver", "exchange_bytes"),
        "cluster.network_cycles_share": (
            get("graphs.driver", "network_cycles") / cycles if cycles else 0.0
        ),
        "parallel.map.s": get("parallel.map"),
        "sim.cycles": cycles,
    }


def between(spans, t0: float, t1: float):
    """Spans that started inside ``[t0, t1]``."""
    return [s for s in spans if t0 <= s.start <= t1]


def setups(workload):
    """Set up ``SETUP_REPEATS`` times; keep the last state."""
    times, state = [], None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            workload.close(state)
            gc.collect()
        state, elapsed = workload.setup()
        times.append(elapsed)
    return state, times


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def phase_seconds(args) -> float:
    """How long each measured phase of this run lasts."""
    return args.seconds / 2 if args.trace else args.seconds


def run_workload(args, checker: Checker):
    workload = WORKLOADS[args.workload](args.seed)
    state, setup_times = setups(workload)
    try:
        refs = workload.references(state)
        attempted0 = checker.attempted
        failed0 = checker.failed
        untraced = workload.measure(state, phase_seconds(args), checker, refs)
    finally:
        workload.close(state)
    bench = in_bench_seconds(workload, untraced)
    runs = checker.attempted - attempted0
    good = runs - (checker.failed - failed0)
    metrics = {
        "setup_s": median(setup_times) * bench["scale"],
        "run_s": median(bench["pass_s"]),
        "latency_p50_s": percentile(bench["latency_s"], 0.50),
        "latency_p95_s": percentile(bench["latency_s"], 0.95),
        "goodput_qps": good / sum(bench["pass_s"]),
    }
    samples = {
        "host_scale": bench["scale"],
        "setup_s": setup_times,
        "pass_s": untraced["pass_s"],
        "probe_s": untraced["probe_s"],
        "spmv_calls": len(bench["latency_s"]),
        "runs": runs,
    }
    if args.trace:
        metrics.update(traced_metrics(args, workload, checker, metrics["run_s"]))
    return metrics, samples


def traced_metrics(args, workload, checker, untraced_run_s) -> dict:
    """Per-layer metrics: the workload's own passes traced, plus the
    layers it does not reach measured on a companion run (the sharded
    runtime beside ``pr_tree``, the query service beside
    ``bfs_oracle``)."""
    companion = Checker(load_expected(COMPANIONS[args.workload], args.seed))
    recorder = spans_mod.Recorder()
    spans_mod.install_layers(recorder)
    try:
        traced = traced_passes(recorder, workload, checker, phase_seconds(args))
        if isinstance(workload, PrTree):
            sharded = ClusterPr(args.seed)
            extra = traced_passes(recorder, sharded, companion, 0.0)["layers"]
            keep = CLUSTER_LAYERS
        else:
            serve = ServeOpen(args.seed, args.work)
            extra = asyncio.run(traced_serve(recorder, serve, companion))
            keep = SERVE_LAYERS
    finally:
        recorder.uninstall()
    recorder.dump(args.spans_out)
    out = traced["layers"]
    out.update({k: v for k, v in extra.items() if k in keep})
    out["obs.trace_overhead_frac"] = traced["run_s"] / untraced_run_s - 1.0
    out["sim.spmv_per_host_s"] = traced["invocations"] / untraced_run_s
    if isinstance(workload, PrTree):
        pooled = untraced_run_s_of(sharded, companion)
        serial = untraced_run_s_of(sharded, companion, jobs=1)
        out["cluster.pooled_over_serial"] = pooled / serial
    checker.absorb(companion, COMPANIONS[args.workload])
    return out


#: The companion run whose digests a workload's traced run also checks.
COMPANIONS = {PrTree.name: ClusterPr.name, BfsOracle.name: ServeOpen.name}

#: Per-layer metrics that ``pr_tree``'s traced run takes from the
#: sharded runtime rather than from the single-node one.
CLUSTER_LAYERS = (
    "cluster.spmv.self_s",
    "cluster.exchange.s",
    "cluster.exchange_bytes",
    "cluster.network_cycles_share",
    "parallel.map.s",
    "parallel.fallbacks",
    "parallel.start_session.s",
)

#: Per-layer metrics that ``bfs_oracle``'s traced run takes from the
#: query service's traffic window.
SERVE_LAYERS = (
    "spmv.ip_batch.s",
    "spmv.op_batch.s",
    "spmv.batch.columns",
    "core.spmv_batch.self_s",
    "serve.cache_hit_ratio",
    "serve.coalesce_width_mean",
    "serve.batches",
    "serve.exec.s",
    "serve.max_queue_depth",
    "serve.latency_p50_s",
    "serve.latency_p95_s",
    "loadgen.late_p95_s",
)


def traced_passes(recorder, workload, checker, seconds: float) -> dict:
    """Set up and run passes with ``recorder`` installed.

    Returns the per-layer metrics of the passes (per pass), the median
    traced pass time in bench-host seconds and the SpMV invocations per
    pass.
    """
    s0 = time.perf_counter()
    state, _ = workload.setup()
    s1 = time.perf_counter()
    try:
        refs = workload.references(state)
        fallbacks0 = perf_counters.pricing_fallbacks
        t0 = time.perf_counter()
        traced = workload.measure(state, seconds, checker, refs)
        t1 = time.perf_counter()
        fallbacks = perf_counters.pricing_fallbacks - fallbacks0
    finally:
        workload.close(state)
    passes = len(traced["pass_s"])
    window = between(recorder.spans, t0, t1)
    layers = layer_metrics(window, passes)
    layers["parallel.fallbacks"] = fallbacks / passes
    layers["parallel.start_session.s"] = spans_mod.layer_totals(
        between(recorder.spans, s0, s1)
    ).get("parallel.start_session", {}).get("s", 0.0)
    driver = spans_mod.layer_totals(window).get("graphs.driver", {})
    return {
        "layers": layers,
        "run_s": median(in_bench_seconds(workload, traced)["pass_s"]),
        "invocations": driver.get("invocations", 0) / passes,
    }


def untraced_run_s_of(workload, checker, jobs=None) -> float:
    """Median pass time, in bench-host seconds, of ``MIN_PASSES``
    passes over a fresh set-up."""
    state = workload.build() if jobs is None else workload.build(jobs=jobs)
    try:
        refs = workload.references(state)
        measured = workload.measure(state, 0.0, checker, refs)
    finally:
        workload.close(state)
    return median(in_bench_seconds(workload, measured)["pass_s"])


async def traced_serve(recorder, workload: ServeOpen, checker: Checker) -> dict:
    """One traced traffic window; its serving-layer metrics."""
    state = await workload.setup()
    try:
        adj = adjacency_csr(state["entry"].graph)
        warm, schedule = workload.traffic(adj)
        await workload.warm(state, warm)
        t0 = time.perf_counter()
        driven = await workload.drive(state, schedule)
        t1 = time.perf_counter()
    finally:
        workload.close(state)
    workload.check(state, schedule, driven, checker, adj)
    window = between(recorder.spans, t0, t1)
    out = layer_metrics(window, 1)
    svc, entry = state["service"], state["entry"]
    out.update(
        {
            "serve.cache_hit_ratio": svc.cache_hits / svc.queries,
            "serve.coalesce_width_mean": svc.coalescer.stats()["mean_width"],
            "serve.batches": entry.batches,
            "serve.exec.s": sum(driven["exec_s"]),
            "serve.max_queue_depth": svc.max_queue_depth,
            "serve.latency_p50_s": percentile(driven["latency_s"], 0.50),
            "serve.latency_p95_s": percentile(driven["latency_s"], 0.95),
            "loadgen.late_p95_s": percentile(driven["late_s"], 0.95),
        }
    )
    return out


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", required=True, help="private working directory")
    parser.add_argument("--out", required=True, help="result JSON path")
    parser.add_argument("--spans-out", required=True, help="span JSONL path")
    args = parser.parse_args(argv)

    checker = Checker(load_expected(args.workload, args.seed))
    metrics, samples = run_workload(args, checker)
    metrics["peak_rss_mb"] = peak_rss_mb()
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        },
        "samples": samples,
        "problems": checker.problems,
        "digests": {args.workload: checker.recorded, **checker.absorbed},
        "env": {
            "nproc": usable_cpus(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
