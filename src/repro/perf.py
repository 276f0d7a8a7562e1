"""Lightweight performance instrumentation for the reproduction.

Two concerns live here:

* **Counters** — a process-global :class:`PerfCounters` instance that the
  kernels, the sweep scheduler, the autotuner and the cluster runtime
  increment (functional executions vs. profile-only pricings, words
  replayed through the cache simulator, pricing-cache outcomes, ...).
  The dataclass fields are the one list of counter names: ``reset``,
  ``snapshot``, the tracer's per-span deltas and the pool workers'
  returned deltas all derive from :data:`COUNTER_NAMES`.  Tests use the
  counters to pin invariants like "the oracle policy executes exactly one
  functional kernel per invocation".
* **The microbench** — ``python -m repro.perf`` (the ``make perf``
  target) replays a 200k-access random trace through a 16-bank shared
  cache with every available engine, prints accesses/s per engine plus
  the speedup over the :class:`~repro.hardware.cache.ReferenceCacheBank`
  baseline, asserts the hit/miss/writeback counters are bit-identical,
  and emits one machine-readable JSON line for trajectory tracking.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, fields
from typing import Dict

__all__ = ["PerfCounters", "COUNTER_NAMES", "counters", "microbench", "main"]


@dataclass
class PerfCounters:
    """Process-global counters (see module docstring).

    Attributes
    ----------
    kernel_executions:
        SpMV kernel invocations that computed the functional semiring
        result.
    kernel_profile_only:
        Invocations that built only the :class:`KernelProfile`
        (``profile_only=True`` pricing probes).
    kernel_batched_columns:
        Batch columns processed by the batched (SpMM-style) kernels.
        Each batched column also counts once in ``kernel_executions`` /
        ``kernel_profile_only``, so the sequential invariants still hold;
        this counter isolates how much work went through the batch path.
    kernel_probe_discarded:
        Pricing probes whose winning functional result was thrown away
        instead of reused.  ``spmv_batch`` runs oracle/adaptive probes
        per column but the batched kernel always recomputes the winner's
        values (a known inefficiency, docs/model.md §6b) — the probe's
        report is still committed; sequential ``spmv`` reuses the winner
        when it executed, so this isolates the wasted probes.
    model_pricings:
        Profiles priced by the hardware model (analytic or trace), one
        per ``TransmuterSystem._price``.  An oracle ``spmv`` prices its
        four candidates and commits the winner's report, so it counts
        4; tree and static invocations price their one kernel.
    trace_accesses:
        Words replayed through the batched cache engine.
    pricing_tasks:
        :class:`~repro.parallel.tasks.PricingTask` units submitted to a
        :class:`~repro.parallel.scheduler.SweepScheduler`.
    pricing_cache_hits / pricing_cache_misses:
        Persistent pricing-cache outcomes per submitted task.  A fully
        warm sweep shows ``hits == tasks`` and zero
        ``kernel_executions`` — the invariant the cache round-trip test
        pins.
    pricing_fallbacks:
        Pool runs that degraded to the serial path (worker death or
        timeout); each increments once regardless of how many tasks
        were re-run.
    tuning_runs:
        :func:`repro.tune.autotune` invocations (plan-cache hits
        included).
    tuning_candidates:
        Candidate configurations actually evaluated (zero on a warm
        plan-cache hit).
    tuning_plan_cache_hits / tuning_plan_cache_misses:
        Persistent tuning-plan cache outcomes.  A warm second tune of
        the same matrix shows one hit and zero ``tuning_candidates`` /
        ``pricing_tasks`` / ``kernel_executions`` — the OSKI
        "tune once, reuse forever" invariant the tune tests pin.
    tuning_plans_applied:
        Non-identity :class:`~repro.tune.TuningPlan`\\ s wired into a
        :class:`~repro.core.runtime.CoSparseRuntime` operand.
    cluster_spmv_calls:
        Distributed SpMV invocations through a
        :class:`~repro.cluster.ShardedRuntime` (one per cluster
        iteration, regardless of shard count).
    cluster_shard_tasks:
        Per-shard kernel steps those invocations fanned out (serial or
        pooled; ``K`` per cluster iteration).
    cluster_exchange_bytes:
        Modeled frontier-exchange traffic charged through the cluster
        interconnect, in bytes.
    """

    kernel_executions: int = 0
    kernel_profile_only: int = 0
    kernel_batched_columns: int = 0
    kernel_probe_discarded: int = 0
    model_pricings: int = 0
    trace_accesses: int = 0
    pricing_tasks: int = 0
    pricing_cache_hits: int = 0
    pricing_cache_misses: int = 0
    pricing_fallbacks: int = 0
    tuning_runs: int = 0
    tuning_candidates: int = 0
    tuning_plan_cache_hits: int = 0
    tuning_plan_cache_misses: int = 0
    tuning_plans_applied: int = 0
    cluster_spmv_calls: int = 0
    cluster_shard_tasks: int = 0
    cluster_exchange_bytes: int = 0

    def reset(self) -> None:
        """Zero everything (tests bracket measurements with this)."""
        for name in COUNTER_NAMES:
            setattr(self, name, 0)

    def snapshot(self) -> Dict[str, int]:
        """A plain-dict copy (safe to stash, diff and pickle)."""
        return {name: getattr(self, name) for name in COUNTER_NAMES}

    def since(self, before: Dict[str, int]) -> Dict[str, int]:
        """The non-zero changes since the :meth:`snapshot` ``before``."""
        deltas = {}
        for name, value in before.items():
            diff = getattr(self, name) - value
            if diff:
                deltas[name] = diff
        return deltas

    def add(self, deltas: Dict[str, int]) -> None:
        """Fold in deltas counted elsewhere (a pool worker's :meth:`since`)."""
        for name, diff in deltas.items():
            setattr(self, name, getattr(self, name) + diff)


#: Every counter's name, in field order: the one list of counters.
COUNTER_NAMES = tuple(f.name for f in fields(PerfCounters))

#: The process-global instance every subsystem increments.
counters = PerfCounters()


# ----------------------------------------------------------------------
# Trace-replay microbench
# ----------------------------------------------------------------------
def microbench(
    n: int = 200_000,
    n_banks: int = 16,
    seed: int = 0,
    footprint_words: int = 1 << 20,
    write_fraction: float = 0.3,
    repeats: int = 3,
    include_reference: bool = True,
) -> dict:
    """Replay one random trace through every engine; return measurements.

    Engines: ``reference`` (the per-word ``OrderedDict`` simulator),
    ``numpy`` (the batched engine with the native path disabled), and
    ``native`` (the compiled kernel, when a host toolchain exists).  All
    engines must produce bit-identical (hits, misses, writebacks).
    """
    import numpy as np

    from .hardware import _native
    from .hardware.cache import BankedCache, ReferenceCacheBank
    from .hardware.params import DEFAULT_PARAMS

    rng = np.random.default_rng(seed)
    addrs = rng.integers(0, footprint_words, n).astype(np.int64)
    writes = rng.random(n) < write_fraction
    params = DEFAULT_PARAMS
    sets = params.cache_sets_per_bank * n_banks

    def best_of(make, runs):
        best = None
        cache = None
        for _ in range(max(runs, 1)):
            cache = make()
            t0 = time.perf_counter()
            cache.run_trace(addrs, writes)
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        return best, (cache.hits, cache.misses, cache.writebacks)

    engines: Dict[str, dict] = {}

    if include_reference:
        sec, cnt = best_of(
            lambda: ReferenceCacheBank(params, sets_override=sets), runs=1
        )
        engines["reference"] = _engine_row(n, sec, cnt)

    saved = os.environ.get("REPRO_NATIVE")
    os.environ["REPRO_NATIVE"] = "0"
    try:
        best_of(lambda: BankedCache(n_banks, params), runs=1)  # warm numpy
        sec, cnt = best_of(lambda: BankedCache(n_banks, params), runs=repeats)
        engines["numpy"] = _engine_row(n, sec, cnt)
    finally:
        if saved is None:
            del os.environ["REPRO_NATIVE"]
        else:
            os.environ["REPRO_NATIVE"] = saved

    if _native.available():
        best_of(lambda: BankedCache(n_banks, params), runs=1)  # warm native
        sec, cnt = best_of(lambda: BankedCache(n_banks, params), runs=repeats)
        engines["native"] = _engine_row(n, sec, cnt)

    all_counters = {tuple(e["counters"]) for e in engines.values()}
    result = {
        "bench": "trace_replay",
        "n_accesses": n,
        "n_banks": n_banks,
        "footprint_words": footprint_words,
        "write_fraction": write_fraction,
        "engines": engines,
        "counters_identical": len(all_counters) == 1,
    }
    if include_reference:
        base = engines["reference"]["seconds"]
        for name, row in engines.items():
            row["speedup_vs_reference"] = round(base / row["seconds"], 2)
    return result


def _engine_row(n: int, seconds: float, cnt) -> dict:
    return {
        "seconds": round(seconds, 6),
        "macc_per_s": round(n / seconds / 1e6, 3),
        "counters": [int(c) for c in cnt],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Trace-replay microbench (see `make perf`).",
    )
    parser.add_argument("--n", type=int, default=200_000,
                        help="trace length in word accesses (default 200000)")
    parser.add_argument("--banks", type=int, default=16,
                        help="shared-cache bank count (default 16)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed runs per engine, best-of (default 3)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--no-reference", action="store_true",
                        help="skip the slow OrderedDict baseline")
    args = parser.parse_args(argv)

    result = microbench(
        n=args.n,
        n_banks=args.banks,
        seed=args.seed,
        repeats=args.repeats,
        include_reference=not args.no_reference,
    )
    for name, row in result["engines"].items():
        speedup = row.get("speedup_vs_reference")
        extra = f"  ({speedup:g}x vs reference)" if speedup else ""
        print(
            f"{name:>9}: {row['macc_per_s']:8.2f} M acc/s "
            f"({row['seconds'] * 1e3:8.2f} ms){extra}"
        )
    ok = result["counters_identical"]
    print(f"counters identical across engines: {ok}")
    print(json.dumps(result, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
