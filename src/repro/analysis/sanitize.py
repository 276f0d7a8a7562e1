"""Runtime sanitizer mode (``REPRO_SANITIZE=1``).

The linter catches invariant violations that are visible in the source;
this module catches the ones only visible in flight.  When the
environment variable ``REPRO_SANITIZE`` is set to a truthy value
(anything but ``0``/``false``/``off``/empty), the runtime and the SpMV
kernels cross-check:

* **partition conservation** — per-PE nnz/work histograms sum to the
  partition total (a lost or double-counted entry corrupts both the
  functional result and the pricing);
* **batch provenance** — a batched superstep emits exactly one
  :class:`IterationRecord` per column, carrying the right
  ``(batch_id, batch_column)`` tags in input-column order;
* **counter sanity** — cycle counts and memory-event counters are
  finite and non-negative, and L1/L2 hits never exceed accesses.

A violated invariant raises :class:`~repro.errors.SimulationError` with
a ``[sanitizer]``-prefixed message.  When the mode is off every hook is
a no-op method on a shared null object, so the instrumented hot paths
pay one dynamic attribute call and nothing else.

Tests (and embedders) can force the mode regardless of the environment
with the :func:`override` context manager.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Optional

from ..env import env_flag
from ..errors import SimulationError

__all__ = [
    "enabled",
    "active",
    "override",
    "scope",
    "batch_scope",
    "Sanitizer",
]

_ENV_VAR = "REPRO_SANITIZE"

#: Tri-state override installed by :func:`override`; None defers to env.
_forced: Optional[bool] = None


def enabled() -> bool:
    """Whether sanitizer checks are live (env var or test override)."""
    if _forced is not None:
        return _forced
    return env_flag(_ENV_VAR, False)


@contextmanager
def override(value: bool):
    """Force the sanitizer on/off for the dynamic extent of the block."""
    global _forced
    previous = _forced
    _forced = bool(value)
    try:
        yield
    finally:
        _forced = previous


def _fail(label: str, message: str) -> None:
    # Late import: obs depends on nothing here, but keeping the hook
    # lazy means sanitize stays importable in any partial-init state.
    from ..obs.events import SanitizerViolationEvent
    from ..obs.flight import recorder as _flight_recorder
    from ..obs.tracer import active as _obs_active

    violation = SanitizerViolationEvent(label=label, message=message)
    tracer = _obs_active()
    if tracer.enabled:
        tracer.event(violation)
    else:
        # The tracer mirrors its events into the flight ring itself;
        # with tracing off the violation still has to reach the ring so
        # the dump below names what went wrong.
        _flight_recorder().record_event(violation)
    # Dump the last-N telemetry ring next to the failure: a post-mortem
    # on a long-running server must not require re-running with tracing
    # on.  dump() swallows filesystem errors — it never masks the
    # SimulationError being raised.
    _flight_recorder().dump(f"sanitizer:{label}")
    raise SimulationError(f"[sanitizer] {label}: {message}")


# ----------------------------------------------------------------------
class Sanitizer:
    """The live checker; every method raises on a violated invariant."""

    def check(self, label: str, condition: bool, message: str) -> None:
        """Generic invariant: raise unless ``condition`` holds."""
        if not condition:
            _fail(label, message)

    def check_histogram(self, label: str, per_pe, expected_total) -> None:
        """Per-PE work histogram must conserve the partition total."""
        total = int(per_pe.sum())
        if total != int(expected_total):
            _fail(
                label,
                f"per-PE histogram sums to {total}, expected "
                f"{int(expected_total)} — entries were lost or double-"
                "counted across the partition",
            )
        if len(per_pe) and int(per_pe.min()) < 0:
            _fail(label, "per-PE histogram contains negative counts")

    def check_report(self, label: str, report) -> None:
        """Cycle/energy/memory accounting must be finite, non-negative
        and internally consistent."""
        self._non_negative(label, "cycles", report.cycles)
        self._non_negative(
            label, "bandwidth_floor_cycles", report.bandwidth_floor_cycles
        )
        self._non_negative(label, "reconfig_cycles", report.reconfig_cycles)
        if report.energy_j is not None:
            self._non_negative(label, "energy_j", report.energy_j)
        c = report.counters
        for name in (
            "pe_ops",
            "lcp_ops",
            "spm_accesses",
            "l1_accesses",
            "l1_hits",
            "l2_accesses",
            "l2_hits",
            "dram_words",
            "xbar_hops",
        ):
            self._non_negative(label, name, getattr(c, name))
        if c.l1_hits > c.l1_accesses:
            _fail(
                label,
                f"l1_hits ({c.l1_hits}) exceed l1_accesses ({c.l1_accesses})",
            )
        if c.l2_hits > c.l2_accesses:
            _fail(
                label,
                f"l2_hits ({c.l2_hits}) exceed l2_accesses ({c.l2_accesses})",
            )

    def check_conversion(self, label: str, cost, cycles: float) -> None:
        """Frontier-conversion accounting must be non-negative."""
        self._non_negative(label, "conversion reads", cost.reads)
        self._non_negative(label, "conversion writes", cost.writes)
        self._non_negative(label, "conversion cycles", cycles)

    def check_batch_records(
        self, label: str, records, batch_id: int, n_columns: int
    ) -> None:
        """A batch's records must tag each column exactly once, in the
        sequential (input-column) iteration order."""
        tagged = [r for r in records if r.batch_id == batch_id]
        if len(tagged) != n_columns:
            _fail(
                label,
                f"batch {batch_id} logged {len(tagged)} records for "
                f"{n_columns} columns",
            )
        seen_columns = sorted(r.batch_column for r in tagged)
        if seen_columns != list(range(n_columns)):
            _fail(
                label,
                f"batch {batch_id} column tags {seen_columns} do not cover "
                f"0..{n_columns - 1} exactly once",
            )
        iterations = [r.iteration for r in tagged]
        if iterations != sorted(iterations):
            _fail(
                label,
                f"batch {batch_id} records are out of iteration order",
            )

    # ------------------------------------------------------------------
    @staticmethod
    def _non_negative(label: str, name: str, value) -> None:
        if value is None:
            return
        v = float(value)
        if math.isnan(v) or v < 0:
            _fail(label, f"{name} is {value!r} (must be finite and >= 0)")


class _NullSanitizer(Sanitizer):
    """No-op twin used when the mode is off."""

    def check(self, label, condition, message):  # noqa: D102
        pass

    def check_histogram(self, label, per_pe, expected_total):  # noqa: D102
        pass

    def check_report(self, label, report):  # noqa: D102
        pass

    def check_conversion(self, label, cost, cycles):  # noqa: D102
        pass

    def check_batch_records(self, label, records, batch_id, n_columns):  # noqa: D102
        pass


_LIVE = Sanitizer()
_NULL = _NullSanitizer()


def active() -> Sanitizer:
    """The live sanitizer when enabled, else the shared no-op."""
    return _LIVE if enabled() else _NULL


# ----------------------------------------------------------------------
@contextmanager
def scope(label: str):
    """Context manager handing out the active sanitizer for one
    instrumented region (a kernel invocation, an accounting block)."""
    yield active()


@contextmanager
def batch_scope(log, batch_id: int, n_columns: int):
    """Instrument one batched superstep: yields the active sanitizer and
    cross-checks the emitted records' provenance on exit."""
    san = active()
    before = len(log.records)
    yield san
    san.check_batch_records(
        "spmv_batch", log.records[before:], batch_id, n_columns
    )
