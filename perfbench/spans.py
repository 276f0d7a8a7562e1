"""A span recorder that instruments the library from outside.

The recorder replaces public entry points (module functions and class
methods) with thin wrappers that time each call and link it to the span
that was open on the same thread when it started.  Nothing under
``src/`` is edited: :meth:`Recorder.uninstall` puts every original
attribute back, so module and class namespaces are identical before
install and after uninstall.

Spans stay in memory; :func:`self_times` derives each span's self time
(its duration minus the part covered by its children) and
:meth:`Recorder.dump` writes them out as JSON lines when a run ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

NameFn = Callable[[tuple, dict], Tuple[str, dict]]


class Span:
    """One timed call: ``name``, interval, parent span id, thread."""

    __slots__ = ("id", "name", "start", "end", "parent", "thread", "attrs")

    def __init__(self, sid, name, start, parent, thread, attrs):
        self.id = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "thread": self.thread,
            **({"attrs": self.attrs} if self.attrs else {}),
        }


class Recorder:
    """Installs span wrappers; keeps spans in memory until dumped."""

    def __init__(self):
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        #: ``(owner, attr, original, owned)`` in install order; ``owned``
        #: says whether ``attr`` lived in ``owner``'s own namespace.
        self._installed: List[tuple] = []

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, attrs: dict, nest: bool) -> Span:
        stack = self._stack()
        parent = stack[-1].id if stack else None
        span = Span(
            next(self._ids), name, time.perf_counter(), parent,
            threading.get_ident(), attrs,
        )
        self.spans.append(span)
        if nest:
            stack.append(span)
        return span

    def wrap(
        self,
        owner,
        attr: str,
        name,
        on_result: Optional[Callable[[Span, object], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` is a span name or a ``(args, kwargs) -> (name, attrs)``
        function.  ``on_result(span, value)`` may annotate the span with
        facts about the call's return value.  Coroutine functions get a
        wrapper whose spans never become parents: concurrent coroutines
        interleave on one thread, so a stack cannot attribute children
        to them.
        """
        owned = attr in vars(owner)
        original = vars(owner)[attr] if owned else getattr(owner, attr)
        name_fn: NameFn = name if callable(name) else (lambda a, k: (name, {}))
        recorder = self

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                span_name, attrs = name_fn(args, kwargs)
                span = recorder._open(span_name, attrs, nest=False)
                try:
                    value = await original(*args, **kwargs)
                finally:
                    span.end = time.perf_counter()
                if on_result is not None:
                    on_result(span, value)
                return value

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                span_name, attrs = name_fn(args, kwargs)
                span = recorder._open(span_name, attrs, nest=True)
                try:
                    value = original(*args, **kwargs)
                finally:
                    span.end = time.perf_counter()
                    recorder._stack().pop()
                if on_result is not None:
                    on_result(span, value)
                return value

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original, owned))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._installed:
            owner, attr, original, owned = self._installed.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict(), default=str) + "\n")


class Stopwatch:
    """Times every call to ``owner.attr`` — the only instrumentation an
    untraced run has, giving its per-call latency samples.

    On an instance the class attribute is looked up at call time, so a
    :class:`Recorder` installed later still sees the calls.
    """

    def __init__(self, owner, attr: str):
        self.samples: List[float] = []
        self._owner, self._attr = owner, attr
        self._owned = attr in vars(owner)
        self._original = vars(owner)[attr] if self._owned else None
        if self._owned:
            call = self._original
        else:
            cls = type(owner)

            def call(*args, **kwargs):
                return getattr(cls, attr)(owner, *args, **kwargs)

        samples = self.samples

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return call(*args, **kwargs)
            finally:
                samples.append(time.perf_counter() - t0)

        setattr(owner, attr, timed)

    def close(self) -> None:
        if self._owned:
            setattr(self._owner, self._attr, self._original)
        else:
            delattr(self._owner, self._attr)

    def __enter__(self) -> "Stopwatch":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# Derived quantities
# ----------------------------------------------------------------------
def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals
    (clipped to the parent's own interval)."""
    by_id = {s.id: s for s in spans}
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None:
            children.setdefault(parent.id, []).append(
                (max(s.start, parent.start), min(s.end, parent.end))
            )
    return {
        s.id: s.duration - _covered(children.get(s.id, [])) for s in spans
    }


# ----------------------------------------------------------------------
# The library's layer boundaries
# ----------------------------------------------------------------------
def _kernel_name(kind: str):
    def name(args, kwargs):
        mode = "probe" if kwargs.get("profile_only") else "exec"
        return f"spmv.{kind}.{mode}", {}

    return name


def _batch_name(kind: str):
    def name(args, kwargs):
        return f"spmv.{kind}_batch", {"columns": len(kwargs.get("columns") or ())}

    return name


def _note_run(span: Span, run) -> None:
    """Record an algorithm run's modelled facts on its driver span."""
    records = list(run.log)
    words = 0
    for record in records:
        for rec in getattr(record, "shard_records", None) or (record,):
            words += rec.conversion.words
    span.attrs["cycles"] = float(run.total_cycles)
    span.attrs["conversion_words"] = int(words)
    span.attrs["invocations"] = len(records)
    span.attrs["network_cycles"] = float(
        getattr(run.log, "total_network_cycles", 0.0)
    )
    span.attrs["exchange_bytes"] = int(getattr(run.log, "total_bytes", 0))


#: Driver entry points; the service imports them from ``repro.graphs``
#: at call time, so wrapping the package attributes covers it too.
DRIVERS = ("pagerank", "bfs", "sssp", "bfs_multi", "sssp_multi")


def install_layers(recorder: Recorder) -> None:
    """Wrap every layer boundary the benchmark reports on.

    Kernels are wrapped where the runtime imported them
    (``repro.core.runtime.inner_product`` and friends), because that
    module binds the names at import time.
    """
    import repro.core.runtime as core_runtime
    import repro.graphs as graphs
    from repro.cluster import FullMesh, ShardedRuntime, SwitchedStar
    from repro.core import CoSparseRuntime, DecisionTree
    from repro.hardware import TransmuterSystem
    from repro.parallel import SweepScheduler
    from repro.serve import QueryService

    for driver in DRIVERS:
        recorder.wrap(graphs, driver, "graphs.driver", on_result=_note_run)
    recorder.wrap(CoSparseRuntime, "spmv", "core.spmv")
    recorder.wrap(CoSparseRuntime, "spmv_batch", "core.spmv_batch")
    recorder.wrap(DecisionTree, "decide", "core.decide")
    recorder.wrap(core_runtime, "inner_product", _kernel_name("ip"))
    recorder.wrap(core_runtime, "outer_product", _kernel_name("op"))
    recorder.wrap(core_runtime, "inner_product_batch", _batch_name("ip"))
    recorder.wrap(core_runtime, "outer_product_batch", _batch_name("op"))
    recorder.wrap(TransmuterSystem, "run", "hardware.run")
    recorder.wrap(TransmuterSystem, "evaluate_without_switching", "hardware.probe")
    recorder.wrap(ShardedRuntime, "spmv", "cluster.spmv")
    recorder.wrap(FullMesh, "exchange", "cluster.exchange")
    recorder.wrap(SwitchedStar, "exchange", "cluster.exchange")
    recorder.wrap(SweepScheduler, "start_session", "parallel.start_session")
    recorder.wrap(SweepScheduler, "map", "parallel.map")
    recorder.wrap(QueryService, "handle", "serve.handle")


def layer_totals(spans: List[Span]) -> Dict[str, dict]:
    """Per span name: call count, inclusive and self seconds, and the
    summed numeric attributes."""
    own = self_times(spans)
    out: Dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += s.duration
        row["self_s"] += own[s.id]
        for key, value in s.attrs.items():
            if isinstance(value, (int, float)):
                row[key] = row.get(key, 0) + value
    return out
