"""Shared plumbing for the algorithm drivers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..core.reconfig import ReconfigurationLog
from ..core.runtime import CoSparseRuntime
from ..env import env_flag
from ..obs.tracer import active as _obs_active
from .frontier import FrontierTrace
from .graph import Graph

__all__ = [
    "AlgorithmRun",
    "VertexMap",
    "algorithm_span",
    "ensure_runtime",
    "notify_frontier",
    "tune_requested",
    "DEFAULT_GEOMETRY",
]

#: Environment switch (``python -m repro --tune`` sets it): every driver
#: -built runtime autotunes its operand.
_TUNE_ENV = "REPRO_TUNE"


def tune_requested() -> bool:
    """Whether ``REPRO_TUNE`` asks driver-built runtimes to autotune."""
    return env_flag(_TUNE_ENV, False)


def algorithm_span(name: str, graph: Graph, **attrs):
    """The root span of one algorithm run (a no-op when tracing is off).

    Every driver wraps its iteration loop in one of these, so an
    exported trace groups each run's spmv/decide/kernel spans under
    ``algorithm.<name>`` with the graph's identity attached.
    """
    return _obs_active().span(
        f"algorithm.{name}",
        graph=graph.name,
        n_vertices=graph.n_vertices,
        **attrs,
    )

#: The geometry every algorithm driver defaults to (the paper's largest
#: evaluated array).  One definition here so the drivers cannot drift.
DEFAULT_GEOMETRY = "8x16"


def ensure_runtime(
    graph: Graph,
    runtime: Optional[CoSparseRuntime] = None,
    geometry=DEFAULT_GEOMETRY,
    **kw,
) -> CoSparseRuntime:
    """Use the caller's runtime or build one over the graph's operand.

    A provided runtime has its log reset so the returned run's statistics
    cover exactly one algorithm execution.
    """
    if runtime is None:
        if (
            tune_requested()
            and "plan" not in kw
            and "auto_tune" not in kw
        ):
            kw["auto_tune"] = True
        return CoSparseRuntime(graph.operand, geometry, **kw)
    runtime.reset_log()
    return runtime


def notify_frontier(runtime, frontier) -> None:
    """Tell a distribution-aware runtime the next frontier exists.

    The drivers call this right after forming each new frontier — the
    point where a sharded runtime (:class:`repro.cluster.ShardedRuntime`)
    would broadcast the fresh non-zeros to the shards that consume them,
    so that is where it precomputes the exchange plan the next ``spmv``
    charges.  Plain runtimes have no hook and the call is a no-op.
    """
    hook = getattr(runtime, "on_frontier", None)
    if hook is not None:
        hook(frontier)


class VertexMap:
    """Original-id ↔ execution-id mapping for a (possibly tuned) runtime.

    A tuned runtime permutes its operand, so the drivers run entirely in
    *execution* vertex space and translate at the boundaries: sources
    and initial values map in (:meth:`vertex`, :meth:`to_execution`),
    final values map out (:meth:`to_original`).  For untuned runtimes
    every method is the identity, so drivers use the map unconditionally.

    With ``perm[old] = new``: execution-space input is ``orig[inverse]``
    and original-space output is ``exec[perm]`` — both exact inverses,
    so round-tripping is bit-identical.
    """

    def __init__(self, runtime: CoSparseRuntime):
        self.perm = getattr(runtime, "vertex_perm", None)
        self.inverse = getattr(runtime, "vertex_inverse", None)

    @property
    def identity(self) -> bool:
        """True when the runtime runs in original vertex order."""
        return self.perm is None

    def vertex(self, v: int) -> int:
        """Execution id of original vertex ``v``."""
        return int(v) if self.perm is None else int(self.perm[v])

    def to_execution(self, values: np.ndarray) -> np.ndarray:
        """Per-vertex array from original to execution order."""
        arr = np.asarray(values)
        return arr if self.perm is None else arr[self.inverse]

    def to_original(self, values: np.ndarray) -> np.ndarray:
        """Per-vertex array from execution back to original order."""
        arr = np.asarray(values)
        return arr if self.perm is None else arr[self.perm]


@dataclass
class AlgorithmRun:
    """Outcome of one graph-algorithm execution on CoSPARSE.

    Attributes
    ----------
    algorithm:
        ``"bfs"`` / ``"sssp"`` / ``"pr"`` / ``"cf"``.
    values:
        The algorithm's vertex result (levels, distances, ranks, or the
        ``(n, K)`` latent-factor matrix).
    log:
        Per-iteration reconfiguration and cost records.
    frontier_trace:
        Frontier density per iteration (Fig. 9's second column).
    converged:
        Whether the run reached its own stopping criterion (vs. hitting
        the iteration cap).
    column_converged:
        For the multi-source drivers: per-column convergence flags (the
        serving layer reports them per coalesced query).  ``None`` for
        single-result runs.
    """

    algorithm: str
    values: np.ndarray
    log: ReconfigurationLog
    frontier_trace: FrontierTrace
    converged: bool = True
    column_converged: Optional[List[bool]] = None

    @property
    def iterations(self) -> int:
        """SpMV iterations performed."""
        return len(self.log)

    @property
    def total_cycles(self) -> float:
        """Whole-run modelled cycles (conversions included)."""
        return self.log.total_cycles

    @property
    def total_energy_j(self) -> Optional[float]:
        """Whole-run modelled energy (None when no record was priced
        with an energy model — distinguishable from zero joules)."""
        return self.log.total_energy_j

    @property
    def time_s(self) -> float:
        """Wall-clock seconds at the modelled clock (from the log's
        ``clock_hz``, which the runtime sets from its HardwareParams)."""
        return self.total_cycles / self.log.clock_hz

    def summary(self) -> str:
        """One-line digest for reports."""
        return (
            f"{self.algorithm}: {self.iterations} iters, "
            f"{self.total_cycles:,.0f} cycles, "
            f"configs {'/'.join(dict.fromkeys(self.log.config_sequence()))}"
        )
