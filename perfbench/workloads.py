"""The benchmark's workloads.

Each workload builds its inputs from the benchmark seed, sets the
library up (timed as ``setup_s``), and then runs identical passes
through public entry points only.  Drivers are always looked up on
``repro.graphs`` at call time so the span recorder's wrappers see every
call.

Why these two (see README.md for the layer table):

* ``pr_tree``    — dense frontier throughout: every call is functional
  IP/SC, the kernel layer dominates and pricing is bypassed.
* ``bfs_oracle`` — sparse -> dense -> sparse frontiers under the oracle:
  four profile-only probes per call, SW/HW switches and frontier
  conversions; the pricing-bound counterpart of ``pr_tree``.

Their traced runs also measure a companion each, for the layers the
workload itself never reaches: ``pr_tree`` the same PageRank on the
sharded runtime (:class:`ClusterPr`: exchange pricing and the
scheduler's pool session with shared-memory transport), ``bfs_oracle``
a window of open-loop queries into the query service
(:class:`ServeOpen`: result cache, coalescer, batched kernels).
"""

from __future__ import annotations

import asyncio
import os
import tempfile
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import repro.graphs as graphs
from repro.cluster import ShardedRuntime
from repro.core import CoSparseRuntime
from repro.graphs import Graph
from repro.serve import QueryService, ServeConfig
from repro.workloads import chung_lu

from . import reference
from .spans import Stopwatch
from .stats import median

#: PageRank runs a fixed iteration count (``tol=0`` never converges
#: early), so every pass does identical work.
PR_ITERS = 20
#: Independent set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Fewest passes a timed phase runs, however long they take.
MIN_PASSES = 3


def usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


class Checker:
    """Counts operations and failures; compares modelled digests.

    ``expected`` holds the digests recorded for this workload at the
    recorded seed, one per algorithm run of a pass: ``first`` for the
    first pass after a set-up, whose opening invocation may pay a
    hardware switch away from the warm-up's mode, and ``steady`` for
    every later pass.  At other seeds each pass must repeat the first
    digests seen of its kind.
    """

    def __init__(self, expected: Optional[Dict[str, List[str]]]):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.recorded: Dict[str, List[str]] = {}
        #: Digests of sub-runs folded in by :meth:`absorb`, by name.
        self.absorbed: Dict[str, Dict[str, List[str]]] = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def expected_digests(self, kind: str, digests: List[str]) -> List[str]:
        """The digests a group of ``kind`` (``first``/``steady``) must
        match: the recorded ones, or else the first group seen."""
        seen = self.recorded.setdefault(kind, digests)
        return self.expected[kind] if self.expected is not None else seen

    def check_op(
        self, label: str, algorithm: str, got, want,
        digest=None, want_digest=None, problems=(),
    ) -> None:
        """One operation: its output against the reference and, when
        given, its modelled digest, plus any ``problems`` the caller
        found.  It fails at most once."""
        self.attempted += 1
        problems = list(problems)
        if not reference.matches(algorithm, got, want):
            problems.append("output differs from the reference")
        if digest is not None and digest != want_digest:
            problems.append("modelled digest differs")
        if problems:
            self.fail(f"{label}: {'; '.join(problems)}")

    def absorb(self, other: "Checker", name: str) -> None:
        """Count ``other``'s operations as this run's; keep its digests
        under ``name``."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(f"{name}: {p}" for p in other.problems)
        self.absorbed[name] = other.recorded


# ----------------------------------------------------------------------
# Pass-based workloads
# ----------------------------------------------------------------------
class PassWorkload:
    """A workload made of identical passes over one set-up state.

    Subclasses provide :meth:`build` (the timed set-up, returning a
    state whose ``"runtime"`` is the object whose ``spmv`` calls are the
    latency samples), :meth:`ops` (one pass: a list of ``(label,
    algorithm, reference key, operation)``) and :meth:`reference` (the
    independent answer for a key).  :meth:`probe` is the host probe
    timed after each operation; by default the reference again.

    ``PROBE_REFERENCE_S`` is the host probe's median per pass on the
    bench host, the median over several runs, and ``PROBE_WINDOW`` the
    passes whose probes give one pass's host speed; see
    :func:`in_bench_seconds`.
    """

    name = ""
    PROBE_REFERENCE_S = 1.0
    PROBE_WINDOW = 1

    def __init__(self, seed: int):
        self.seed = int(seed)

    def build(self):
        raise NotImplementedError

    def ops(self, state) -> List[Tuple[str, str, object, Callable]]:
        raise NotImplementedError

    def reference(self, state, key) -> np.ndarray:
        raise NotImplementedError

    def probe(self, state, key) -> None:
        self.reference(state, key)

    def choose_inputs(self, state) -> None:
        """Draw the pass's seeded inputs once ``state["adj"]`` exists."""

    def close(self, state) -> None:
        """Release what :meth:`build` started."""

    # ------------------------------------------------------------------
    def setup(self) -> Tuple[dict, float]:
        """``(state, seconds)`` of one set-up including its warm-up."""
        t0 = time.perf_counter()
        state = self.build()
        return state, time.perf_counter() - t0

    def references(self, state) -> dict:
        """The reference answer of every operation of a pass, by key."""
        state["adj"] = reference.adjacency_csr(state["graph"])
        self.choose_inputs(state)
        return {key: self.reference(state, key) for _, _, key, _ in self.ops(state)}

    def measure(self, state, seconds: float, checker: Checker, refs) -> dict:
        """Run passes for ``seconds``; check each pass outside the timer.

        After each operation the host probe runs, outside the pass
        timer: the same algorithm on the same input in scipy or numpy,
        so it slows and speeds up with the host much as the operation
        does.  Returns per pass its time, its probe time and its SpMV
        latencies.
        """
        pass_s: List[float] = []
        probe_s: List[float] = []
        latency_s: List[List[float]] = []
        with Stopwatch(state["runtime"], "spmv") as latency:
            deadline = time.perf_counter() + seconds
            while len(pass_s) < MIN_PASSES or time.perf_counter() < deadline:
                runs, elapsed, probed = [], 0.0, 0.0
                calls = len(latency.samples)
                for label, algorithm, key, op in self.ops(state):
                    t0 = time.perf_counter()
                    run = op()
                    t1 = time.perf_counter()
                    self.probe(state, key)
                    probed += time.perf_counter() - t1
                    elapsed += t1 - t0
                    runs.append((label, algorithm, key, run))
                pass_s.append(elapsed)
                probe_s.append(probed)
                latency_s.append(latency.samples[calls:])
                digests = [reference.run_digest(run) for *_, run in runs]
                kind = "first" if len(pass_s) == 1 else "steady"
                want = checker.expected_digests(kind, digests)
                for i, (label, algorithm, key, run) in enumerate(runs):
                    checker.check_op(
                        f"pass {len(pass_s)} {label}", algorithm, run.values,
                        refs[key], digests[i], want[i] if i < len(want) else None,
                    )
        return {"pass_s": pass_s, "probe_s": probe_s, "latency_s": latency_s}


def host_scale(workload: PassWorkload, probe_s: List[float]) -> float:
    """Factor that turns host seconds measured beside ``probe_s`` into
    bench-host seconds.

    The bench host is a shared VM whose speed swings by 20-40 % over
    tens of seconds, more than any bound the benchmark may set.  The
    probe (see :meth:`PassWorkload.measure`) is timed beside every
    operation and swings with it; a timing multiplied by this factor is
    what it would have read at the speed the bench host had when
    ``PROBE_REFERENCE_S`` was recorded.  The probe runs only scipy and
    numpy, so a change to the simulator moves the scaled timings in
    full.
    """
    return workload.PROBE_REFERENCE_S / median(probe_s)


def in_bench_seconds(workload: PassWorkload, measured: dict) -> dict:
    """``measured`` (from :meth:`PassWorkload.measure`) in bench-host
    seconds.

    Each pass, and each of its SpMV latencies, is scaled by the host
    speed around it: :func:`host_scale` over the probes of the
    ``PROBE_WINDOW`` passes centred on it.  ``scale`` is the whole
    run's, for timings taken outside the passes.
    """
    probe_s, half = measured["probe_s"], workload.PROBE_WINDOW // 2
    scales = [
        host_scale(workload, probe_s[max(i - half, 0): i + half + 1])
        for i in range(len(probe_s))
    ]
    return {
        "pass_s": [t * k for t, k in zip(measured["pass_s"], scales)],
        "latency_s": [
            t * k for ts, k in zip(measured["latency_s"], scales) for t in ts
        ],
        "scale": host_scale(workload, probe_s),
    }


class PrTree(PassWorkload):
    """Tree-policy PageRank on ``chung_lu(20000, 160000)`` at ``4x8``."""

    name = "pr_tree"
    geometry = "4x8"
    #: Over ten runs (seeds 11-15 and 21-25).
    PROBE_REFERENCE_S = 0.0146
    #: A pass takes about 0.5 s and its one probe 10-15 ms, so a pass's
    #: host speed is read over the five passes around it.
    PROBE_WINDOW = 5

    def graph(self) -> Graph:
        return Graph(chung_lu(20000, 160000, seed=self.seed), name="chung_lu-20k")

    def build(self):
        graph = self.graph()
        rt = CoSparseRuntime(graph.operand, self.geometry, policy="tree")
        graphs.pagerank(graph, runtime=rt, max_iters=1, tol=0.0)
        return {"graph": graph, "runtime": rt}

    def ops(self, state):
        graph, rt = state["graph"], state["runtime"]

        def run():
            return graphs.pagerank(graph, runtime=rt, max_iters=PR_ITERS, tol=0.0)

        return [("pagerank", "pagerank", "pr", run)]

    def reference(self, state, key):
        return reference.pagerank_ranks(state["adj"], PR_ITERS)


class BfsOracle(PassWorkload):
    """Oracle-policy BFS + SSSP from seeded sources, ``8x16``."""

    name = "bfs_oracle"
    geometry = "8x16"
    #: The graph is fixed: at this size a power-law graph's frontier
    #: curves vary enough from seed to seed to swamp a host-time
    #: change.  The seed picks the sources.
    GRAPH_SEED = 7
    #: Sources per pass; several so one seed's unlucky source cannot
    #: dominate the pass time.
    N_SOURCES = 8
    #: Over fifteen runs (seeds 41-45 and 201-210).
    PROBE_REFERENCE_S = 0.0496

    def build(self):
        graph = Graph(chung_lu(4000, 32000, seed=self.GRAPH_SEED), name="chung_lu-4k")
        rt = CoSparseRuntime(graph.operand, self.geometry, policy="oracle")
        hub = int(np.argmax(graph.out_degrees()))
        graphs.bfs(graph, hub, runtime=rt, max_iters=1)
        return {"graph": graph, "runtime": rt}

    def choose_inputs(self, state):
        state["sources"] = pick_sources(state["adj"], self.seed, self.N_SOURCES)

    def reference(self, state, key):
        algorithm, source = key
        if algorithm == "bfs":
            return reference.bfs_levels(state["adj"], source)
        return reference.sssp_distances(state["adj"], source)

    def probe(self, state, key):
        # Frontier by frontier in numpy, as the simulator steps: across
        # runs its time follows the host as the passes' does, where
        # csgraph's compiled traversal swings less (pass time grew as
        # its probe time to the power 1.2-1.4).
        algorithm, source = key
        if algorithm == "bfs":
            reference.bfs_levels_frontier(state["adj"], source)
        else:
            reference.sssp_distances_frontier(state["adj"], source)

    def ops(self, state):
        graph, rt = state["graph"], state["runtime"]
        ops = []
        for s in state["sources"]:
            for algorithm in ("bfs", "sssp"):
                # the driver is looked up at call time, for the recorder
                def run(algorithm=algorithm, s=s):
                    return getattr(graphs, algorithm)(graph, s, runtime=rt)

                ops.append((f"{algorithm}[{s}]", algorithm, (algorithm, s), run))
        return ops


class ClusterPr(PrTree):
    """PageRank on the ``pr_tree`` graph over a 4-node full mesh,
    shard kernels pooled on ``min(2, nproc)`` worker processes.

    Not a workload of its own: its pass time swings with the host's
    scheduling of three processes on few cores by more than any bound
    could absorb, so ``pr_tree``'s traced run measures it for the
    cluster and pool layers instead.
    """

    name = "cluster_pr"
    nodes = 4

    def jobs(self) -> int:
        return min(2, usable_cpus())

    def build(self, jobs: Optional[int] = None):
        graph = self.graph()
        srt = ShardedRuntime(
            graph.operand,
            self.nodes,
            geometry=self.geometry,
            topology="mesh",
            jobs=self.jobs() if jobs is None else jobs,
        )
        srt.__enter__()
        try:
            # One iteration spawns the pool workers and publishes the
            # shards to shared memory, so that cost lands in set-up.
            graphs.pagerank(graph, runtime=srt, max_iters=1, tol=0.0)
        except BaseException:
            srt.close()
            raise
        return {"graph": graph, "runtime": srt}

    def close(self, state) -> None:
        state["runtime"].close()


def source_pool(adj) -> np.ndarray:
    """Candidate traversal sources: vertices of the largest strongly
    connected component (each reaches most of the graph) whose
    out-degree is in the middle fifth of that component's, so every
    traversal's frontier swells and shrinks along a similar curve and
    the seed changes which sources run, not how much work they are."""
    scc = reference.largest_scc(adj)
    degree = np.diff(adj.indptr)[scc]
    lo, hi = np.quantile(degree, [0.4, 0.6])
    return scc[(degree >= lo) & (degree <= hi)]


def pick_sources(adj, seed: int, count: int) -> List[int]:
    """``count`` distinct seeded sources from :func:`source_pool`."""
    rng = np.random.default_rng([int(seed), 0xB5])
    pool = source_pool(adj)
    return [int(v) for v in rng.choice(pool, size=count, replace=False)]


# ----------------------------------------------------------------------
# Open-loop serving
# ----------------------------------------------------------------------
class ServeOpen:
    """Open-loop Poisson queries into one in-process ``QueryService``.

    Not a workload of its own: a slow spell of the host moves the
    service time and, through queueing and the event loop's contention
    for the interpreter lock, the query latency by more than any bound
    could absorb.  ``bfs_oracle``'s traced run drives one window of it
    for the serving layers.

    The served graph is the suite's own synthesis (its default seed),
    as a deployed service would hold it; the benchmark seed drives the
    traffic.  Arrivals are a Poisson process conditioned on its count
    (``RATE_QPS * WINDOW_S`` uniform due times), so the offered load is
    the same in every run and only the arrival pattern varies by seed.
    A query is *hot* (its answer was cached before the window opened)
    or *cold* (a source no earlier query used, so it executes and its
    answer is written to the cache).  The hit ratio is thus fixed by
    the mix rather than by how far a cache warm-up got, which keeps
    the load the same from the first second of the window to the last.
    """

    name = "serve_open"
    geometry = "8x16"
    suite_graph = "twitter"
    scale = 16
    #: Offered load, well below saturation on a 2-core host, over a
    #: window long enough for a p95 with twenty samples beyond it.
    RATE_QPS = 20.0
    WINDOW_S = 20.0
    #: Share of PageRank queries (one parameter set, always hot).
    PAGERANK_SHARE = 0.05
    #: Share of BFS/SSSP queries drawn from the hot set.
    HOT_SHARE = 0.8
    #: Zipf hot set the hot sources come from, and its exponent.
    HOT_SET = 8
    ZIPF_S = 1.1
    #: Distinct served answers per algorithm re-run through the
    #: direct driver and compared bit for bit.
    SPOT_CHECKS = 3
    #: The generator sleeps until this long before a due time and
    #: spins the rest, so sends are not late by the timer granularity.
    SPIN_S = 0.002
    PR_PARAMS = {"max_iters": PR_ITERS, "tol": 0.0}

    def __init__(self, seed: int, cache_root: str):
        self.seed = int(seed)
        self.cache_root = cache_root

    async def setup(self) -> dict:
        """Start a service and load the graph from a cold workload cache."""
        os.environ["REPRO_CACHE_DIR"] = tempfile.mkdtemp(
            prefix="setup-", dir=self.cache_root
        )
        svc = QueryService(
            ServeConfig(geometry=self.geometry, policy="tree", concurrency=1)
        )
        resp = await svc.handle(
            {"op": "load", "graph": self.suite_graph, "scale": self.scale}
        )
        if not resp["ok"]:
            svc.close()
            raise RuntimeError(f"load failed: {resp['error']}")
        entry = svc.registry.get(resp["result"]["name"])
        hub = int(np.argmax(entry.graph.out_degrees()))
        graphs.bfs(entry.graph, hub, runtime=entry.runtime, max_iters=1)
        return {"service": svc, "entry": entry}

    def close(self, state) -> None:
        state["service"].close()

    def traffic(self, adj):
        """``(warm-up requests, schedule)``: the hot keys to cache before
        the window, and ``(due offset, request)`` pairs sorted by due
        time."""
        rng = np.random.default_rng([self.seed, 0x5E])
        count = int(round(self.RATE_QPS * self.WINDOW_S))
        due = np.sort(rng.uniform(0.0, self.WINDOW_S, size=count))
        order = rng.permutation(source_pool(adj))
        hot, cold = order[: self.HOT_SET], iter(order[self.HOT_SET:])
        zipf = 1.0 / np.arange(1, self.HOT_SET + 1) ** self.ZIPF_S
        pagerank = {"algorithm": "pagerank", "params": dict(self.PR_PARAMS)}
        warm = [pagerank] + [
            {"algorithm": a, "source": int(s)} for s in hot for a in ("bfs", "sssp")
        ]
        schedule = []
        for i, t in enumerate(due):
            if rng.random() < self.PAGERANK_SHARE:
                query = dict(pagerank)
            else:
                algorithm = "bfs" if rng.random() < 0.5 else "sssp"
                if rng.random() < self.HOT_SHARE:
                    source = rng.choice(hot, p=zipf / zipf.sum())
                else:
                    source = next(cold)
                query = {"algorithm": algorithm, "source": int(source)}
            schedule.append((float(t), query))
        return warm, schedule

    async def warm(self, state, requests) -> None:
        """Answer each hot key once so the window starts with it cached."""
        for request in requests:
            resp = await state["service"].handle(self._request(state, -1, request))
            if not resp["ok"]:
                raise RuntimeError(f"warm-up failed: {resp['error']}")

    @staticmethod
    def _request(state, i, query) -> dict:
        return {"id": i, "op": "query", "graph": state["entry"].name, **query}

    async def drive(self, state, schedule) -> dict:
        """Send every request at its due time; time each from due time."""
        svc = state["service"]
        loop = asyncio.get_running_loop()
        latency: List[float] = [0.0] * len(schedule)
        late: List[float] = [0.0] * len(schedule)
        responses: List[Optional[dict]] = [None] * len(schedule)

        async def one(i, request, due):
            responses[i] = await svc.handle(request)
            latency[i] = loop.time() - due

        with Stopwatch(graphs, "bfs_multi") as w1, Stopwatch(
            graphs, "sssp_multi"
        ) as w2, Stopwatch(graphs, "pagerank") as w3:
            start = loop.time() + 0.05
            tasks = []
            for i, (offset, query) in enumerate(schedule):
                due = start + offset
                delay = due - loop.time() - self.SPIN_S
                if delay > 0:
                    await asyncio.sleep(delay)
                while loop.time() < due:
                    pass  # the loop's timers overshoot by ~1 ms
                late[i] = max(loop.time() - due, 0.0)
                tasks.append(
                    asyncio.create_task(one(i, self._request(state, i, query), due))
                )
            await asyncio.gather(*tasks)
        return {
            "latency_s": latency,
            "late_s": late,
            "responses": responses,
            "exec_s": w1.samples + w2.samples + w3.samples,
        }

    def check(self, state, schedule, driven, checker: Checker, adj) -> None:
        """Every answer against the reference; the first few distinct
        answers per algorithm also bit for bit against the direct driver
        call, whose digest is the modelled check."""
        graph = state["entry"].graph
        answered = [
            (i, query, response)
            for i, ((_, query), response) in enumerate(
                zip(schedule, driven["responses"])
            )
        ]
        spot: Dict[Tuple, int] = {}  # (algorithm, source) -> answer index
        for i, query, response in answered:
            key = (query["algorithm"], query.get("source"))
            taken = sum(1 for a, _ in spot if a == key[0])
            if response["ok"] and key not in spot and taken < self.SPOT_CHECKS:
                spot[key] = i
        direct = {key: self.direct(graph, *key) for key in spot}
        digests = [reference.run_digest(run) for run in direct.values()]
        want = dict(zip(spot, checker.expected_digests("first", digests)))
        got = dict(zip(spot, digests))
        refs: Dict[Tuple, np.ndarray] = {}
        for i, query, response in answered:
            key = algorithm, source = query["algorithm"], query.get("source")
            label = f"serve {algorithm}[{source}] #{i}"
            if not response["ok"]:
                checker.attempted += 1
                checker.fail(f"{label}: error {response['error']}")
                continue
            if key not in refs:
                if algorithm == "bfs":
                    refs[key] = reference.bfs_levels(adj, source)
                elif algorithm == "sssp":
                    refs[key] = reference.sssp_distances(adj, source)
                else:
                    refs[key] = reference.pagerank_ranks(adj, PR_ITERS)
            values = response["result"]["values"]
            checked = spot.get(key) == i
            differs = checked and not np.array_equal(
                np.asarray(values), direct[key].values
            )
            checker.check_op(
                label, algorithm, values, refs[key],
                got[key] if checked else None, want.get(key),
                ["differs from the direct driver"] if differs else (),
            )

    def direct(self, graph, algorithm, source):
        """The one-shot driver call a served answer must equal."""
        if algorithm == "pagerank":
            return graphs.pagerank(
                graph, geometry=self.geometry, policy="tree", **self.PR_PARAMS
            )
        driver = graphs.bfs if algorithm == "bfs" else graphs.sssp
        return driver(graph, source, geometry=self.geometry, policy="tree")


WORKLOADS = {w.name: w for w in (PrTree, BfsOracle)}
