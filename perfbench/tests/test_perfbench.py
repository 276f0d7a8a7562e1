"""Self-tests of the benchmark's own machinery.

    python3 -m pytest perfbench/tests
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from perfbench import harness, reference, spans, stats
from perfbench.workloads import (
    MIN_PASSES,
    BfsOracle,
    Checker,
    ClusterPr,
    PrTree,
    host_scale,
)


def make_span(sid, name, start, end, parent=None):
    span = spans.Span(sid, name, start, parent, 0, {})
    span.end = end
    return span


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_nested_children():
    tree = [
        make_span(0, "driver", 0.0, 10.0),
        make_span(1, "spmv", 1.0, 4.0, parent=0),
        make_span(2, "kernel", 1.5, 3.0, parent=1),
        make_span(3, "spmv", 5.0, 9.0, parent=0),
        make_span(4, "price", 8.0, 8.5, parent=3),
    ]
    own = spans.self_times(tree)
    assert own == {0: 3.0, 1: 1.5, 2: 1.5, 3: 3.5, 4: 0.5}
    totals = spans.layer_totals(tree)
    assert totals["spmv"]["calls"] == 2
    assert totals["spmv"]["s"] == 7.0
    assert totals["spmv"]["self_s"] == 5.0


def test_self_time_counts_overlapping_children_once():
    # Children on other threads may overlap; the union is subtracted
    # and never more than the parent's own interval.
    tree = [
        make_span(0, "handle", 0.0, 4.0),
        make_span(1, "driver", 1.0, 3.0, parent=0),
        make_span(2, "driver", 2.0, 5.0, parent=0),
    ]
    assert spans.self_times(tree)[0] == 1.0


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def test_percentile_needs_ten_samples_beyond():
    assert stats.percentile(range(1, 201), 0.95) == 190
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(range(1, 200), 0.95)
    assert stats.percentile(range(20), 0.5) == 9
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(range(19), 0.5)


# ----------------------------------------------------------------------
# Correctness checks
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_graph():
    from repro.graphs import Graph
    from repro.workloads import chung_lu

    return Graph(chung_lu(600, 4800, seed=3), name="small")


def test_reference_check_rejects_perturbed_output(small_graph):
    import repro.graphs as graphs

    adj = reference.adjacency_csr(small_graph)
    source = int(reference.largest_scc(adj)[0])
    checker = Checker(expected=None)
    for algorithm, want in (
        ("bfs", reference.bfs_levels(adj, source)),
        ("sssp", reference.sssp_distances(adj, source)),
    ):
        run = getattr(graphs, algorithm)(small_graph, source, geometry="2x4")
        failed = checker.failed
        checker.check_op(algorithm, algorithm, run.values, want)
        assert checker.failed == failed
        bad = run.values.copy()
        bad[np.flatnonzero(np.isfinite(bad))[-1]] += 1.0
        checker.check_op(algorithm, algorithm, bad, want)
        assert checker.failed == failed + 1
    pr = graphs.pagerank(small_graph, geometry="2x4", max_iters=20, tol=0.0)
    want = reference.pagerank_ranks(adj, 20)
    checker.check_op("pr", "pagerank", pr.values, want)
    assert checker.failed == 2
    checker.check_op("pr", "pagerank", pr.values * (1 + 1e-6), want)
    assert (checker.attempted, checker.failed) == (6, 3)


def test_frontier_probes_agree_with_csgraph(small_graph):
    adj = reference.adjacency_csr(small_graph)
    for source in reference.largest_scc(adj)[:3]:
        assert np.array_equal(
            reference.bfs_levels_frontier(adj, source),
            reference.bfs_levels(adj, source),
        )
        assert np.allclose(
            reference.sssp_distances_frontier(adj, source),
            reference.sssp_distances(adj, source),
            rtol=1e-12, atol=0.0,
        )


def test_digest_check_rejects_perturbed_run(small_graph):
    import repro.graphs as graphs

    run = graphs.pagerank(small_graph, geometry="2x4", max_iters=5, tol=0.0)
    want = reference.pagerank_ranks(reference.adjacency_csr(small_graph), 5)
    digest = reference.run_digest(run)
    recorded = Checker({"first": [digest], "steady": [digest]})
    unrecorded = Checker(None)
    for checker in (recorded, unrecorded):
        for kind in ("first", "steady", "steady"):
            (ref,) = checker.expected_digests(kind, [digest])
            checker.check_op("pr", "pagerank", run.values, want, digest, ref)
    assert recorded.failed == unrecorded.failed == 0
    run.values[0] += 1e-12
    perturbed = reference.run_digest(run)
    for checker in (recorded, unrecorded):
        (ref,) = checker.expected_digests("steady", [perturbed])
        checker.check_op("pr", "pagerank", run.values, want, perturbed, ref)
        # a wrong digest and a wrong output in one run fail it once
        checker.check_op("pr", "pagerank", run.values * 2, want, perturbed, ref)
        assert (checker.attempted, checker.failed) == (5, 2)
    first = Checker({"first": ["other"], "steady": [digest]})
    (ref,) = first.expected_digests("first", [digest])
    first.check_op("pr", "pagerank", run.values, want, digest, ref)
    assert first.failed == 1


# ----------------------------------------------------------------------
# Host scale
# ----------------------------------------------------------------------
def test_host_scale_cancels_a_uniform_slowdown():
    workload = PrTree(seed=0)
    pass_s, probe_s = [0.50, 0.52, 0.49], [0.010, 0.011, 0.012]
    run_s = stats.median(pass_s) * host_scale(workload, probe_s)
    slow = stats.median([t * 1.3 for t in pass_s]) * host_scale(
        workload, [t * 1.3 for t in probe_s]
    )
    assert slow == pytest.approx(run_s)
    assert host_scale(workload, [workload.PROBE_REFERENCE_S]) == 1.0


def test_probe_is_timed_outside_the_pass(small_graph):
    from repro.core import CoSparseRuntime

    class Small(PrTree):
        def build(self):
            rt = CoSparseRuntime(small_graph.operand, "2x4", policy="tree")
            return {"graph": small_graph, "runtime": rt}

        def reference(self, state, key):
            time.sleep(0.3)
            return super().reference(state, key)

    workload = Small(seed=0)
    state = workload.build()
    refs = workload.references(state)
    checker = Checker(None)
    measured = workload.measure(state, 0.0, checker, refs)
    assert len(measured["probe_s"]) == len(measured["pass_s"]) == MIN_PASSES
    assert min(measured["probe_s"]) >= 0.3 > max(measured["pass_s"])
    assert (checker.attempted, checker.failed) == (MIN_PASSES, 0)


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _namespaces():
    import repro.core.runtime as core_runtime
    import repro.graphs as graphs
    from repro.cluster import FullMesh, ShardedRuntime, SwitchedStar
    from repro.core import CoSparseRuntime, DecisionTree
    from repro.hardware import TransmuterSystem
    from repro.parallel import SweepScheduler
    from repro.serve import QueryService

    owners = (
        core_runtime, graphs, FullMesh, ShardedRuntime, SwitchedStar,
        CoSparseRuntime, DecisionTree, TransmuterSystem, SweepScheduler,
        QueryService,
    )
    return {owner: dict(vars(owner)) for owner in owners}


def test_uninstall_restores_every_attribute(small_graph):
    import repro.graphs as graphs
    from repro.core import CoSparseRuntime

    before = _namespaces()
    recorder = spans.Recorder()
    spans.install_layers(recorder)
    assert graphs.bfs is not before[graphs]["bfs"]
    rt = CoSparseRuntime(small_graph.operand, "2x4", policy="oracle")
    with spans.Stopwatch(rt, "spmv") as watch, spans.Stopwatch(graphs, "bfs"):
        graphs.bfs(small_graph, 0, runtime=rt)
    recorder.uninstall()
    assert "spmv" not in vars(rt)
    after = _namespaces()
    for owner, namespace in before.items():
        assert set(after[owner]) == set(namespace), owner
        for name, value in namespace.items():
            assert after[owner][name] is value, (owner, name)
    names = {s.name for s in recorder.spans}
    assert {"graphs.driver", "core.spmv", "spmv.ip.probe", "spmv.op.probe",
            "hardware.probe", "hardware.run"} <= names
    assert len(watch.samples) == len(rt.log)
    assert all(s.end >= s.start for s in recorder.spans)


# ----------------------------------------------------------------------
# Exact per-layer counts
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", [PrTree, BfsOracle, ClusterPr])
def test_layer_counts_repeat_between_traced_runs(workload):
    counts = []
    for _ in range(2):
        recorder = spans.Recorder()
        spans.install_layers(recorder)
        try:
            traced = harness.traced_passes(
                recorder, workload(seed=5), Checker(None), seconds=0.0
            )
        finally:
            recorder.uninstall()
        layers = traced["layers"]
        counts.append({k: layers[k] for k in harness.EXACT_COUNTS if k in layers})
    assert counts[0] == counts[1]
    assert counts[0]["sim.cycles"] > 0


# ----------------------------------------------------------------------
# The command
# ----------------------------------------------------------------------
def test_refuses_to_run_without_the_library(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    src = os.path.join(os.path.dirname(harness.__file__), "run.py")
    (bench / "run.py").write_text(open(src).read())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pr_tree",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_metric_names_and_units_match_benchmark_json():
    root = os.path.dirname(harness.HERE)
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for key, units in (
        ("end_to_end", harness.END_TO_END_UNITS),
        ("per_layer", harness.PER_LAYER_UNITS),
    ):
        assert {m["name"]: m["unit"] for m in spec[key]} == units
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
