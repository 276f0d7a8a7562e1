"""End-to-end runtime + algorithms under the exact trace-replay engine."""

import numpy as np
import pytest

from repro.core import CoSparseRuntime
from repro.graphs import Graph, bfs, sssp
from repro.workloads import uniform_random


@pytest.fixture(scope="module")
def tiny_graph():
    return Graph(uniform_random(300, nnz=2500, seed=19, remove_self_loops=True), name="tiny")


class TestTraceFidelityEndToEnd:
    def test_bfs_identical_results_across_fidelities(self, tiny_graph):
        a = bfs(tiny_graph, 0, geometry="2x2", fidelity="analytic")
        t = bfs(tiny_graph, 0, geometry="2x2", fidelity="trace")
        assert np.allclose(
            np.nan_to_num(a.values, posinf=-1), np.nan_to_num(t.values, posinf=-1)
        )

    def test_trace_reports_are_trace_fidelity(self, tiny_graph):
        run = bfs(tiny_graph, 0, geometry="2x2", fidelity="trace")
        assert all(r.report.fidelity == "trace" for r in run.log)

    def test_cycles_within_band(self, tiny_graph):
        a = sssp(tiny_graph, 0, geometry="2x2", fidelity="analytic")
        t = sssp(tiny_graph, 0, geometry="2x2", fidelity="trace")
        assert np.allclose(
            np.nan_to_num(a.values, posinf=-1), np.nan_to_num(t.values, posinf=-1)
        )
        ratio = a.total_cycles / t.total_cycles
        assert 1 / 3 < ratio < 3

    @pytest.mark.parametrize("fidelity", ["analytic", "trace"])
    def test_fidelity_decides_trace_emission(self, tiny_graph, fidelity):
        """The runtime's one setting picks whether kernels emit traces,
        and with it the engine that prices every iteration."""
        rt = CoSparseRuntime(tiny_graph.operand, "2x2", fidelity=fidelity)
        run = bfs(tiny_graph, 0, runtime=rt)
        assert all(r.report.fidelity == fidelity for r in run.log)
