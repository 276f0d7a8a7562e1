"""Profile-only pricing: decoupled execution, reuse, and the counting test.

The oracle policy prices all four (algorithm, mode) candidates; pricing
needs only the :class:`KernelProfile`, so the probes run with
``profile_only=True`` and exactly one functional kernel executes per
``spmv()`` invocation (this pins the fix for the historical
double-execution bug, where the winner was re-run after ``_compare``).
"""

import dataclasses

import numpy as np
import pytest

from repro.core import CoSparseRuntime
from repro.errors import ReproError
from repro.formats import CSCMatrix, MultiVector
from repro.graphs import Graph, bfs
from repro.hardware import Geometry, HWMode, TransmuterSystem
from repro.perf import counters as perf_counters
from repro.spmv import (
    inner_product,
    outer_product,
    spmv_semiring,
    sssp_semiring,
)
from repro.workloads import random_frontier, uniform_random

GEOM = Geometry.parse("2x8")


def exact(report) -> str:
    """Every :class:`RunReport` field by exact value and kind (``repr``
    tells ``0`` from ``0.0`` and round-trips every float)."""
    return repr(dataclasses.asdict(report))


@pytest.fixture(scope="module")
def matrix():
    return uniform_random(2000, nnz=20_000, seed=42)


@pytest.fixture(autouse=True)
def fresh_counters():
    perf_counters.reset()
    yield
    perf_counters.reset()


class TestKernelProfileOnly:
    def test_ip_profile_matches_executed(self, matrix):
        sr = spmv_semiring()
        f = random_frontier(matrix.n_cols, 0.3, seed=1).to_dense().data
        system = TransmuterSystem(GEOM)
        full = inner_product(matrix, f, sr, GEOM, HWMode.SC)
        probe = inner_product(matrix, f, sr, GEOM, HWMode.SC, profile_only=True)
        assert full.executed and not probe.executed
        r_full = system.evaluate_without_switching(full.profile)
        r_probe = system.evaluate_without_switching(probe.profile)
        assert exact(r_probe) == exact(r_full)

    def test_op_profile_matches_executed(self, matrix):
        sr = spmv_semiring()
        csc = CSCMatrix.from_coo(matrix)
        f = random_frontier(matrix.n_cols, 0.01, seed=2)
        system = TransmuterSystem(GEOM)
        full = outer_product(csc, f, sr, GEOM, HWMode.PC)
        probe = outer_product(csc, f, sr, GEOM, HWMode.PC, profile_only=True)
        assert full.executed and not probe.executed
        r_full = system.evaluate_without_switching(full.profile)
        r_probe = system.evaluate_without_switching(probe.profile)
        assert exact(r_probe) == exact(r_full)

    @pytest.mark.parametrize("algorithm, mode", [
        ("ip", HWMode.SC), ("ip", HWMode.SCS),
        ("op", HWMode.PC), ("op", HWMode.PS), ("op", HWMode.SC),
    ])
    @pytest.mark.parametrize("with_current", [False, True])
    def test_probe_prices_exactly_like_executed(
        self, matrix, algorithm, mode, with_current
    ):
        """The runtime commits the winning probe's report for the
        executed kernel, so the two must agree in every field and bit.
        SSSP carries its output from the current distances."""
        sr = sssp_semiring() if with_current else spmv_semiring()
        rng = np.random.default_rng(7)
        current = (
            rng.uniform(0.0, 9.0, matrix.n_rows) if with_current else None
        )
        sv = random_frontier(matrix.n_cols, 0.3 if algorithm == "ip" else 0.01,
                             seed=8)
        system = TransmuterSystem(GEOM)
        reports = []
        for profile_only in (False, True):
            if algorithm == "ip":
                dense = np.full(matrix.n_cols, sr.absent)
                dense[sv.indices] = sv.values
                result = inner_product(
                    matrix, dense, sr, GEOM, mode, current=current,
                    profile_only=profile_only,
                )
            else:
                result = outer_product(
                    CSCMatrix.from_coo(matrix), sv, sr, GEOM, mode,
                    current=current, profile_only=profile_only,
                )
            assert result.executed is not profile_only
            reports.append(system.evaluate_without_switching(result.profile))
        assert exact(reports[0]) == exact(reports[1])

    def test_op_exact_path_executes_anyway(self, matrix):
        """with_trace forces the element-by-element merge, whose values
        are a by-product — the probe then reports executed."""
        sr = spmv_semiring()
        csc = CSCMatrix.from_coo(matrix)
        f = random_frontier(matrix.n_cols, 0.005, seed=3)
        probe = outer_product(
            csc, f, sr, GEOM, HWMode.PC, profile_only=True, with_trace=True
        )
        assert probe.executed

    def test_profile_only_result_guards_functional_accessors(self, matrix):
        sr = spmv_semiring()
        f = random_frontier(matrix.n_cols, 0.3, seed=4).to_dense().data
        probe = inner_product(matrix, f, sr, GEOM, HWMode.SC, profile_only=True)
        assert probe.values is None and probe.touched is None
        with pytest.raises(ReproError):
            probe.dense_output()
        with pytest.raises(ReproError):
            _ = probe.touched_count


class TestOracleCounting:
    def test_oracle_spmv_executes_exactly_one_kernel(self, matrix):
        rt = CoSparseRuntime(matrix, GEOM, policy="oracle")
        sr = spmv_semiring()
        for i, d in enumerate((0.002, 0.05, 0.5)):
            f = random_frontier(matrix.n_cols, d, seed=10 + i)
            perf_counters.reset()
            result = rt.spmv(f, sr)
            assert result.executed
            assert perf_counters.kernel_executions == 1
            assert perf_counters.kernel_profile_only == 4  # all candidates
            assert len(rt.last_record.alternatives) == 4

    def test_tree_policy_executes_exactly_one_kernel(self, matrix):
        rt = CoSparseRuntime(matrix, GEOM, policy="tree")
        f = random_frontier(matrix.n_cols, 0.01, seed=20)
        rt.spmv(f, spmv_semiring())
        assert perf_counters.kernel_executions == 1
        assert perf_counters.kernel_profile_only == 0

    def test_oracle_matches_tree_functionally(self, matrix):
        sr = spmv_semiring()
        f = random_frontier(matrix.n_cols, 0.01, seed=21)
        a = CoSparseRuntime(matrix, GEOM, policy="oracle").spmv(f, sr)
        b = CoSparseRuntime(matrix, GEOM, policy="tree").spmv(f, sr)
        assert np.allclose(a.values, b.values)

    def test_bfs_execution_count_equals_iterations(self):
        graph = Graph(uniform_random(400, nnz=3000, seed=5, remove_self_loops=True))
        rt = CoSparseRuntime(graph.operand, GEOM, policy="oracle")
        run = bfs(graph, 0, runtime=rt)
        assert perf_counters.kernel_executions == len(run.log)

    def test_oracle_with_trace_reuses_executed_probe(self):
        """Trace-fidelity oracle: the OP probes must execute (the exact
        merge generates the traces), and a winning executed probe is
        reused rather than re-run — never more than 3 functional runs,
        and only 1 when an OP candidate wins."""
        coo = uniform_random(300, nnz=2500, seed=6)
        rt = CoSparseRuntime(
            coo, "2x2", policy="oracle", fidelity="trace"
        )
        f = random_frontier(coo.n_cols, 0.01, seed=7)
        result = rt.spmv(f, spmv_semiring())
        assert result.executed
        ran_ip = rt.last_record.algorithm == "ip"
        assert perf_counters.kernel_executions == (3 if ran_ip else 2)


class TestCommittedProbeReport:
    """The oracle commits a copy of its winning probe's report."""

    def _check(self, rt, record):
        probe = record.alternatives[record.config_label]
        committed = record.report
        assert committed is not probe
        assert committed.counters is not probe.counters
        assert committed.tile_reports is not probe.tile_reports
        assert not {id(t) for t in committed.tile_reports} & {
            id(t) for t in probe.tile_reports
        }
        assert committed.detail is not probe.detail
        # the probe stays as priced: no switch charge, its own energy
        assert probe.reconfig_cycles == 0.0
        assert probe.energy_j == rt.system.energy_model.energy_j(probe)
        assert committed.cycles == probe.cycles + committed.reconfig_cycles
        assert committed.counters == probe.counters
        assert committed.tile_reports == probe.tile_reports
        assert committed.energy_j == rt.system.energy_model.energy_j(committed)

    def test_spmv_record_shares_nothing_with_its_probe(self, matrix):
        rt = CoSparseRuntime(matrix, GEOM, policy="oracle")
        sr = spmv_semiring()
        for i, d in enumerate((0.002, 0.3, 0.004)):
            rt.spmv(random_frontier(matrix.n_cols, d, seed=50 + i), sr)
        assert any(r.report.reconfig_cycles > 0 for r in rt.log.records)
        for record in rt.log.records:
            self._check(rt, record)

    def test_batch_record_shares_nothing_with_its_probe(self, matrix):
        rt = CoSparseRuntime(matrix, GEOM, policy="oracle")
        cols = [
            random_frontier(matrix.n_cols, d, seed=60 + i)
            for i, d in enumerate((0.002, 0.5, 0.01))
        ]
        rt.spmv_batch(MultiVector(cols), spmv_semiring())
        assert len(rt.log.records) == 3
        for record in rt.log.records:
            self._check(rt, record)


class TestModelPricings:
    """``model_pricings`` per invocation: the oracle prices its four
    candidates and commits the winner's report without pricing it again."""

    @pytest.mark.parametrize("policy, pricings", [
        ("oracle", 4), ("tree", 1), ("static", 1),
    ])
    def test_per_spmv(self, matrix, policy, pricings):
        rt = CoSparseRuntime(matrix, GEOM, policy=policy)
        sr = spmv_semiring()
        for i, d in enumerate((0.002, 0.05, 0.5)):
            perf_counters.reset()
            rt.spmv(random_frontier(matrix.n_cols, d, seed=70 + i), sr)
            assert perf_counters.model_pricings == pricings

    def test_adaptive_in_band(self, matrix):
        rt = CoSparseRuntime(matrix, GEOM, policy="adaptive")
        cvd = rt.tree.crossover_density(rt.operand.info)
        rt.spmv(random_frontier(matrix.n_cols, cvd, seed=80), spmv_semiring())
        assert len(rt.last_record.alternatives) == 2
        assert perf_counters.model_pricings == 2

    def test_oracle_batch(self, matrix):
        rt = CoSparseRuntime(matrix, GEOM, policy="oracle")
        cols = [
            random_frontier(matrix.n_cols, d, seed=90 + i)
            for i, d in enumerate((0.002, 0.5, 0.01))
        ]
        rt.spmv_batch(MultiVector(cols), spmv_semiring())
        assert perf_counters.model_pricings == 4 * len(cols)


class TestConversionMemoization:
    def test_oracle_converts_each_representation_once(self, matrix):
        """Four candidates, two representations, one conversion each."""
        rt = CoSparseRuntime(matrix, GEOM, policy="oracle")
        sr = spmv_semiring()
        f = random_frontier(matrix.n_cols, 0.05, seed=30)  # sparse input
        calls = {"dense": 0, "sparse": 0}
        orig_dense, orig_sparse = rt._to_dense, rt._to_sparse

        def count_dense(frontier, semiring):
            calls["dense"] += 1
            return orig_dense(frontier, semiring)

        def count_sparse(frontier, semiring):
            calls["sparse"] += 1
            return orig_sparse(frontier, semiring)

        rt._to_dense, rt._to_sparse = count_dense, count_sparse
        rt.spmv(f, sr)
        assert calls == {"dense": 1, "sparse": 1}

    def test_conversion_cost_logged_unchanged(self, matrix):
        """Memoization must not change the logged conversion cost."""
        sr = spmv_semiring()
        f = random_frontier(matrix.n_cols, 0.05, seed=31)
        oracle = CoSparseRuntime(matrix, GEOM, policy="oracle")
        static = CoSparseRuntime(matrix, GEOM, policy="static")
        oracle.spmv(f, sr)
        static.spmv(f, sr)
        if oracle.last_record.algorithm == "ip":
            # static config is also IP/SC: identical conversion work
            assert (
                oracle.last_record.conversion.words
                == static.last_record.conversion.words
            )
        assert oracle.last_record.conversion_cycles >= 0.0
