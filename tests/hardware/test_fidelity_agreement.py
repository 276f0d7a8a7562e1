"""Cross-fidelity agreement: trace replay and the analytic model must
rank configurations the same way, or the decision layer would behave
differently at different scales."""

import numpy as np
import pytest

from repro.formats import CSCMatrix, SparseVector
from repro.hardware import DEFAULT_PARAMS, Geometry, HWMode
from repro.hardware.analytic import AnalyticModel
from repro.hardware.trace import TraceEngine
from repro.spmv import inner_product, outer_product, spmv_semiring
from repro.workloads import uniform_random


@pytest.fixture(scope="module")
def setting():
    coo = uniform_random(3000, nnz=40_000, seed=31)
    csc = CSCMatrix.from_coo(coo)
    return coo, csc


ENGINES = {"analytic": AnalyticModel, "trace": TraceEngine}


def price(profile, geom, fidelity):
    """Cycles of a traced profile under the named engine (the system
    facade would always pick trace replay for it)."""
    return ENGINES[fidelity](geom, DEFAULT_PARAMS).evaluate(profile).cycles


class TestSoftwareChoiceAgreement:
    @pytest.mark.parametrize("density", [0.002, 0.3])
    def test_ip_vs_op_ranking(self, setting, density):
        coo, csc = setting
        geom = Geometry(2, 4)
        rng = np.random.default_rng(7)
        idx = rng.choice(coo.n_cols, max(1, int(density * coo.n_cols)), replace=False)
        sv = SparseVector(coo.n_cols, idx, rng.uniform(0.5, 1.5, len(idx)))
        sr = spmv_semiring()
        ip = inner_product(
            coo, sv.to_dense(), sr, geom, HWMode.SC, with_trace=True
        )
        op = outer_product(csc, sv, sr, geom, HWMode.PC, with_trace=True)
        verdicts = {}
        for fidelity in ("analytic", "trace"):
            verdicts[fidelity] = price(ip.profile, geom, fidelity) > price(
                op.profile, geom, fidelity
            )
        assert verdicts["analytic"] == verdicts["trace"]

    def test_cycles_within_factor_three_for_op(self, setting):
        coo, csc = setting
        geom = Geometry(2, 4)
        rng = np.random.default_rng(8)
        idx = rng.choice(coo.n_cols, 60, replace=False)
        sv = SparseVector(coo.n_cols, idx, rng.uniform(0.5, 1.5, 60))
        op = outer_product(
            csc, sv, spmv_semiring(), geom, HWMode.PS, with_trace=True
        )
        a = price(op.profile, geom, "analytic")
        t = price(op.profile, geom, "trace")
        assert 1 / 3 < a / t < 3
