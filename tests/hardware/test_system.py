"""TransmuterSystem facade tests (configuration + dispatch)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hardware import (
    AccessStream,
    DEFAULT_PARAMS,
    Geometry,
    HWMode,
    KernelProfile,
    PEProfile,
    PETrace,
    Pattern,
    Region,
    TileProfile,
    TransmuterSystem,
)


def tiny_profile(mode, traced=False):
    trace = None
    if traced:
        addrs = np.arange(100, dtype=np.int64)
        trace = PETrace(
            regions=np.full(100, int(Region.MATRIX), dtype=np.int8),
            addrs=addrs,
            writes=np.zeros(100, dtype=bool),
        )
    return KernelProfile(
        algorithm="ip" if mode in (HWMode.SC, HWMode.SCS) else "op",
        mode=mode,
        tiles=[
            TileProfile(
                pes=[
                    PEProfile(
                        compute_ops=100.0,
                        streams=[
                            AccessStream(
                                Region.MATRIX, 100, Pattern.SEQUENTIAL, 100
                            )
                        ],
                        trace=trace,
                    )
                ]
            )
        ],
    )


class TestConfiguration:
    def test_accepts_geometry_string(self):
        s = TransmuterSystem("4x8")
        assert s.geometry.tiles == 4

    def test_rejects_non_mode(self):
        s = TransmuterSystem("2x2")
        with pytest.raises(ConfigurationError):
            s.configure("SC")

    def test_first_configure_counts(self):
        s = TransmuterSystem("2x2")
        assert s.configure(HWMode.SC) == DEFAULT_PARAMS.reconfig_cycles
        assert s.reconfigurations == 1

    def test_same_mode_is_free(self):
        s = TransmuterSystem("2x2")
        s.configure(HWMode.SC)
        assert s.configure(HWMode.SC) == 0.0
        assert s.reconfigurations == 1

    def test_switch_costs_at_most_10_cycles(self):
        s = TransmuterSystem("2x2")
        s.configure(HWMode.SC)
        cost = s.configure(HWMode.PC)
        assert 0 < cost <= 10.0


class TestRun:
    def test_run_reconfigures(self):
        s = TransmuterSystem("2x2")
        r = s.run(tiny_profile(HWMode.SC))
        assert r.reconfig_cycles == DEFAULT_PARAMS.reconfig_cycles
        r2 = s.run(tiny_profile(HWMode.SC))
        assert r2.reconfig_cycles == 0.0

    def test_run_attaches_energy(self):
        s = TransmuterSystem("2x2")
        r = s.run(tiny_profile(HWMode.PC))
        assert r.energy_j is not None and r.energy_j > 0

    def test_evaluate_without_switching_leaves_mode(self):
        s = TransmuterSystem("2x2")
        s.configure(HWMode.SC)
        s.evaluate_without_switching(tiny_profile(HWMode.PS))
        assert s.current_mode is HWMode.SC

    @pytest.mark.parametrize("traced", [False, True])
    def test_profile_picks_the_engine(self, traced):
        """Trace replay exactly when the profile carries traces."""
        s = TransmuterSystem("2x2")
        expected = "trace" if traced else "analytic"
        profile = tiny_profile(HWMode.SC, traced=traced)
        assert s.run(profile).fidelity == expected
        assert s.evaluate_without_switching(profile).fidelity == expected

    def test_report_summary_renders(self):
        s = TransmuterSystem("2x2")
        assert "cycles" in s.run(tiny_profile(HWMode.SC)).summary()
