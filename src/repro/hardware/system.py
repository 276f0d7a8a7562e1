"""The modelled Transmuter system: configuration + pricing facade.

:class:`TransmuterSystem` is what the CoSPARSE runtime talks to.  It holds
the geometry and the *current* hardware mode, charges the documented
<=10-cycle overhead whenever a kernel requires a different mode (runtime
hardware reconfiguration, triggered by one of the LCPs — Section III-D),
and prices profiles.  The profile picks the fidelity backend: exact trace
replay when every PE carries a trace, the closed-form model otherwise.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Union

from ..errors import ConfigurationError
from ..perf import counters as _perf
from .analytic import AnalyticModel
from .energy import EnergyModel
from .geometry import Geometry
from .hwconfig import HWMode
from .params import DEFAULT_PARAMS, HardwareParams
from .profile import KernelProfile
from .stats import RunReport, TileReport
from .trace import TraceEngine

__all__ = ["TransmuterSystem"]


def _copy(report: RunReport) -> RunReport:
    """A report sharing no mutable part with ``report``, energy unset."""
    return replace(
        report,
        counters=replace(report.counters),
        tile_reports=[
            TileReport(list(t.pe_cycles), t.lcp_cycles)
            for t in report.tile_reports
        ],
        energy_j=None,
        detail=dict(report.detail),
    )


class TransmuterSystem:
    """A ``tiles x pes_per_tile`` reconfigurable array.

    Parameters
    ----------
    geometry:
        A :class:`~repro.hardware.geometry.Geometry` or the paper's
        ``"AxB"`` string (e.g. ``"8x16"``).
    params:
        Microarchitectural constants; defaults to Table II.
    """

    def __init__(
        self,
        geometry: Union[Geometry, str],
        params: HardwareParams = DEFAULT_PARAMS,
    ):
        if isinstance(geometry, str):
            geometry = Geometry.parse(geometry)
        self.geometry = geometry
        self.params = params
        self.energy_model = EnergyModel(geometry, params)
        self._analytic = AnalyticModel(geometry, params)
        self._trace = TraceEngine(geometry, params)
        self.current_mode: Optional[HWMode] = None
        self.reconfigurations = 0
        self.reconfiguration_cycles = 0.0

    # ------------------------------------------------------------------
    def configure(self, mode: HWMode) -> float:
        """Switch the memory hierarchy to ``mode``; returns cycles spent.

        Switching to the mode already active is free; any actual switch
        costs ``params.reconfig_cycles`` (<= 10 cycles, Section II-C).
        """
        if not isinstance(mode, HWMode):
            raise ConfigurationError(f"expected an HWMode, got {mode!r}")
        if mode is self.current_mode:
            return 0.0
        self.current_mode = mode
        self.reconfigurations += 1
        self.reconfiguration_cycles += self.params.reconfig_cycles
        return self.params.reconfig_cycles

    # ------------------------------------------------------------------
    def _price(self, profile: KernelProfile) -> RunReport:
        """Trace replay when the profile carries traces, else analytic."""
        _perf.model_pricings += 1
        if profile.has_traces():
            return self._trace.evaluate(profile)
        return self._analytic.evaluate(profile)

    def run(
        self,
        profile: KernelProfile,
        with_energy: bool = True,
        priced: Optional[RunReport] = None,
    ) -> RunReport:
        """Price one kernel invocation, reconfiguring first if needed.

        ``priced`` is a report :meth:`evaluate_without_switching` already
        returned for this profile (the oracle's winning probe): it is
        copied instead of priced again, and left as it was.
        """
        reconfig = self.configure(profile.mode)
        report = self._price(profile) if priced is None else _copy(priced)
        report.cycles += reconfig
        report.reconfig_cycles = reconfig
        if with_energy:
            self.energy_model.attach(report)
        return report

    def evaluate_without_switching(self, profile: KernelProfile) -> RunReport:
        """Price a profile hypothetically, leaving the system mode alone.

        The decision layer uses this to compare candidate configurations;
        only the chosen one is actually run.
        """
        return self.energy_model.attach(self._price(profile))

    # ------------------------------------------------------------------
    @property
    def static_power_w(self) -> float:
        """Array static power (W)."""
        return self.energy_model.static_power_w

    @property
    def area_mm2(self) -> float:
        """Coarse die area (mm^2)."""
        return self.energy_model.area_mm2

    def __repr__(self):  # pragma: no cover - debugging aid
        mode = self.current_mode.label if self.current_mode else "unconfigured"
        return f"TransmuterSystem({self.geometry.name}, mode={mode})"
