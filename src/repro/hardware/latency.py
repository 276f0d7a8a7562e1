"""Pricing shared by the analytic and trace fidelity modes.

Both modes price an access the same way once the hit rates are known; only
*how the hit rates are obtained* differs (closed form vs. replayed
addresses).  Everything after the hit rates lives here — the L1/SPM
latency bases, latency composition, and the :class:`Tally` that charges
SPM fills, the LCP serial tail, the HBM bandwidth floor and assembles the
:class:`~repro.hardware.stats.RunReport` — so the two modes rank
configurations consistently.
"""

from __future__ import annotations

from typing import List

from .geometry import Geometry
from .hwconfig import HWMode, Sharing
from .params import HardwareParams
from .profile import KernelProfile, PEProfile, Pattern, TileProfile
from .stats import MemCounters, RunReport, TileReport

__all__ = [
    "hide_fraction",
    "compose_latency",
    "shared_conflict_cycles",
    "spm_latency",
    "l1_base_latency",
    "bandwidth_floor_cycles",
    "Tally",
]

#: Fraction of a RANDOM (independent-gather) miss the 8 MSHRs overlap.
_RANDOM_INDEPENDENT_HIDE = 0.30


def hide_fraction(pattern: str, params: HardwareParams) -> float:
    """Fraction of miss latency that remains *visible* to the core.

    Sequential streams are covered by the stride prefetcher; independent
    gathers overlap moderately via MSHRs; pointer-chasing (each address
    depends on the previous load) hides almost nothing.
    """
    if pattern == Pattern.SEQUENTIAL:
        return 1.0 - params.prefetch_hide_fraction
    if pattern == Pattern.RANDOM:
        return 1.0 - _RANDOM_INDEPENDENT_HIDE
    return 1.0 - params.random_hide_fraction  # DEPENDENT


def compose_latency(
    base_l1: float,
    h1: float,
    h2: float,
    pattern: str,
    params: HardwareParams,
) -> float:
    """Mean cycles per access given L1/L2 hit rates and the pattern."""
    hide = hide_fraction(pattern, params)
    l2_extra = max(params.l2_hit_latency - base_l1, 0.0)
    dram_extra = max(params.dram_latency - params.l2_hit_latency, 0.0)
    return (
        base_l1
        + (1.0 - h1) * hide * l2_extra
        + (1.0 - h1) * (1.0 - h2) * hide * dram_extra
    )


def shared_conflict_cycles(
    requesters: int, n_banks: int, params: HardwareParams
) -> float:
    """Expected arbitration + serialisation extra under a shared crossbar.

    Table II: shared mode costs 1 cycle of arbitration plus 0..(Nsrc-1)
    serialisation cycles depending on conflicts.  With ``requesters``
    cores spread uniformly over ``n_banks`` banks, an access expects
    ``(requesters-1)/(2*n_banks)`` conflicting peers ahead of it.
    """
    if n_banks <= 0:
        return params.xbar_arbitration
    return params.xbar_arbitration + 0.5 * (requesters - 1) / n_banks


def spm_latency(mode: HWMode, geometry: Geometry, params: HardwareParams) -> float:
    """Visible cycles of one scratchpad access under ``mode``.

    A pipelined in-order core hides the 1-2 cycle response behind the
    issue slot; visible are the issue cycle, the software SPM-management
    overhead and — for the shared SPM — crossbar serialisation (in SCS
    roughly P/2 requesters contend for the P/2 SPM banks).
    """
    if mode is HWMode.SCS:
        half = max(geometry.pes_per_tile // 2, 1)
        serial = shared_conflict_cycles(half, half, params) - params.xbar_arbitration
        return 1.0 + params.spm_management_overhead + max(serial, 0.0)
    return 1.0 + params.spm_management_overhead


def l1_base_latency(
    mode: HWMode, geometry: Geometry, params: HardwareParams
) -> float:
    """Visible cycles of an L1 cache-path access that hits."""
    if mode.l1_sharing is Sharing.SHARED:
        requesters = geometry.pes_per_tile
        banks = geometry.l1_banks_per_tile
        if mode is HWMode.SCS:  # traffic and banks both halve
            requesters = max(requesters // 2, 1)
            banks = max(banks // 2, 1)
        serial = shared_conflict_cycles(requesters, banks, params) - (
            params.xbar_arbitration
        )
        return 1.0 + max(serial, 0.0)
    return 1.0


def bandwidth_floor_cycles(
    seq_words: float, rand_words: float, params: HardwareParams
) -> float:
    """Cycles the HBM2 stack needs just to move this much data.

    Table II: one HBM2 stack of 16 pseudo-channels at 8000 MB/s each,
    i.e. ``dram_words_per_cycle`` words of streaming bandwidth.  Random
    short-burst traffic loses row-buffer locality and achieves only
    ``dram_random_efficiency`` of it.
    """
    return (
        seq_words / params.dram_words_per_cycle
        + rand_words
        / (params.dram_words_per_cycle * params.dram_random_efficiency)
    )


class Tally:
    """Counters, HBM traffic pools and tile timings of one pricing.

    An engine adds each PE's compute and access cycles and counters as it
    derives them from its hit rates, then hands every PE to
    :meth:`close_pe`, every tile to :meth:`close_tile`, and finishes with
    :meth:`report`.
    """

    def __init__(self, geometry: Geometry, params: HardwareParams):
        self.params = params
        self.counters = MemCounters()
        self.tile_reports: List[TileReport] = []
        self.dram_seq = 0.0
        self.dram_rand = 0.0
        fill_rate = max(
            params.spm_fill_cycles_per_word,
            geometry.tiles / params.dram_words_per_cycle,
        )
        #: Cycles per SPM-fill word the PEs wait out (un-overlapped part).
        self.visible_fill = fill_rate * (1.0 - params.spm_fill_overlap)

    def close_pe(self, cycles: float, pe: PEProfile, tile: TileProfile) -> float:
        """Add the PE's (and its tile's shared) SPM-fill charge to
        ``cycles`` and return the PE's total."""
        if pe.spm_fill_words:
            cycles += pe.spm_fill_words * self.visible_fill
            self.counters.dram_words += pe.spm_fill_words
            self.counters.spm_accesses += pe.spm_fill_words
            self.dram_seq += pe.spm_fill_words
        if tile.spm_fill_words:
            cycles += tile.spm_fill_words * self.visible_fill
        return cycles

    def close_tile(self, tile: TileProfile, pe_cycles: List[float]) -> None:
        """Charge the LCP serial tail — OP's merge and its dependent
        read-modify-write of output rows — and the tile's shared SPM
        fill traffic, then record the tile."""
        params, counters = self.params, self.counters
        out_rows = tile.lcp_output_words / 2.0  # (index, value) pairs
        lcp_cycles = (
            tile.lcp_serial_elements * params.lcp_cycles_per_element
            + out_rows * params.lcp_rmw_cycles_per_row
            + tile.lcp_compute_ops
        )
        counters.lcp_ops += tile.lcp_serial_elements * 4 + tile.lcp_compute_ops
        # RMW traffic: read the old row value, write the new one.
        counters.dram_words += out_rows + tile.lcp_output_words
        self.dram_rand += out_rows
        self.dram_seq += tile.lcp_output_words
        if tile.spm_fill_words:
            counters.dram_words += tile.spm_fill_words
            counters.spm_accesses += tile.spm_fill_words
            self.dram_seq += tile.spm_fill_words
        self.tile_reports.append(
            TileReport(pe_cycles=pe_cycles, lcp_cycles=lcp_cycles)
        )

    def report(self, profile: KernelProfile, fidelity: str) -> RunReport:
        """The system finishes with its slowest tile unless the HBM
        bandwidth floor is higher."""
        compute_cycles = max(t.cycles for t in self.tile_reports)
        bw_cycles = bandwidth_floor_cycles(
            self.dram_seq, self.dram_rand, self.params
        )
        total = max(compute_cycles, bw_cycles) + profile.fixed_overhead_cycles
        return RunReport(
            cycles=total,
            counters=self.counters,
            tile_reports=self.tile_reports,
            bandwidth_floor_cycles=bw_cycles,
            fidelity=fidelity,
            clock_hz=self.params.clock_hz,
            detail={
                "compute_cycles": compute_cycles,
                "mode": profile.mode.label,
                "algorithm": profile.algorithm,
            },
        )
