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

from dataclasses import fields
from operator import attrgetter
from typing import Dict, List

import numpy as np

from .geometry import Geometry
from .hwconfig import HWMode, Sharing
from .params import HardwareParams
from .profile import KernelProfile, Pattern
from .stats import MemCounters, RunReport, TileReport

__all__ = [
    "hide_fraction",
    "compose_latency",
    "shared_conflict_cycles",
    "spm_latency",
    "l1_base_latency",
    "bandwidth_floor_cycles",
    "pe_grid",
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


def compose_latency(base_l1, h1, h2, hide, params: HardwareParams):
    """Mean cycles per access given L1/L2 hit rates and the visible
    miss fraction ``hide`` (:func:`hide_fraction` of the pattern).

    Elementwise when the rates and fractions are arrays.
    """
    l2_extra = max(params.l2_hit_latency - base_l1, 0.0)
    dram_extra = max(params.dram_latency - params.l2_hit_latency, 0.0)
    miss1 = 1.0 - h1
    return (
        base_l1
        + miss1 * hide * l2_extra
        + miss1 * (1.0 - h2) * hide * dram_extra
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


#: What :meth:`Tally.settle` folds: the counters, then the HBM pools.
_LANES = tuple(f.name for f in fields(MemCounters)) + ("dram_seq", "dram_rand")
_LANE = {name: i for i, name in enumerate(_LANES)}
#: Lanes an SPM fill charges (its words cross HBM into the scratchpad).
_FILLED = [_LANE["dram_words"], _LANE["spm_accesses"], _LANE["dram_seq"]]


def pe_grid(profile: KernelProfile, attr: str, width: int) -> np.ndarray:
    """A PE attribute as a ``(tile, PE)`` float array, zero-padded to
    ``width`` PEs per tile."""
    get = attrgetter(attr)
    tiles = profile.tiles
    pes = [pe for tile in tiles for pe in tile.pes]
    values = np.fromiter(map(get, pes), dtype=float, count=len(pes))
    if len(pes) == len(tiles) * width:
        return values.reshape(len(tiles), width)
    out = np.zeros((len(tiles), width))
    start = 0
    for t, tile in enumerate(tiles):
        out[t, : len(tile.pes)] = values[start : start + len(tile.pes)]
        start += len(tile.pes)
    return out


class Tally:
    """Counters, HBM traffic pools and tile timings of one pricing.

    An engine derives each PE's compute and access cycles and the
    counter charges of its accesses from its hit rates, hands them all
    to :meth:`settle`, and finishes with :meth:`report`.
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

    def settle(
        self,
        profile: KernelProfile,
        cycles: np.ndarray,
        charges: Dict[str, np.ndarray],
    ) -> None:
        """Charge the SPM fills and every tile's LCP serial tail, fold
        all charges into the counters and pools, and record the tiles.

        ``cycles`` holds each PE's compute and access cycles as a
        ``(tile, PE)`` array (padded PEs are dropped).  ``charges`` maps
        a :class:`MemCounters` field, ``"dram_seq"`` or ``"dram_rand"``
        to a ``(tile, PE, k)`` array: the PE's addends in the order the
        engine charged them.  Every counter is a left fold in program
        order — tile by tile, each PE's addends then its SPM fill, then
        the tile's LCP traffic and shared fill — so the floats do not
        depend on how an engine batches its work.
        """
        params, vf = self.params, self.visible_fill
        tiles = profile.tiles
        n_tiles, n_pes = cycles.shape
        # Each PE waits out its own and its tile's shared SPM fill.
        pe_fill = pe_grid(profile, "spm_fill_words", n_pes)
        tile_fill = np.array([t.spm_fill_words for t in tiles], dtype=float)
        cycles = cycles + pe_fill * vf + tile_fill[:, None] * vf

        # Lane by lane, tile by tile: each PE's addends and its SPM fill
        # (the last column), then one more row for the tile's LCP traffic
        # and shared fill.
        width = max(a.shape[2] for a in charges.values()) + 1
        lanes = np.zeros((len(_LANES), n_tiles, n_pes + 1, width))
        for name, addends in charges.items():
            lanes[_LANE[name], :, :n_pes, : addends.shape[2]] = addends
        lanes[_FILLED, :, :n_pes, width - 1] = pe_fill
        lanes[_FILLED, :, n_pes, 1] = tile_fill
        # The LCP serial tail — OP's merge and its dependent
        # read-modify-write of output rows — and its RMW traffic: read
        # the old row value, write the new one.
        lcp_cycles = []
        lcp_ops, rmw_words, rmw_rows, lcp_words = [], [], [], []
        for tile in tiles:
            out_rows = tile.lcp_output_words / 2.0  # (index, value) pairs
            lcp_cycles.append(
                tile.lcp_serial_elements * params.lcp_cycles_per_element
                + out_rows * params.lcp_rmw_cycles_per_row
                + tile.lcp_compute_ops
            )
            lcp_ops.append(tile.lcp_serial_elements * 4 + tile.lcp_compute_ops)
            rmw_words.append(out_rows + tile.lcp_output_words)
            rmw_rows.append(out_rows)
            lcp_words.append(tile.lcp_output_words)
        lanes[_LANE["lcp_ops"], :, n_pes, 0] = lcp_ops
        lanes[_LANE["dram_words"], :, n_pes, 0] = rmw_words
        lanes[_LANE["dram_rand"], :, n_pes, 0] = rmw_rows
        lanes[_LANE["dram_seq"], :, n_pes, 0] = lcp_words

        start = [getattr(self.counters, n) for n in _LANES[:-2]]
        start += [self.dram_seq, self.dram_rand]
        flat = np.concatenate(
            [np.array(start)[:, None], lanes.reshape(len(_LANES), -1)], axis=1
        )
        totals = np.add.accumulate(flat, axis=1)[:, -1].tolist()
        for name, total in zip(_LANES[:-2], totals):
            setattr(self.counters, name, total)
        self.dram_seq, self.dram_rand = totals[-2:]

        for tile, row, lcp in zip(tiles, cycles.tolist(), lcp_cycles):
            self.tile_reports.append(
                TileReport(pe_cycles=row[: len(tile.pes)], lcp_cycles=lcp)
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
