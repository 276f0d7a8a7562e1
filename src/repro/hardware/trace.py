"""Trace-replay fidelity mode.

For small inputs the kernels attach an exact per-PE word-address trace to
their profile (see :class:`repro.hardware.profile.PETrace`).  This engine
replays those traces through real set-associative LRU caches arranged per
the active :class:`~repro.hardware.hwconfig.HWMode` — shared tile-level L1
(SC/SCS), private per-PE banks (PC), scratchpad bypass (SCS vector / PS
heap) — measures per-stream hit rates, and prices them through the
stages it shares with the analytic mode (:mod:`repro.hardware.latency`).

Address convention
------------------
Kernels emit *region-local global word offsets*: an access to matrix entry
``k`` uses offset ``k`` whichever PE issues it, and an access to vector
element ``j`` uses offset ``j``.  The engine relocates each
:class:`~repro.hardware.profile.Region` into a disjoint address range, so
regions never alias while shared structures (the vector) naturally overlap
between PEs.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..errors import SimulationError
from .cache import BankedCache, interleave_round_robin
from .geometry import Geometry
from .hwconfig import HWMode, Sharing
from .latency import (
    Tally,
    compose_latency,
    hide_fraction,
    l1_base_latency,
    spm_latency,
)
from .params import HardwareParams
from .profile import KernelProfile, Pattern, Region
from .stats import RunReport

__all__ = ["TraceEngine"]

#: Word-address stride separating relocated regions (2^40 words).
_REGION_STRIDE = 1 << 40


def _relocate(regions: np.ndarray, addrs: np.ndarray) -> np.ndarray:
    """Map region-local offsets into the disjoint global address space."""
    return addrs + regions.astype(np.int64) * _REGION_STRIDE


def _merge_streams(streams) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Round-robin-interleave per-PE ``(addrs, writes)`` streams.

    Returns the merged ``(addrs, writes)`` plus the ``(src, pos)``
    bookkeeping needed to scatter per-access results back per stream.
    """
    streams = list(streams)
    src, pos = interleave_round_robin(len(a) for a, _w in streams)
    addrs = np.empty(len(src), dtype=np.int64)
    writes = np.empty(len(src), dtype=bool)
    for i, (a, w) in enumerate(streams):
        sel = src == i
        addrs[sel] = a[pos[sel]]
        writes[sel] = w[pos[sel]]
    return addrs, writes, src, pos


#: The counters and HBM pools the replayed accesses charge.
_CHARGED = (
    "pe_ops",
    "spm_accesses",
    "l1_accesses",
    "l1_hits",
    "l2_accesses",
    "l2_hits",
    "dram_words",
    "dram_seq",
    "dram_rand",
    "xbar_hops",
)


def _grid(per_pe: Dict[Tuple[int, int], List[float]], shape) -> np.ndarray:
    """Per-PE addend lists as a zero-padded ``(tile, PE, k)`` array."""
    width = max(max((len(a) for a in per_pe.values()), default=0), 1)
    out = np.zeros((*shape, width))
    for (t, p), addends in per_pe.items():
        out[t, p, : len(addends)] = addends
    return out


def _split_hits(
    hits: np.ndarray, src: np.ndarray, pos: np.ndarray, n_streams: int
) -> List[np.ndarray]:
    """Undo :func:`_merge_streams`: per-stream hit masks in program order."""
    out = []
    for i in range(n_streams):
        sel = src == i
        back = np.empty(int(sel.sum()), dtype=bool)
        back[pos[sel]] = hits[sel]
        out.append(back)
    return out


class TraceEngine:
    """Replays kernel traces through modelled caches."""

    def __init__(self, geometry: Geometry, params: HardwareParams):
        self.geometry = geometry
        self.params = params

    # ------------------------------------------------------------------
    def evaluate(self, profile: KernelProfile) -> RunReport:
        """Price one kernel invocation from its exact traces."""
        if not profile.has_traces():
            raise SimulationError(
                "trace mode requires every PE profile to carry a PETrace; "
                "use the analytic mode for summarised profiles"
            )
        geom, params, mode = self.geometry, self.params, profile.mode
        tally = Tally(geom, params)
        counters = tally.counters
        line = params.cache_line_words
        l1_base = l1_base_latency(mode, geom, params)
        spm_lat = spm_latency(mode, geom, params)

        # Per tile: (tile, cache-path parts, L1 hit masks, SPM counts,
        # patterns).
        staged = []

        for tile in profile.tiles:
            # Which regions live in SPM for this tile (uniform across PEs).
            spm_regions = {
                s.region for pe in tile.pes for s in pe.streams if s.in_spm
            }
            patterns: Dict[Region, str] = {}
            for pe in tile.pes:
                for s in pe.streams:
                    patterns.setdefault(s.region, s.pattern)

            # Split each PE's trace into SPM and cache-path accesses.
            cache_parts = []  # (pe_idx, regions, addrs, writes)
            spm_counts = np.zeros(len(tile.pes))
            for pe_idx, pe in enumerate(tile.pes):
                tr = pe.trace
                in_spm = (
                    np.isin(tr.regions, [int(r) for r in spm_regions])
                    if spm_regions
                    else np.zeros(len(tr.regions), dtype=bool)
                )
                spm_counts[pe_idx] = int(in_spm.sum())
                cache_parts.append(
                    (
                        tr.regions[~in_spm],
                        _relocate(tr.regions[~in_spm], tr.addrs[~in_spm]),
                        tr.writes[~in_spm],
                    )
                )

            # --- L1 simulation ------------------------------------------
            n_pes = len(tile.pes)
            hit1 = [None] * n_pes
            if mode.l1_sharing is Sharing.SHARED:
                banks = geom.l1_banks_per_tile
                if mode is HWMode.SCS:
                    banks = max(banks // 2, 1)
                l1 = BankedCache(banks, params)
                addrs, writes, src, pos = _merge_streams(
                    (p[1], p[2]) for p in cache_parts
                )
                hits = l1.run_trace(addrs, writes)
                hit1 = _split_hits(hits, src, pos, n_pes)
            else:
                for i, (regs, addrs, writes) in enumerate(cache_parts):
                    if mode is HWMode.PS:
                        hit1[i] = np.zeros(len(addrs), dtype=bool)  # no L1 cache
                    else:
                        bank = BankedCache(1, params)
                        hit1[i] = bank.run_trace(addrs, writes)

            staged.append((tile, cache_parts, hit1, spm_counts, patterns))

        # --- L2 simulation (needs all tiles when shared) ------------------
        if mode.l2_sharing is Sharing.SHARED:
            # Interleave every tile's miss streams through one shared L2.
            shared_l2 = BankedCache(geom.tiles * geom.l2_banks_per_tile, params)
            flat = []  # (tile_idx, pe_idx, regs, addrs, writes)
            for t_idx, (tile, parts, hit1, _spm, _pat) in enumerate(staged):
                for p_idx, (regs, addrs, writes) in enumerate(parts):
                    miss = ~hit1[p_idx]
                    flat.append((t_idx, p_idx, regs[miss], addrs[miss], writes[miss]))
            addrs, writes, src, pos = _merge_streams((f[3], f[4]) for f in flat)
            hits = shared_l2.run_trace(addrs, writes)
            masks = _split_hits(hits, src, pos, len(flat))
            hit2_of = {(f[0], f[1]): m for f, m in zip(flat, masks)}
            l2_writebacks = shared_l2.writebacks
        else:
            hit2_of = {}
            l2_writebacks = 0
            for t_idx, (tile, parts, hit1, _spm, _pat) in enumerate(staged):
                l2 = BankedCache(geom.l2_banks_per_tile, params)
                for p_idx, (regs, addrs, writes) in enumerate(parts):
                    miss = ~hit1[p_idx]
                    hit2_of[(t_idx, p_idx)] = l2.run_trace(addrs[miss], writes[miss])
                l2_writebacks += l2.writebacks

        # --- latency composition ------------------------------------------
        n_pes = max(max(len(tile.pes) for tile in profile.tiles), 1)
        cycles = np.zeros((len(staged), n_pes))
        charges = {name: {} for name in _CHARGED}
        for t_idx, (tile, parts, hit1, spm_counts, patterns) in enumerate(staged):
            for p_idx, pe in enumerate(tile.pes):
                regs, _addrs, _writes = parts[p_idx]
                h1_mask = hit1[p_idx]
                h2_mask = hit2_of[(t_idx, p_idx)]
                pe_cycles = pe.compute_ops + spm_counts[p_idx] * spm_lat
                rows = {name: [] for name in _CHARGED}
                rows["pe_ops"].append(pe.compute_ops)
                rows["spm_accesses"].append(spm_counts[p_idx])

                miss_regs = regs[~h1_mask]
                for region in np.unique(regs):
                    sel = regs == region
                    count = int(sel.sum())
                    h1 = float(h1_mask[sel].sum()) / count
                    m_sel = miss_regs == region
                    m1 = int(m_sel.sum())
                    h2 = float(h2_mask[m_sel].sum()) / m1 if m1 else 1.0
                    pattern = patterns.get(Region(int(region)), Pattern.RANDOM)
                    hide = hide_fraction(pattern, params)
                    lat = compose_latency(l1_base, h1, h2, hide, params)
                    pe_cycles += count * lat
                    rows["l1_accesses"].append(count)
                    rows["l1_hits"].append(h1 * count)
                    rows["l2_accesses"].append(m1)
                    rows["l2_hits"].append(h2 * m1)
                    m2 = m1 - int(h2_mask[m_sel].sum())
                    fill = m2 * line
                    rows["dram_words"].append(fill)
                    if pattern == Pattern.SEQUENTIAL:
                        rows["dram_seq"].append(fill)
                    else:
                        rows["dram_rand"].append(fill)
                    if mode.l1_sharing is Sharing.SHARED:
                        rows["xbar_hops"].append(count)
                    rows["xbar_hops"].append(m1)
                cycles[t_idx, p_idx] = pe_cycles
                for name, addends in rows.items():
                    charges[name][(t_idx, p_idx)] = addends
        tally.settle(
            profile,
            cycles,
            {
                name: _grid(per_pe, cycles.shape)
                for name, per_pe in charges.items()
            },
        )

        wb_words = l2_writebacks * line
        counters.dram_words += wb_words
        tally.dram_seq += wb_words
        return tally.report(profile, "trace")
