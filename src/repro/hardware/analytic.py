"""Closed-form performance estimation (the large-system fidelity mode).

The paper evaluates systems up to 8x16 in gem5 and switches to "a
trace-based simulation model" beyond that because detailed simulation
becomes prohibitive (Section IV-A).  This module is the analogous fast
mode: it prices a :class:`~repro.hardware.profile.KernelProfile` without
replaying addresses, using a reuse-distance cache model.

Hit-rate model (per cache level)
--------------------------------
LRU keeps a line resident while fewer than ``C`` distinct lines are
inserted between consecutive touches.  For a random-access stream ``s``
over footprint ``F_s`` issuing ``n_s`` of the level's ``A`` accesses, the
mean touch interval of one of its lines is ``I_s = A * F_s / n_s``
accesses, during which the level inserts ``K_s = insert_rate * I_s`` new
lines (``insert_rate`` = total misses / A, a fixed point solved by
iteration).  With approximately exponential interval spread the survival
probability is ``h = 1 - exp(-C / K_s)`` — smooth in exactly the way
cache behaviour is.  Sequential streams insert their lines once per pass
and are assumed prefetched.  Compulsory misses of a *shared* footprint
are split across the cores cooperating on it (a tile collectively takes
one cold miss per vector line, not one per PE — this is also how tiles
"fetch the vector elements for the other tiles into L2", Section III-B).

Everything after the hit rates is shared with the trace engine
(:mod:`repro.hardware.latency`): hits cost the issue slot plus
unhideable crossbar serialisation; miss latency is discounted by the
pattern's hide fraction (prefetchable stream / independent gather /
pointer chase).  A PE's cycles are ops plus access latencies; a tile
finishes with its slowest PE plus the LCP's serial tail (OP's merge and
its dependent read-modify-write of output rows — the term that keeps OP
from scaling with PEs per tile); the system finishes with the slowest
tile unless the HBM bandwidth floor is higher.

Evaluation order
----------------
A profile is read once into float64 arrays shaped ``(tile, PE, slot)``
(:class:`_Streams`) and every stage runs over all PEs at once.  The
reports stay bit-identical to a per-stream scalar walk because every
float is formed by the same operations in the same order:

* every sum is a left fold in program order (tile, PE, stream), taken
  with :func:`_fold` (``np.add.accumulate``, which is strictly
  sequential) — never ``np.sum``, which reduces pairwise, nor
  ``sum()``, which compensates from Python 3.12 on;
* padding (short PEs, absent regions) holds zeros, and adding ``+0.0``
  to a non-negative partial sum changes nothing;
* ``exp`` is :func:`math.exp` mapped over the arguments, since
  ``np.exp`` may differ from it in the last place;
* ``np.minimum``/``np.maximum`` stand in for ``min``/``max``: they
  differ from them only on NaN or on a tie between ``0.0`` and
  ``-0.0``, and the finite, non-negative stream fields of a profile
  give neither.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import Geometry
from .hwconfig import HWMode, Sharing
from .latency import (
    Tally,
    compose_latency,
    hide_fraction,
    l1_base_latency,
    pe_grid,
    spm_latency,
)
from .params import HardwareParams
from .profile import KernelProfile, Pattern, Region
from .stats import RunReport

__all__ = ["AnalyticModel"]

#: Fixed-point iterations for the insert-rate solve.
_FLUX_ITERATIONS = 4

#: Cycles a store occupies the pipeline (write-buffered).
_STORE_COST = 1.0

#: Region codes, the column axis of a level's pooled entries.
_REGIONS = np.arange(len(Region))

#: Pattern codes in :class:`_Streams`.
_PATTERN_CODE = {Pattern.SEQUENTIAL: 0.0, Pattern.RANDOM: 1.0, Pattern.DEPENDENT: 2.0}
_UNSET = float("nan")


def _fold(x: np.ndarray) -> np.ndarray:
    """Left fold of ``x`` along its last axis, element by element."""
    return np.add.accumulate(x, axis=-1)[..., -1]


def _miss_bearing(count, writes, distinct):
    """Load accesses of each stream that can actually miss.

    Stores retire through the write buffer; where ``distinct`` is set
    (not NaN), the remaining loads are register-run re-touches that hit
    by construction.
    """
    return np.fmin(np.maximum(count - writes, 0.0), distinct)


class _Streams:
    """A profile's access streams as arrays shaped ``(tile, PE, slot)``.

    Short tiles and PEs are padded with all-zero slots, which count
    nothing, miss nothing and cost nothing.  ``distinct`` is NaN where
    a stream sets no ``distinct_touches``.
    """

    def __init__(self, profile: KernelProfile):
        tiles = profile.tiles
        code = _PATTERN_CODE
        values: list = []
        add = values.extend
        lengths = []
        for tile in tiles:
            for pe in tile.pes:
                lengths.append(len(pe.streams))
                for s in pe.streams:
                    d = s.distinct_touches
                    add((
                        s.count, s.writes, s.footprint, s.passes,
                        s.fill_granule, s.in_spm, s.shared_footprint,
                        s.region, code[s.pattern], _UNSET if d is None else d,
                    ))
        self.tile_pes = np.array([len(tile.pes) for tile in tiles], dtype=float)
        n_tiles = len(tiles)
        n_pes = max(int(self.tile_pes.max()), 1)
        n_slots = max(max(lengths, default=0), 1)
        self.shape = (n_tiles, n_pes, n_slots)
        data = np.fromiter(values, dtype=float, count=len(values))
        data = data.reshape(-1, 10).T
        size = n_tiles * n_pes * n_slots
        if data.shape[1] == size:
            table = data  # every PE has every slot: no padding
        else:
            pe_at = [
                t * n_pes + p
                for t, tile in enumerate(tiles)
                for p in range(len(tile.pes))
            ]
            first = np.cumsum(lengths) - lengths
            at = np.repeat(np.array(pe_at, dtype=np.intp) * n_slots - first, lengths)
            table = np.zeros((10, size))
            table[-1] = np.nan
            table[:, at + np.arange(data.shape[1])] = data
        (
            self.count,
            self.writes,
            self.footprint,
            self.passes,
            self.fill_granule,
            in_spm,
            shared,
            region,
            pattern,
            self.distinct,
        ) = table.reshape(10, *self.shape)
        self.in_spm = in_spm != 0
        self.shared = shared != 0
        self.region = region.astype(np.intp)
        #: Pattern codes: 0 sequential, 1 random, 2 dependent.
        self.pattern = pattern.astype(np.intp)
        self.seq = pattern == 0


def _solve_level(count, footprint, seq, passes, capacity_words, params, sharers=None):
    """Fixed-point solve of the miss counts at one cache level.

    Each row of the ``(cache, entry)`` arrays is an independent cache
    of ``capacity_words``; its columns are the entries in order of
    first appearance, and zero-count columns are padding.  ``sharers``
    (default one) splits each entry's compulsory misses among the cores
    sharing its footprint.  Returns the miss counts, shaped like
    ``count``.
    """
    line = params.cache_line_words
    c_lines = max(capacity_words / line, 1e-9)
    fp_lines = footprint / line
    cold = np.minimum(count, fp_lines if sharers is None else fp_lines / sharers)
    streamed = np.minimum(count, cold * passes)
    live = count > 0
    # Sequential entries settle in the first iteration: later passes hit
    # when the footprint fits half the cache.
    reuse = (passes > 1) & (fp_lines <= 0.5 * c_lines)
    solved = np.where(
        seq & live, np.where(reuse, np.minimum(count, cold), streamed), 0.0
    )
    # Random entries, compressed to one axis.  A live random entry's row
    # has a positive total and a positive random total.
    at = np.flatnonzero(live & ~seq)
    if not at.size:
        return solved
    width = count.shape[1]
    row_end = at - at % width + (width - 1)  # the row's last column
    n = count.ravel()[at]
    r_cold = cold.ravel()[at]
    r_lines = np.maximum(fp_lines.ravel()[at], 1e-9)
    # The level's accesses and (capacity shares among random/dependent
    # entries) its random accesses, per row.
    total, random_total = np.add.accumulate(
        np.stack([count, np.where(seq, 0.0, count)]), axis=2
    ).reshape(2, -1)[:, row_end]
    interval = total * r_lines / n
    h_cap = np.minimum(c_lines * (n / random_total) / r_lines, 1.0)
    excess = n - r_cold  # cold <= n
    # Initial guess: streams miss once per line, random misses everything.
    miss = np.where(seq, streamed, count)
    flat = solved.reshape(-1)  # a view: writing it updates ``solved``
    last = None
    for _ in range(_FLUX_ITERATIONS):
        k = np.take(np.add.accumulate(miss, axis=1), row_end) / total * interval
        if np.minimum.reduce(k) > 0:
            h_flux = 1.0 - _exp(-c_lines / k)
        else:
            hot = k > 0
            h_flux = np.ones_like(k)
            h_flux[hot] = 1.0 - _exp(-c_lines / k[hot])
        r_miss = np.minimum(n, r_cold + excess * (1.0 - np.minimum(h_flux, h_cap)))
        flat[at] = r_miss
        miss = solved
        # An iteration is a function of the previous one's misses: once
        # they repeat bit for bit, so would every later iteration.
        now = r_miss.tobytes()
        if now == last:
            break
        last = now
    return miss


def _exp(x: np.ndarray) -> np.ndarray:
    """:func:`math.exp` of every element."""
    return np.array(list(map(math.exp, x.tolist())), dtype=float)


class _Pool:
    """One cache level's entries: each row's live streams pooled by
    region, the entries in order of first appearance.

    ``region`` and ``live`` are ``(row, column)`` arrays with the columns
    in program order.  ``member`` (row, entry, column) says which
    streams feed each entry and ``first`` is the column of its first
    stream; absent regions come last and pool nothing.
    """

    def __init__(self, region: np.ndarray, live: np.ndarray):
        width = region.shape[1]
        rows = np.arange(len(region))[:, None]
        member = live[:, None, :] & (region[:, None, :] == _REGIONS[:, None])
        present = member.any(axis=2)
        first = np.where(present, member.argmax(axis=2), width + _REGIONS)
        # entries in order of first appearance, minus columns no row uses
        order = np.argsort(first, axis=1)[:, : max(present.sum(axis=1).max(), 1)]
        self.order = order
        self.member = member[rows, order]
        self.first = np.minimum(first[rows, order], width - 1)
        self.rows, self.region = rows, region

    def fold(self, values: np.ndarray) -> np.ndarray:
        """Each entry's left fold of its streams' ``values``."""
        return _fold(np.where(self.member, values[:, None, :], 0.0))

    def at_first(self, values: np.ndarray) -> np.ndarray:
        """Each entry's value of ``values`` at its first stream."""
        return values[self.rows, self.first]

    def hit_rates(self, miss: np.ndarray, count: np.ndarray) -> np.ndarray:
        """Every stream's hit rate: its region's entry's, 1.0 where the
        region pooled nothing."""
        by_region = np.ones((len(self.rows), len(_REGIONS)))
        by_region[self.rows, self.order] = 1.0 - np.divide(
            miss, count, out=np.zeros_like(miss), where=count > 0
        )
        return by_region[self.rows, self.region]


def _l2_footprints(member, shared, footprint):
    """Pooled L2 footprints: a shared region counts once per L2 scope
    (max), private ones accumulate — folded in program order."""
    private = member & ~shared[:, None, :]
    public = member & shared[:, None, :]
    fp = footprint[:, None, :]
    added = private.any(axis=2)
    out = np.where(
        added, _fold(np.where(private, fp, 0.0)), np.where(public, fp, 0.0).max(axis=2)
    )
    # A region mixing both kinds is folded stream by stream.
    for g, r in zip(*np.nonzero(added & public.any(axis=2))):
        acc = 0.0
        for c in np.flatnonzero(member[g, r]):
            f = float(footprint[g, c])
            acc = (f if f > acc else acc) if shared[g, c] else acc + f
        out[g, r] = acc
    return out


class AnalyticModel:
    """Prices kernel profiles on a given geometry/parameter set."""

    def __init__(self, geometry: Geometry, params: HardwareParams):
        self.geometry = geometry
        self.params = params
        #: Visible miss fraction per pattern code.
        self._hide = np.array([hide_fraction(p, params) for p in Pattern.ALL])

    # ------------------------------------------------------------------
    def evaluate(self, profile: KernelProfile) -> RunReport:
        """Price one kernel invocation; returns cycles + counters."""
        geom, params, mode = self.geometry, self.params, profile.mode
        line = params.cache_line_words
        l1_base = l1_base_latency(mode, geom, params)
        spm_lat = spm_latency(mode, geom, params)
        l1_shared = mode.l1_sharing is Sharing.SHARED
        l2_shared = mode.l2_sharing is Sharing.SHARED
        st = _Streams(profile)
        n_tiles, n_pes, n_slots = st.shape
        count, writes = st.count, st.writes
        mb = _miss_bearing(count, writes, st.distinct)
        cached = ~st.in_spm & (mb > 0)

        # ---- Stage 1: L1 hit rates ------------------------------------
        l1_capacity = mode.l1_cache_words(geom, params)
        if l1_shared:
            # one solve per tile over its streams pooled by region
            by_tile = (n_tiles, -1)
            pool = _Pool(st.region.reshape(by_tile), cached.reshape(by_tile))
            shared = st.shared.reshape(by_tile)
            passes = st.passes.reshape(by_tile)
            n = pool.fold(mb.reshape(by_tile))
            # a shared footprint counts once, at the entry's first stream
            head = np.arange(shared.shape[1]) == pool.first[..., None]
            fp = _fold(
                np.where(
                    pool.member & (head | ~shared[:, None, :]),
                    st.footprint.reshape(by_tile)[:, None, :],
                    0.0,
                )
            )
            miss = _solve_level(
                n,
                fp,
                pool.at_first(st.seq.reshape(by_tile)),
                np.where(pool.member, passes[:, None, :], passes.min()).max(axis=2),
                l1_capacity,
                params,
                sharers=np.where(pool.at_first(shared), st.tile_pes[:, None], 1.0),
            )
            h1 = np.where(cached, pool.hit_rates(miss, n).reshape(st.shape), 1.0)
            m1 = np.where(cached, mb * (1.0 - h1), 0.0)
        else:
            # one solve per PE over its own streams
            by_pe = (n_tiles * n_pes, n_slots)
            n = np.where(cached, mb, 0.0)
            miss = _solve_level(
                n.reshape(by_pe),
                st.footprint.reshape(by_pe),
                st.seq.reshape(by_pe),
                st.passes.reshape(by_pe),
                l1_capacity,
                params,
            ).reshape(st.shape)
            h1 = np.where(cached, 1.0 - miss / np.where(cached, n, 1.0), 1.0)
            m1 = miss  # zero off the cache path

        # ---- Stage 2: L2 hit rates per (tile or system, region) -------
        scope = (1, -1) if l2_shared else (n_tiles, -1)
        pool = _Pool(st.region.reshape(scope), (cached & (m1 > 0)).reshape(scope))
        n = pool.fold(m1.reshape(scope))
        miss = _solve_level(
            n,
            _l2_footprints(
                pool.member, st.shared.reshape(scope), st.footprint.reshape(scope)
            ),
            pool.at_first(st.seq.reshape(scope)),
            pool.at_first(st.passes.reshape(scope)),
            mode.l2_words(geom, params),
            params,
        )
        h2 = pool.hit_rates(miss, n).reshape(st.shape)

        # ---- Stage 3: latency composition ------------------------------
        live = count > 0
        spm = st.in_spm & live
        path = ~st.in_spm & live
        lat = compose_latency(l1_base, h1, h2, self._hide[st.pattern], params)
        cheap_loads = np.maximum(count - writes - mb, 0.0)
        access_cycles = np.where(
            spm,
            count * spm_lat,
            np.where(
                path,
                mb * lat + cheap_loads * l1_base + writes * _STORE_COST,
                0.0,
            ),
        )
        compute = pe_grid(profile, "compute_ops", n_pes)
        cycles = _fold(
            np.concatenate([compute[..., None], access_cycles], axis=2)
        )
        # Read-modify-write streams dirty the lines they fetched; the
        # eventual write-back doubles the fill traffic (stores themselves
        # hit the fetched line).
        fill = m1 * (1.0 - h2) * np.where(st.fill_granule != 0, st.fill_granule, line)
        traffic = np.where(path, fill + np.where(writes > 0, fill, 0.0), 0.0)
        dram_seq = np.where(st.seq, traffic, 0.0)
        m1 = np.where(path, m1, 0.0)
        l1_accesses = np.where(path, count, 0.0)
        spm_accesses = np.where(spm, count, 0.0)
        xbar = np.zeros((n_tiles, n_pes, n_slots, 2))
        if mode is HWMode.SCS:
            xbar[..., 0] = spm_accesses
        if l1_shared:
            xbar[..., 0] += l1_accesses
        xbar[..., 1] = m1
        tally = Tally(geom, params)
        tally.settle(
            profile,
            cycles,
            {
                "pe_ops": compute[..., None],
                "spm_accesses": spm_accesses,
                "l1_accesses": l1_accesses,
                "l1_hits": l1_accesses - m1,
                "l2_accesses": m1,
                "l2_hits": h2 * m1,
                "dram_words": traffic,
                "xbar_hops": xbar.reshape(n_tiles, n_pes, 2 * n_slots),
                "dram_seq": dram_seq,
                "dram_rand": traffic - dram_seq,
            },
        )
        return tally.report(profile, "analytic")
