"""Property-based tests of the LRU cache simulator and the flux solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import DEFAULT_PARAMS
from repro.hardware.analytic import _solve_level
from repro.hardware.cache import BankedCache, CacheBank
from repro.hardware.profile import Pattern


class _ReferenceLRU:
    """Brain-dead fully-correct LRU reference (list of lines, per set)."""

    def __init__(self, n_sets, ways, line_words):
        self.n_sets, self.ways, self.line_words = n_sets, ways, line_words
        self.sets = [[] for _ in range(n_sets)]

    def access(self, addr):
        line = addr // self.line_words
        s = self.sets[line % self.n_sets]
        if line in s:
            s.remove(line)
            s.append(line)
            return True
        if len(s) >= self.ways:
            s.pop(0)
        s.append(line)
        return False


class TestLRUAgainstReference:
    @given(st.lists(st.integers(0, 4000), min_size=1, max_size=400))
    @settings(max_examples=80, deadline=None)
    def test_hit_sequence_matches(self, addrs):
        ours = CacheBank(DEFAULT_PARAMS)
        ref = _ReferenceLRU(
            ours.n_sets, ours.ways, DEFAULT_PARAMS.cache_line_words
        )
        for a in addrs:
            assert ours.access(a) == ref.access(a)

    @given(st.lists(st.integers(0, 100_000), min_size=1, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_counters_consistent(self, addrs):
        c = CacheBank(DEFAULT_PARAMS)
        for a in addrs:
            c.access(a)
        assert c.hits + c.misses == len(addrs)
        assert 0.0 <= c.hit_rate <= 1.0

    @given(st.lists(st.integers(0, 2000), min_size=1, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_banked_trace_equals_loop(self, addrs):
        a = BankedCache(2, DEFAULT_PARAMS)
        b = BankedCache(2, DEFAULT_PARAMS)
        arr = np.asarray(addrs, dtype=np.int64)
        writes = np.zeros(len(arr), dtype=bool)
        mask = a.run_trace(arr, writes)
        loop = [b.access(int(x)) for x in arr]
        assert list(mask) == loop


def _solve(entries, capacity):
    """Miss counts of one cache level over ``(count, footprint, pattern,
    passes)`` entries."""
    rows = np.array([[e[0], e[1], e[3]] for e in entries], dtype=float).T
    count, footprint, passes = rows[:, None, :]
    seq = np.array([[e[2] == Pattern.SEQUENTIAL for e in entries]])
    miss = _solve_level(count, footprint, seq, passes, capacity, DEFAULT_PARAMS)
    return miss[0].tolist()


class TestFluxSolver:
    def entry(self, count, footprint, pattern=Pattern.RANDOM, passes=1):
        return (count, footprint, pattern, passes)

    @given(
        count=st.floats(1, 1e6),
        footprint=st.floats(1, 1e7),
        capacity=st.floats(64, 1e6),
    )
    @settings(max_examples=100, deadline=None)
    def test_misses_bounded(self, count, footprint, capacity):
        [miss] = _solve([self.entry(count, footprint)], capacity)
        assert 0.0 <= miss <= count + 1e-9

    @given(
        count=st.floats(100, 1e5),
        footprint=st.floats(1000, 1e6),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_capacity(self, count, footprint):
        e = self.entry(count, footprint)
        [small] = _solve([e], 1024.0)
        [big] = _solve([e], 64 * 1024.0)
        assert big <= small + 1e-6

    def test_tiny_footprint_always_hits_after_cold(self):
        [miss] = _solve([self.entry(100_000, 64)], 4096)
        assert miss <= 64 / DEFAULT_PARAMS.cache_line_words + 1.0

    def test_streaming_competitor_degrades_random_stream(self):
        random = self.entry(50_000, 8_000)
        [alone] = _solve([random], 8_192)
        stream = self.entry(150_000, 150_000, Pattern.SEQUENTIAL, 1)
        shared, _ = _solve([random, stream], 8_192)
        assert shared >= alone

    def test_empty_level(self):
        assert _solve([self.entry(0, 0)], 1024) == [0.0]

    def test_rows_are_independent_caches(self):
        """One solve over many rows equals one solve per row."""
        rows = [
            [self.entry(50_000, 8_000), self.entry(1_000, 100_000)],
            [self.entry(0, 0), self.entry(20_000, 600, Pattern.DEPENDENT)],
            [self.entry(90_000, 90_000, Pattern.SEQUENTIAL, 2),
             self.entry(5, 5)],
        ]
        alone = [_solve(r, 8_192) for r in rows]
        table = np.array([[[e[0], e[1], e[3]] for e in r] for r in rows])
        seq = np.array([[e[2] == Pattern.SEQUENTIAL for e in r] for r in rows])
        together = _solve_level(
            table[..., 0], table[..., 1], seq, table[..., 2], 8_192,
            DEFAULT_PARAMS,
        )
        assert together.tolist() == alone
