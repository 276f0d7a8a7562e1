"""Latency-composition helper tests (shared by both fidelity modes)."""

import pytest

from repro.hardware import DEFAULT_PARAMS, Geometry, HWMode
from repro.hardware.latency import (
    bandwidth_floor_cycles,
    compose_latency,
    hide_fraction,
    l1_base_latency,
    shared_conflict_cycles,
    spm_latency,
)
from repro.hardware.profile import Pattern


class TestHideFractions:
    def test_ordering(self):
        """Prefetchable < independent gather < pointer chase (visible)."""
        seq = hide_fraction(Pattern.SEQUENTIAL, DEFAULT_PARAMS)
        rand = hide_fraction(Pattern.RANDOM, DEFAULT_PARAMS)
        dep = hide_fraction(Pattern.DEPENDENT, DEFAULT_PARAMS)
        assert seq < rand < dep

    def test_bounds(self):
        for p in (Pattern.SEQUENTIAL, Pattern.RANDOM, Pattern.DEPENDENT):
            assert 0.0 <= hide_fraction(p, DEFAULT_PARAMS) <= 1.0


def _latency(base_l1, h1, h2, pattern):
    hide = hide_fraction(pattern, DEFAULT_PARAMS)
    return compose_latency(base_l1, h1, h2, hide, DEFAULT_PARAMS)


class TestCompose:
    def test_all_hits_cost_base(self):
        lat = _latency(1.5, 1.0, 1.0, Pattern.RANDOM)
        assert lat == pytest.approx(1.5)

    def test_l2_hits_add_visible_fraction(self):
        lat = _latency(1.0, 0.0, 1.0, Pattern.DEPENDENT)
        expected = 1.0 + 0.9 * (DEFAULT_PARAMS.l2_hit_latency - 1.0)
        assert lat == pytest.approx(expected)

    def test_dram_misses_dominate(self):
        all_dram = _latency(1.0, 0.0, 0.0, Pattern.DEPENDENT)
        assert all_dram > 0.8 * DEFAULT_PARAMS.dram_latency * 0.9

    def test_monotone_in_hit_rates(self):
        worse = _latency(1.0, 0.2, 0.2, Pattern.RANDOM)
        better = _latency(1.0, 0.8, 0.8, Pattern.RANDOM)
        assert better < worse

    def test_prefetch_hides_stream_misses(self):
        seq = _latency(1.0, 0.0, 0.0, Pattern.SEQUENTIAL)
        dep = _latency(1.0, 0.0, 0.0, Pattern.DEPENDENT)
        assert seq < dep / 3


class TestSharedConflicts:
    def test_more_requesters_more_conflicts(self):
        few = shared_conflict_cycles(4, 8, DEFAULT_PARAMS)
        many = shared_conflict_cycles(32, 8, DEFAULT_PARAMS)
        assert many > few

    def test_more_banks_fewer_conflicts(self):
        narrow = shared_conflict_cycles(16, 4, DEFAULT_PARAMS)
        wide = shared_conflict_cycles(16, 32, DEFAULT_PARAMS)
        assert wide < narrow

    def test_single_requester_no_serialisation(self):
        assert shared_conflict_cycles(1, 8, DEFAULT_PARAMS) == pytest.approx(
            DEFAULT_PARAMS.xbar_arbitration
        )


class TestLatencyBases:
    GEOM = Geometry(2, 8)

    def test_private_l1_is_transparent(self):
        """A private crossbar adds neither arbitration nor serialisation."""
        for mode in (HWMode.PC, HWMode.PS):
            assert l1_base_latency(mode, self.GEOM, DEFAULT_PARAMS) == 1.0

    def test_shared_l1_pays_serialisation(self):
        assert l1_base_latency(HWMode.SC, self.GEOM, DEFAULT_PARAMS) > 1.0

    def test_shared_spm_pays_serialisation(self):
        private = spm_latency(HWMode.PS, self.GEOM, DEFAULT_PARAMS)
        assert spm_latency(HWMode.SCS, self.GEOM, DEFAULT_PARAMS) > private


class TestBandwidthFloor:
    def test_floor_cycles_sequential(self):
        """3200 streamed words at 32 words/cycle take 100 cycles."""
        assert bandwidth_floor_cycles(3200, 0, DEFAULT_PARAMS) == pytest.approx(
            100.0
        )

    def test_random_traffic_costs_more(self):
        seq = bandwidth_floor_cycles(1000, 0, DEFAULT_PARAMS)
        rand = bandwidth_floor_cycles(0, 1000, DEFAULT_PARAMS)
        assert rand > seq
