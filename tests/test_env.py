"""Every boolean ``REPRO_*`` switch parses its value the same way."""

import pytest

from repro.analysis import sanitize
from repro.env import cache_dir
from repro.experiments.common import full_runs_enabled
from repro.graphs.common import tune_requested
from repro.hardware import _native
from repro.obs import tracer
from repro.parallel.cache import pricing_cache_enabled
from repro.tune.plan import plan_cache_enabled


def _traced() -> bool:
    tracer.install(None)  # re-read REPRO_TRACE
    try:
        return tracer.active().enabled
    finally:
        tracer.install(None)


#: switch -> the reader the program consults
SWITCHES = {
    "REPRO_TRACE": _traced,
    "REPRO_SANITIZE": sanitize.enabled,
    "REPRO_TUNE": tune_requested,
    "REPRO_TUNE_CACHE": plan_cache_enabled,
    "REPRO_PRICING_CACHE": pricing_cache_enabled,
    "REPRO_FULL": full_runs_enabled,
    "REPRO_NATIVE": _native._enabled,
}


@pytest.mark.parametrize("value", ["0", "off", "no", " FALSE "])
@pytest.mark.parametrize("name", sorted(SWITCHES))
def test_falsey_values_turn_every_switch_off(monkeypatch, name, value):
    monkeypatch.setenv(name, "1")
    assert SWITCHES[name]()
    monkeypatch.setenv(name, value)
    assert not SWITCHES[name]()


def test_cache_dir_follows_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert cache_dir() == str(tmp_path)
