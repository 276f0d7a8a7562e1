"""The native LRU kernel loads only from a directory no one else can write.

A shared object another local user could have planted must never reach
:func:`ctypes.CDLL`; the replay then falls back to the numpy engine with
unchanged results.
"""

import hashlib
import os

import numpy as np
import pytest

from repro.hardware import _native
from repro.hardware.cache import BankedCache
from repro.hardware.params import DEFAULT_PARAMS


def _replay():
    rng = np.random.default_rng(3)
    addrs = rng.integers(0, 40_000, 20_000).astype(np.int64)
    writes = rng.random(20_000) < 0.3
    cache = BankedCache(4, DEFAULT_PARAMS)
    hits = cache.run_trace(addrs, writes)
    return hits, (cache.hits, cache.misses, cache.writebacks)


@pytest.fixture
def planted(tmp_path, monkeypatch):
    """A build directory holding a planted ``lru_<digest>.so``; the test
    sets its permissions.  Loading anything fails the test."""
    build_dir = tmp_path / f"repro-native-{os.getuid()}"
    build_dir.mkdir()
    digest = hashlib.sha256(_native._C_SOURCE.encode()).hexdigest()[:16]
    so_path = build_dir / f"lru_{digest}.so"
    so_path.write_bytes(b"not a shared object")
    monkeypatch.setattr(_native.tempfile, "gettempdir", lambda: str(tmp_path))
    monkeypatch.setattr(_native, "_find_compiler", lambda: "/usr/bin/cc")
    monkeypatch.setattr(_native, "_kernel", None)

    def refuse(path, *args, **kwargs):
        pytest.fail(f"ctypes.CDLL reached for {path}")

    monkeypatch.setattr(_native.ctypes, "CDLL", refuse)
    monkeypatch.setenv("REPRO_NATIVE", "1")
    return build_dir, so_path


class TestPlantedSharedObject:
    def test_world_writable_directory_is_refused(self, planted, monkeypatch):
        build_dir, so_path = planted
        os.chmod(build_dir, 0o777)
        os.chmod(so_path, 0o700)
        hits, counts = _replay()
        assert not _native.available()
        monkeypatch.setenv("REPRO_NATIVE", "0")
        ref_hits, ref_counts = _replay()
        np.testing.assert_array_equal(hits, ref_hits)
        assert counts == ref_counts

    def test_world_writable_object_is_refused(self, planted):
        build_dir, so_path = planted
        os.chmod(build_dir, 0o700)
        os.chmod(so_path, 0o666)
        assert not _native.available()

    def test_symlinked_directory_is_refused(self, planted, tmp_path):
        build_dir, _so_path = planted
        os.chmod(build_dir, 0o700)
        link = tmp_path / "link"
        build_dir.rename(link)
        build_dir.symlink_to(link, target_is_directory=True)
        assert not _native.available()
