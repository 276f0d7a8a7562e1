"""The ``REPRO_*`` environment settings, each parsed one way."""

from __future__ import annotations

import os

__all__ = ["env_flag", "cache_dir"]

_FALSEY = frozenset({"", "0", "false", "off", "no"})


def env_flag(name: str, default: bool) -> bool:
    """Whether the boolean switch ``name`` is on: ``default`` when unset,
    off when its stripped, lower-cased value is empty, ``0``, ``false``,
    ``off`` or ``no``, on otherwise."""
    value = os.environ.get(name)
    if value is None:
        return default
    return value.strip().lower() not in _FALSEY


def cache_dir() -> str:
    """Root of the on-disk caches: ``REPRO_CACHE_DIR``, default
    ``./.repro_cache``."""
    return os.environ.get("REPRO_CACHE_DIR", os.path.abspath(".repro_cache"))
