"""Content-addressed persistent cache of priced sweep points.

OSKI's autotuning insight applies to the pricing model verbatim: a
priced point is a pure function of its inputs, so pay the cost once and
reuse it forever.  Every cacheable :class:`~repro.parallel.tasks
.PricingTask` result lands here as one small JSON file whose name *is*
the task's content hash (matrix digests + payload + code version, see
:func:`repro.parallel.tasks.task_key`), which makes invalidation
automatic: touch the inputs, the schema, or the package version and the
key — hence the file — changes.

Durability rules:

* writes are atomic (temp file + ``os.replace``) so a concurrent reader
  never observes a half-written entry;
* genuinely corrupt entries (unparseable JSON, missing ``result`` key)
  are treated as misses and deleted; a *transient* ``OSError`` on open
  or read (EACCES, EMFILE, EIO) is a plain miss — the entry on disk may
  be perfectly good and must survive;
* floats survive the JSON round trip bit-exactly (``repr`` shortest
  round-trip encoding), which the parallel-vs-serial bit-identity tests
  rely on.

Disable with ``REPRO_PRICING_CACHE=0``; relocate with
``REPRO_CACHE_DIR`` (the same root the workload cache uses, under a
``pricing/`` subdirectory).
"""

from __future__ import annotations

import json
import os
from typing import Optional

from ..env import cache_dir, env_flag

__all__ = ["PricingCache", "pricing_cache_enabled"]

_ENV_SWITCH = "REPRO_PRICING_CACHE"


def pricing_cache_enabled() -> bool:
    """Whether priced results should persist (default: yes)."""
    return env_flag(_ENV_SWITCH, True)


class PricingCache:
    """One directory of ``<sha256>.json`` priced-point entries."""

    def __init__(self, root: Optional[str] = None):
        if root is None:
            root = cache_dir()
        self.dir = os.path.join(root, "pricing")

    def _path(self, key: str) -> str:
        return os.path.join(self.dir, f"{key}.json")

    def get(self, key: str) -> Optional[dict]:
        """The stored result for ``key``, or ``None`` on a miss."""
        path = self._path(key)
        try:
            with open(path) as f:
                entry = json.load(f)
            return entry["result"]
        except FileNotFoundError:
            return None
        except OSError:
            # Transient open/read failure (permission flip, fd
            # exhaustion, I/O error): the stored entry may be intact,
            # so treat it as a miss and leave it for the next reader.
            return None
        except (ValueError, KeyError):
            # Corrupt entry (interrupted write on a filesystem without
            # atomic replace, manual truncation): drop and re-price.
            try:
                os.remove(path)
            except OSError:
                pass
            return None

    def put(self, key: str, fn: str, result: dict) -> None:
        """Persist ``result`` under ``key`` (atomic, last writer wins)."""
        from ..workloads.io import atomic_write

        path = self._path(key)
        try:
            os.makedirs(self.dir, exist_ok=True)
            with atomic_write(path) as tmp:
                with open(tmp, "w") as f:
                    json.dump({"fn": fn, "result": result}, f)
        except OSError:
            # A read-only cache directory degrades to "no persistence".
            pass
