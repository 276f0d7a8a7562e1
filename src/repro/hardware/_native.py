"""Optional native fast path for the trace-replay engine.

The batched numpy engine in :mod:`repro.hardware.cache` is the portable
workhorse; this module adds an opportunistic accelerator on top of it: a
~50-line C kernel with *exactly* the same set-associative LRU semantics,
compiled on first use with whatever C compiler the host already has and
loaded through :mod:`ctypes` (no Python headers or build system needed).

The shared object is cached under the system temp directory, keyed by a
hash of the source, so the one-time compile cost (~1 s) is paid once per
user and machine.  The cache directory is per user, and it is loaded from
only while it is owned by the user with mode 0700 and the object is
writable by no one else: another local user must not be able to plant
code for :mod:`ctypes` to load.  Any failure — an unsafe cache directory,
no toolchain, sandboxed filesystem, a broken compiler — downgrades
silently to the numpy engine.  Set
``REPRO_NATIVE=0`` to disable the native path outright (the differential
tests use this to pin down which engine they exercise).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import stat
import subprocess
import tempfile
from typing import Optional

import numpy as np

from ..env import env_flag

__all__ = ["available", "replay"]

#: LRU replay over a word-address trace.  ``tags`` is ``n_sets*ways``
#: int64 (-1 = empty way, oldest in column 0) and ``dirty`` the matching
#: byte matrix — the same state layout as the numpy engine, so the two
#: paths are interchangeable mid-stream.
_C_SOURCE = """
#include <stdint.h>
#include <string.h>

void lru_replay(const int64_t *addrs, const uint8_t *writes, int64_t n,
                int64_t line_words, int64_t n_sets, int64_t ways,
                int64_t *tags, uint8_t *dirty, uint8_t *mask,
                int64_t *counters)
{
    int64_t hits = 0, misses = 0, wbs = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t line = addrs[i] / line_words;
        int64_t s = line % n_sets;
        int64_t *row = tags + s * ways;
        uint8_t *drow = dirty + s * ways;
        uint8_t w = writes[i];
        int64_t j;
        for (j = 0; j < ways; j++) {
            if (row[j] == line) break;
        }
        if (j < ways) { /* hit: rotate j..last-valid left (MRU at end) */
            uint8_t d = drow[j] | w;
            int64_t k = j;
            while (k + 1 < ways && row[k + 1] != -1) {
                row[k] = row[k + 1];
                drow[k] = drow[k + 1];
                k++;
            }
            row[k] = line;
            drow[k] = d;
            hits++;
            if (mask) mask[i] = 1;
        } else {
            misses++;
            if (mask) mask[i] = 0;
            if (row[ways - 1] != -1) { /* full set: evict oldest */
                if (drow[0]) wbs++;
                memmove(row, row + 1, (ways - 1) * sizeof(int64_t));
                memmove(drow, drow + 1, (size_t)(ways - 1));
                row[ways - 1] = line;
                drow[ways - 1] = w;
            } else {
                for (int64_t v = 0; v < ways; v++) {
                    if (row[v] == -1) { row[v] = line; drow[v] = w; break; }
                }
            }
        }
    }
    counters[0] += hits; counters[1] += misses; counters[2] += wbs;
}
"""

#: None until the first lookup; afterwards the bound function or False.
_kernel = None


def _enabled() -> bool:
    return env_flag("REPRO_NATIVE", True)


def _find_compiler() -> Optional[str]:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand:
            path = shutil.which(cand)
            if path:
                return path
    return None


def _owned_private(path: str, closed_bits: int, is_kind) -> bool:
    """Whether ``path`` itself (no symlink) passes ``is_kind``, is owned
    by this user and has none of the ``closed_bits`` mode bits."""
    try:
        st = os.lstat(path)
    except OSError:
        return False
    mode = st.st_mode
    return is_kind(mode) and st.st_uid == os.getuid() and not mode & closed_bits


def _build_dir() -> Optional[str]:
    """This user's build directory, or None when it is not private."""
    path = os.path.join(tempfile.gettempdir(), f"repro-native-{os.getuid()}")
    try:
        os.mkdir(path, 0o700)
    except FileExistsError:
        pass
    return path if _owned_private(path, 0o077, stat.S_ISDIR) else None


def _build():
    cc = _find_compiler()
    if cc is None:
        return False
    build_dir = _build_dir()
    if build_dir is None:
        return False
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    so_path = os.path.join(build_dir, f"lru_{digest}.so")
    if not os.path.exists(so_path):
        src_path = os.path.join(build_dir, f"lru_{digest}.c")
        with open(src_path, "w") as f:
            f.write(_C_SOURCE)
        tmp_path = f"{so_path}.{os.getpid()}.tmp"
        subprocess.run(
            [cc, "-O3", "-shared", "-fPIC", "-o", tmp_path, src_path],
            check=True,
            capture_output=True,
            timeout=120,
        )
        os.chmod(tmp_path, 0o700)
        os.replace(tmp_path, so_path)  # atomic: concurrent builds race safely
    if not _owned_private(so_path, 0o022, stat.S_ISREG):
        return False
    lib = ctypes.CDLL(so_path)
    fn = lib.lru_replay
    fn.restype = None
    fn.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64,
                   ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
                   ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
                   ctypes.c_void_p]
    return fn


def _get():
    global _kernel
    if _kernel is None:
        try:
            _kernel = _build()
        except Exception:
            _kernel = False
    return _kernel or None


def available() -> bool:
    """True when the compiled kernel is usable and not disabled."""
    return _enabled() and _get() is not None


def replay(
    addrs: np.ndarray,
    writes: np.ndarray,
    line_words: int,
    n_sets: int,
    ways: int,
    tags: np.ndarray,
    dirty: np.ndarray,
    mask: Optional[np.ndarray],
) -> Optional[np.ndarray]:
    """Run the native kernel in place; returns ``[hits, misses, wbs]``.

    Returns None when the native path is unavailable (caller falls back
    to the numpy engine).  ``addrs`` must be contiguous int64, ``writes``
    and ``mask`` contiguous 1-byte arrays, ``tags``/``dirty`` the bank's
    state matrices (mutated in place).
    """
    if not _enabled():
        return None
    fn = _get()
    if fn is None:
        return None
    counters = np.zeros(3, dtype=np.int64)

    def p(arr):
        return arr.ctypes.data_as(ctypes.c_void_p)

    fn(p(addrs), p(writes), len(addrs), line_words, n_sets, ways,
       p(tags), p(dirty), p(mask) if mask is not None else None, p(counters))
    return counters
