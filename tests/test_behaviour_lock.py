"""Behaviour lock: sha256 digests of the kernels' and runtime's modelled
results, recorded once and compared on every run.

Each case hashes everything a caller can observe — functional values,
the touched mask and the full :class:`~repro.hardware.profile.KernelProfile`
(every stream field, tile fields, meta and traces) for the kernels;
total cycles, the IP/OP + hardware-mode sequence and the output values
for the runtime.  A refactor that claims bit-identity must leave every
digest in ``behaviour_lock.json`` unchanged.

A change that alters modelled results on purpose re-records the file::

    PYTHONPATH=src python tests/test_behaviour_lock.py --record

and says why in CHANGES.md.  New cases are added without touching the
recorded digests by ``--add``, which records only the missing names.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import pathlib
import sys

import numpy as np
import pytest

from repro.core import CoSparseRuntime
from repro.formats import COOMatrix, CSCMatrix, MultiVector, SparseVector
from repro.graphs import Graph, bfs, pagerank, sssp
from repro.hardware import DEFAULT_PARAMS, Geometry, HWMode, TransmuterSystem
from repro.hardware.analytic import AnalyticModel
from repro.hardware.profile import (
    AccessStream,
    KernelProfile,
    Pattern,
    PEProfile,
    Region,
    TileProfile,
)
from repro.spmv import (
    bfs_semiring,
    cf_semiring,
    inner_product,
    inner_product_batch,
    outer_product,
    outer_product_batch,
    spmv_semiring,
    sssp_semiring,
)
from repro.workloads import chung_lu, load_graph, random_frontier, uniform_random

LOCK_FILE = pathlib.Path(__file__).with_name("behaviour_lock.json")

GEOM = Geometry(2, 4)
#: Narrower than the SPM-fit width (2048) so the override changes the
#: vblock count on the 3000-column IP matrix.
VBLOCK_OVERRIDE = 256


# ----------------------------------------------------------------------
# Canonical hashing
# ----------------------------------------------------------------------
def _feed(h, obj) -> None:
    """Feed ``obj`` into ``h`` by value: numbers by exact value and kind
    (int vs float), arrays by dtype, shape and bytes, dataclasses field
    by field."""
    if obj is None:
        h.update(b"N")
    elif isinstance(obj, (bool, np.bool_)):
        h.update(b"b1" if obj else b"b0")
    elif isinstance(obj, enum.Enum):
        h.update(f"e{type(obj).__name__}.{obj.name}".encode())
    elif isinstance(obj, (int, np.integer)):
        h.update(f"i{int(obj)}".encode())
    elif isinstance(obj, (float, np.floating)):
        h.update(f"f{float(obj).hex()}".encode())
    elif isinstance(obj, str):
        h.update(f"s{len(obj)}:{obj}".encode())
    elif isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        h.update(f"a{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    elif dataclasses.is_dataclass(obj):
        h.update(f"d{type(obj).__name__}".encode())
        for f in dataclasses.fields(obj):
            h.update(f.name.encode())
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, dict):
        h.update(f"m{len(obj)}".encode())
        for key in sorted(obj):
            _feed(h, key)
            _feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(f"l{len(obj)}".encode())
        for item in obj:
            _feed(h, item)
    else:
        raise TypeError(f"cannot hash {type(obj).__name__}")


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        _feed(h, part)
    return h.hexdigest()


def result_digest(result) -> str:
    return digest(result.values, result.touched, result.profile)


def report_fields(report) -> dict:
    """Every :class:`RunReport` field, with the per-stream pricing table
    left out of ``detail``."""
    fields = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
    fields["detail"] = {
        k: v for k, v in report.detail.items() if k != "streams"
    }
    return fields


def run_digest(run) -> str:
    return digest(
        float(run.total_cycles), run.log.config_sequence(), run.values
    )


# ----------------------------------------------------------------------
# Inputs (all seeded)
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def ip_matrix() -> COOMatrix:
    return chung_lu(3000, 30000, seed=7)


@functools.lru_cache(maxsize=None)
def op_matrix() -> CSCMatrix:
    return CSCMatrix.from_coo(chung_lu(800, 6000, seed=11))


def _dense(n, density, seed, absent=0.0) -> np.ndarray:
    sv = random_frontier(n, density, seed=seed)
    out = np.full(n, absent)
    out[sv.indices] = sv.values
    return out


@functools.lru_cache(maxsize=None)
def suite_graph(name: str):
    scale = {"twitter": 32, "youtube": 128}[name]
    return load_graph(name, scale=scale, seed=42)


# ----------------------------------------------------------------------
# Cases: name -> zero-argument function returning a digest
# ----------------------------------------------------------------------
def _ip(density, seed, semiring=spmv_semiring, absent=0.0, **kw):
    """Digest of one ``inner_product`` call on the IP matrix."""
    coo = ip_matrix()
    vec = _dense(coo.n_cols, density, seed, absent)
    return result_digest(inner_product(coo, vec, semiring(), GEOM, **kw))


def _op(density, seed, semiring=spmv_semiring, **kw):
    """Digest of one ``outer_product`` call on the OP matrix."""
    csc = op_matrix()
    sv = random_frontier(csc.n_cols, density, seed=seed)
    return result_digest(outer_product(csc, sv, semiring(), GEOM, **kw))


def _ip_cases():
    cases = {}
    for mode in (HWMode.SC, HWMode.SCS):
        for balanced in (True, False):
            for profile_only in (False, True):
                for vb in (None, VBLOCK_OVERRIDE):
                    name = (
                        f"ip/{mode.label}/bal{int(balanced)}"
                        f"/po{int(profile_only)}/vb{vb}"
                    )
                    cases[name] = functools.partial(
                        _ip, 0.3, 1, hw_mode=mode, balanced=balanced,
                        profile_only=profile_only, vblock_width=vb,
                    )
        cases[f"ip/{mode.label}/trace"] = functools.partial(
            _ip, 0.05, 2, hw_mode=mode, with_trace=True
        )
        cases[f"ip/{mode.label}/trace/vb{VBLOCK_OVERRIDE}"] = functools.partial(
            _ip, 0.05, 2, hw_mode=mode, with_trace=True,
            vblock_width=VBLOCK_OVERRIDE,
        )
        cases[f"ip/{mode.label}/cf"] = functools.partial(_ip_cf, mode)
    n = ip_matrix().n_rows
    cases["ip/SC/sssp_current"] = functools.partial(
        _ip, 0.1, 3, sssp_semiring, np.inf,
        current=np.random.default_rng(4).uniform(0.0, 9.0, n),
    )
    cases["ip/SC/bfs_shuffled_coo"] = _ip_shuffled
    return cases


def _ip_cf(mode):
    coo = ip_matrix()
    rng = np.random.default_rng(5)
    sr = cf_semiring(k=4)
    vec = rng.uniform(-1.0, 1.0, (coo.n_cols, 4))
    cur = rng.uniform(-1.0, 1.0, (coo.n_rows, 4))
    return digest(
        [
            result_digest(
                inner_product(
                    coo, vec, sr, GEOM, hw_mode=mode, current=cur,
                    profile_only=po,
                )
            )
            for po in (False, True)
        ]
    )


def _shuffled(coo: COOMatrix) -> COOMatrix:
    perm = np.random.default_rng(6).permutation(coo.nnz)
    return COOMatrix(
        coo.n_rows, coo.n_cols, coo.rows[perm], coo.cols[perm],
        coo.vals[perm], sort=False,
    )


def _ip_shuffled():
    """An unsorted COO (built with ``sort=False``) must produce the same
    values, touched mask and profile as the sorted matrix under a
    min-reduce semiring (order-independent)."""
    coo = ip_matrix()
    vec = _dense(coo.n_cols, 0.2, seed=7, absent=np.inf)
    digests = [
        result_digest(
            inner_product(m, vec, bfs_semiring(), GEOM, vblock_width=vb)
        )
        for m in (coo, _shuffled(coo))
        for vb in (None, VBLOCK_OVERRIDE)
    ]
    assert digests[:2] == digests[2:], "shuffled COO diverges from sorted"
    return digest(digests)


def _op_cases():
    cases = {}
    for mode in (HWMode.PC, HWMode.PS, HWMode.SC):
        for path in ("fast", "exact", "trace"):
            for balanced in (True, False):
                cases[f"op/{mode.label}/{path}/bal{int(balanced)}"] = (
                    functools.partial(
                        _op, 0.02, 8, hw_mode=mode, exact=path == "exact",
                        with_trace=path == "trace", balanced=balanced,
                    )
                )
        cases[f"op/{mode.label}/profile_only"] = functools.partial(
            _op, 0.02, 8, hw_mode=mode, profile_only=True
        )
    n = op_matrix().n_rows
    cases["op/PC/sssp_current"] = functools.partial(
        _op, 0.05, 9, sssp_semiring,
        current=np.random.default_rng(10).uniform(0.0, 9.0, n),
    )
    return cases


def _batch_cases():
    cases = {}
    coo = ip_matrix()
    n = coo.n_cols
    ip_cols = [np.zeros(n)] + [
        _dense(n, d, seed=20 + i) for i, d in enumerate((0.01, 0.4, 1.0))
    ]
    for mode in (HWMode.SC, HWMode.SCS):
        for j in range(len(ip_cols)):
            cases[f"ip_batch/{mode.label}/col{j}"] = functools.partial(
                lambda m, j: result_digest(
                    inner_product_batch(
                        coo, MultiVector(ip_cols), spmv_semiring(), GEOM,
                        hw_mode=m, vblock_width=VBLOCK_OVERRIDE,
                    )[j]
                ),
                mode, j,
            )
    inf_cols = [_dense(n, d, seed=30 + i, absent=np.inf)
                for i, d in enumerate((0.005, 0.3))]
    currents = [np.random.default_rng(31 + i).uniform(1.0, 5.0, n)
                for i in range(2)]
    for j in range(2):
        cases[f"ip_batch/SC/sssp/col{j}"] = functools.partial(
            lambda j: result_digest(
                inner_product_batch(
                    coo, MultiVector(inf_cols, absent=np.inf), sssp_semiring(),
                    GEOM, currents=currents, balanced=False,
                )[j]
            ),
            j,
        )
    cases["ip_batch/SCS/subset_profile_only"] = lambda: digest(
        [
            result_digest(r)
            for r in inner_product_batch(
                coo, MultiVector(ip_cols), spmv_semiring(), GEOM,
                hw_mode=HWMode.SCS, columns=[3, 1], profile_only=True,
            )
        ]
    )

    csc = op_matrix()
    m = csc.n_cols
    op_cols = [
        random_frontier(m, 0.005, seed=40),
        random_frontier(m, 0.05, seed=41),
        SparseVector.empty(m),
        random_frontier(m, 0.05, seed=41),
    ]
    for mode in (HWMode.PC, HWMode.PS):
        for j in range(len(op_cols)):
            cases[f"op_batch/{mode.label}/col{j}"] = functools.partial(
                lambda md, j: result_digest(
                    outer_product_batch(
                        csc, MultiVector(op_cols), spmv_semiring(), GEOM,
                        hw_mode=md,
                    )[j]
                ),
                mode, j,
            )
    op_cur = [np.random.default_rng(42 + i).uniform(0.0, 9.0, csc.n_rows)
              for i in range(2)]
    for j in range(2):
        cases[f"op_batch/PC/sssp/col{j}"] = functools.partial(
            lambda j: result_digest(
                outer_product_batch(
                    csc, MultiVector(op_cols[:2], absent=np.inf),
                    sssp_semiring(), GEOM, currents=op_cur, balanced=False,
                )[j]
            ),
            j,
        )
    cases["op_batch/PS/subset_profile_only"] = lambda: digest(
        [
            result_digest(r)
            for r in outer_product_batch(
                csc, MultiVector(op_cols), spmv_semiring(), GEOM,
                hw_mode=HWMode.PS, columns=[3, 0], profile_only=True,
            )
        ]
    )
    return cases


def _price(profile) -> str:
    """Digest of one profile priced through every system entry point: a
    hypothetical probe, a first run (which reconfigures) and a repeat
    run without energy.  The profile alone picks the engine: trace
    replay when it carries traces, the analytic model otherwise."""
    system = TransmuterSystem(GEOM)
    probe = system.evaluate_without_switching(profile)
    first = system.run(profile)
    again = system.run(profile, with_energy=False)
    return digest(
        [report_fields(r) for r in (probe, first, again)],
        system.reconfigurations,
        float(system.reconfiguration_cycles),
    )


def _price_ip(mode, balanced, traced):
    coo = ip_matrix()
    vec = _dense(coo.n_cols, 0.05, seed=60)
    result = inner_product(
        coo, vec, spmv_semiring(), GEOM, hw_mode=mode, balanced=balanced,
        with_trace=traced,
    )
    return _price(result.profile)


def _price_op(mode, balanced, traced):
    csc = op_matrix()
    sv = random_frontier(csc.n_cols, 0.02, seed=61)
    result = outer_product(
        csc, sv, spmv_semiring(), GEOM, hw_mode=mode, balanced=balanced,
        with_trace=traced,
    )
    return _price(result.profile)


def _pricing_cases():
    cases = {}
    for engine, traced in (("analytic", False), ("trace", True)):
        for algo, modes, fn in (
            ("ip", (HWMode.SC, HWMode.SCS), _price_ip),
            ("op", (HWMode.PC, HWMode.PS, HWMode.SC), _price_op),
        ):
            for mode in modes:
                for balanced in (True, False):
                    name = f"pricing/{engine}/{algo}/{mode.label}/bal{int(balanced)}"
                    cases[name] = functools.partial(fn, mode, balanced, traced)
    cases["pricing/trace/runtime/bfs"] = functools.partial(_trace_run, bfs)
    cases["pricing/trace/runtime/sssp"] = functools.partial(_trace_run, sssp)
    return cases


@functools.lru_cache(maxsize=None)
def tiny_graph() -> Graph:
    return Graph(
        uniform_random(300, nnz=2500, seed=19, remove_self_loops=True),
        name="tiny",
    )


def _trace_run(driver):
    """A whole traversal priced by trace replay on every iteration."""
    run = driver(
        tiny_graph(), 0, geometry="2x2", fidelity="trace"
    )
    assert all(r.report.fidelity == "trace" for r in run.log)
    return digest(
        run_digest(run), [report_fields(r.report) for r in run.log]
    )


def _runtime_cases():
    cases = {}
    policies = {
        "tree": {"policy": "tree"},
        "oracle": {"policy": "oracle"},
        "static": {"policy": "static", "static_config": ("ip", HWMode.SC)},
    }
    for gname in ("twitter", "youtube"):
        for pname, kw in policies.items():
            for algo in ("bfs", "sssp", "pagerank"):
                cases[f"runtime/{gname}/{algo}/{pname}"] = functools.partial(
                    _run_algorithm, gname, algo, kw
                )
    cases["runtime/twitter/spmv_batch/oracle"] = _run_batch
    return cases


def _source(graph) -> int:
    return int(np.argmax(graph.out_degrees()))


def _run_algorithm(gname, algo, kw):
    graph = suite_graph(gname)
    if algo == "pagerank":
        run = pagerank(graph, geometry="4x8", **kw)
    else:
        driver = bfs if algo == "bfs" else sssp
        run = driver(graph, _source(graph), geometry="4x8", **kw)
    return run_digest(run)


def _run_batch():
    """One ``spmv_batch`` superstep over mixed-density frontiers: the
    oracle picks different configurations per column, so both batched
    kernels and the group-boundary switch charges are exercised."""
    graph = suite_graph("twitter")
    rt = CoSparseRuntime(graph.operand, "4x8", policy="oracle")
    n = graph.n_vertices
    cols = [
        random_frontier(n, 0.001, seed=50),
        _dense(n, 0.6, seed=51),
        random_frontier(n, 0.01, seed=52),
        _dense(n, 0.9, seed=53),
    ]
    results = rt.spmv_batch(MultiVector(cols), spmv_semiring())
    return digest(
        [r.values for r in results],
        [r.touched for r in results],
        float(rt.log.total_cycles),
        rt.log.config_sequence(),
        [(rec.batch_id, rec.batch_column, float(rec.total_cycles))
         for rec in rt.log.records],
    )


def _random_stream(rng) -> AccessStream:
    """One stream drawn to reach every branch of the analytic model:
    zero counts, write-only and read-modify-write streams, register-run
    caps, word-granular fills, re-streamed footprints, scratchpad
    placement and mixed shared/private footprints within a region."""
    count = float(rng.integers(1, 200_000)) * rng.choice([0.0, 1.0, 1.0, 1.0])
    if rng.random() < 0.3:
        count = int(count)  # kernels pass integer counts too
    footprint = float(np.exp(rng.uniform(0.0, np.log(2e5))))
    pattern = Pattern.ALL[rng.integers(len(Pattern.ALL))]
    writes = 0.0
    if rng.random() < 0.3:
        writes = count if rng.random() < 0.3 else count * rng.random()
    distinct = None
    if rng.random() < 0.3:
        distinct = float(rng.integers(0, max(int(count), 1) + 1))
    return AccessStream(
        Region(int(rng.integers(len(Region)))),
        count=count,
        pattern=pattern,
        footprint=footprint,
        in_spm=bool(rng.random() < 0.2),
        shared_footprint=bool(rng.random() < 0.5),
        passes=int(rng.choice([1, 1, 2, 3])),
        writes=writes,
        distinct_touches=distinct,
        fill_granule=int(rng.choice([0, 0, 1, 4])),
    )


def _random_profile(geom: Geometry, mode: HWMode, seed: int) -> KernelProfile:
    """A seeded synthetic profile; about one PE in six is idle (no
    streams, integer zero compute)."""
    rng = np.random.default_rng(seed)
    tiles = []
    for _t in range(geom.tiles):
        pes = []
        for _p in range(geom.pes_per_tile):
            if rng.random() < 0.15:
                pes.append(PEProfile(compute_ops=0))
                continue
            pes.append(
                PEProfile(
                    compute_ops=float(rng.integers(0, 50_000)),
                    streams=[
                        _random_stream(rng)
                        for _ in range(int(rng.integers(0, 6)))
                    ],
                    spm_fill_words=float(rng.choice([0, 0, 0, 512])),
                )
            )
        tiles.append(
            TileProfile(
                pes=pes,
                lcp_serial_elements=float(rng.integers(0, 5_000)),
                lcp_output_words=float(rng.integers(0, 3) * 1_000),
                lcp_compute_ops=float(rng.integers(0, 100)),
                spm_fill_words=float(rng.choice([0, 2048])),
            )
        )
    return KernelProfile(
        algorithm="ip" if mode in (HWMode.SC, HWMode.SCS) else "op",
        mode=mode,
        tiles=tiles,
        fixed_overhead_cycles=float(rng.integers(0, 500)),
    )


def _analytic_random(geom_name, mode):
    geom = Geometry.parse(geom_name)
    model = AnalyticModel(geom, DEFAULT_PARAMS)
    return digest(
        [
            report_fields(model.evaluate(_random_profile(geom, mode, seed)))
            for seed in range(3)
        ]
    )


def _analytic_cases():
    return {
        f"analytic/random/{g}/{mode.label}": functools.partial(
            _analytic_random, g, mode
        )
        for g in ("8x16", "2x8")
        for mode in HWMode
    }


def _record_fields(log) -> list:
    """Every record's report and every priced alternative's report."""
    return [
        (
            report_fields(rec.report),
            {k: report_fields(r) for k, r in rec.alternatives.items()},
        )
        for rec in log.records
    ]


def _records_run(algo, **kw):
    graph = suite_graph("twitter")
    driver = bfs if algo == "bfs" else sssp
    run = driver(graph, _source(graph), geometry="4x8", **kw)
    return digest(run_digest(run), _record_fields(run.log))


def _records_trace(driver):
    """Oracle under trace fidelity: the OP probes execute the exact
    merge, so a winning OP probe's result and report are both reused."""
    run = driver(
        tiny_graph(), 0, geometry="2x2", policy="oracle", fidelity="trace"
    )
    return digest(run_digest(run), _record_fields(run.log))


def _records_batch():
    graph = suite_graph("twitter")
    rt = CoSparseRuntime(graph.operand, "4x8", policy="oracle")
    n = graph.n_vertices
    cols = [
        random_frontier(n, 0.002, seed=70),
        _dense(n, 0.5, seed=71),
        random_frontier(n, 0.02, seed=72),
    ]
    rt.spmv_batch(MultiVector(cols), spmv_semiring())
    return digest(_record_fields(rt.log))


def _record_cases():
    return {
        "records/twitter/bfs/oracle": functools.partial(
            _records_run, "bfs", policy="oracle"
        ),
        "records/twitter/sssp/oracle": functools.partial(
            _records_run, "sssp", policy="oracle"
        ),
        "records/twitter/bfs/oracle_energy": functools.partial(
            _records_run, "bfs", policy="oracle", objective="energy"
        ),
        "records/twitter/bfs/adaptive": functools.partial(
            _records_run, "bfs", policy="adaptive"
        ),
        "records/twitter/spmv_batch/oracle": _records_batch,
        "records/tiny/bfs/oracle_trace": functools.partial(_records_trace, bfs),
        "records/tiny/sssp/oracle_trace": functools.partial(
            _records_trace, sssp
        ),
    }


def all_cases():
    return {
        **_ip_cases(), **_op_cases(), **_batch_cases(), **_runtime_cases(),
        **_pricing_cases(), **_analytic_cases(), **_record_cases(),
    }


CASES = all_cases()


def _recorded() -> dict:
    return json.loads(LOCK_FILE.read_text())["digests"]


def test_lock_covers_every_case():
    assert sorted(_recorded()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_digest_unchanged(name):
    assert CASES[name]() == _recorded()[name], name


if __name__ == "__main__":
    if sys.argv[1:] not in (["--record"], ["--add"]):
        sys.exit("usage: python tests/test_behaviour_lock.py --record|--add")
    digests = _recorded() if sys.argv[1] == "--add" else {}
    for name, fn in sorted(CASES.items()):
        if name not in digests:
            digests[name] = fn()
    LOCK_FILE.write_text(
        json.dumps(
            {
                "about": "sha256 digests of modelled kernel/runtime results; "
                "see tests/test_behaviour_lock.py",
                "digests": digests,
            },
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"recorded {len(digests)} digests to {LOCK_FILE}")
