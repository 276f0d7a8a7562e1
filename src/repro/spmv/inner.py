"""The inner-product (IP) SpMV kernel, single-column and batched.

Section III-A/III-B of the paper: the matrix is streamed in row-major COO
order, split into equal-nnz row partitions (one per PE) and vertical
blocks (vblocks) sized to the scratchpad; the dense frontier is gathered
randomly per non-zero.  Under ``SCS`` the current vblock's vector segment
is pinned in the tile's shared SPM; under ``SC`` it is fetched through the
shared L1 caches.  Each tile owns disjoint output rows, so no
synchronisation is needed.

Everything that does not depend on the frontier — the partition, the
vblock layout, each entry's owning PE and its (row, vblock) output key —
lives in an :class:`IPStructure`, built once per (matrix, geometry,
balancing, vblock width) and reused across calls and batch columns.
:func:`inner_product` and :func:`inner_product_batch` both run one
per-column body over it, which produces (a) the exact functional result
of the semiring SpMV, computed with vectorised numpy over the very same
partition structure, and (b) the per-PE hardware profile — and, on
request, an exact interleaved address trace for the trace-replay engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..analysis import sanitize
from ..errors import ConfigurationError, ShapeError
from ..formats import COOMatrix, DenseVector, MultiVector
from ..hardware import (
    AccessStream,
    Geometry,
    HWMode,
    KernelProfile,
    PEProfile,
    PETrace,
    Pattern,
    Region,
    TileProfile,
)
from ..hardware.params import DEFAULT_PARAMS, HardwareParams
from ..obs.tracer import traced
from ..perf import counters as _perf
from .partition import IPPartition, build_ip_partitions, vblock_width
from .result import SpMVResult
from .semiring import Semiring

__all__ = [
    "IPStructure",
    "inner_product",
    "inner_product_batch",
    "ip_vblock_width",
]

#: In-order pipeline slots per streamed COO entry (loop control, three
#: loads issued, activity test) beyond the semiring's own flops.
_OPS_PER_ENTRY = 6
#: Invocation setup: partition table lookup and kernel launch.
_FIXED_OVERHEAD = 150.0
#: Per-vblock tile synchronisation cycles.
_VBLOCK_SYNC = 12.0


def ip_vblock_width(
    geometry: Geometry,
    params: HardwareParams,
    value_words: int,
    override: Optional[int] = None,
) -> int:
    """Columns per vertical block for one geometry and value size.

    Both modes use the SPM-sized vertical blocking: "the vertical
    partition is not required for the SC mode but can still be
    beneficial because of the improved spatial and temporal locality of
    vector accesses" (Section III-B).  Keeping the width identical
    isolates the SCS-vs-SC contrast to where the vector segment lives:
    pinned in the scratchpad, or exposed to eviction in the shared L1.

    ``override`` narrows the width below the SPM-fit maximum (a tuning
    plan trading more per-vblock synchronisation for tighter vector
    locality); it can never widen past what the scratchpad holds.
    """
    width = vblock_width(HWMode.SCS.spm_words(geometry, params), value_words)
    if override is not None:
        if override <= 0:
            raise ConfigurationError(
                f"vblock width override must be positive, got {override}"
            )
        width = min(width, int(override))
    return width


@dataclass(frozen=True, eq=False)
class IPStructure:
    """The frontier-independent half of an IP invocation.

    Built once per (matrix, geometry, ``balanced``, resolved vblock
    width) and shared by every call and batch column that uses it.
    ``keys`` holds each entry's (row, vblock) output key;
    ``keys_sorted`` records whether that stream is non-decreasing (true
    for a lexsorted COO), which lets the per-column distinct count use
    a linear scan instead of ``np.unique``.
    """

    partition: IPPartition
    width: int
    n_vblocks: int
    #: Row boundaries of every PE, flattened tile-major, plus ``n_rows``.
    flat_bounds: np.ndarray
    #: Owning PE of each stored entry.
    part_of: np.ndarray
    #: Stored entries per PE.
    nnz_pe: np.ndarray
    keys: np.ndarray
    keys_sorted: bool

    @classmethod
    def build(
        cls,
        matrix: COOMatrix,
        geometry: Geometry,
        width: int,
        balanced: bool = True,
    ) -> "IPStructure":
        rows, cols, _vals = matrix.to_arrays()
        partition = build_ip_partitions(
            matrix.row_extents(),
            geometry.tiles,
            geometry.pes_per_tile,
            balanced=balanced,
        )
        n_vblocks = max(1, -(-matrix.n_cols // width))
        flat_bounds = np.concatenate(
            [b[:-1] for b in partition.pe_bounds] + [[matrix.n_rows]]
        ).astype(np.int64)
        part_of = _owner(flat_bounds, rows, geometry)
        keys = rows * np.int64(n_vblocks) + cols // width
        return cls(
            partition=partition,
            width=width,
            n_vblocks=n_vblocks,
            flat_bounds=flat_bounds,
            part_of=part_of,
            nnz_pe=np.bincount(part_of, minlength=geometry.n_pes).astype(
                np.int64
            ),
            keys=keys,
            # COOMatrix lexsorts by (row, col), which makes the key
            # stream non-decreasing; a matrix built with sort=False may
            # not be, so verify rather than assume.
            keys_sorted=bool(np.all(keys[1:] >= keys[:-1])),
        )


def _owner(flat_bounds: np.ndarray, rows: np.ndarray, geometry) -> np.ndarray:
    """Owning-PE index of each row in ``rows``."""
    return np.clip(
        np.searchsorted(flat_bounds, rows, side="right") - 1,
        0,
        geometry.n_pes - 1,
    )


def _structure_for(
    structure: Optional[IPStructure],
    matrix: COOMatrix,
    geometry: Geometry,
    params: HardwareParams,
    value_words: int,
    balanced: bool,
    override: Optional[int],
) -> IPStructure:
    """The caller's cached structure, checked against this call, or a
    freshly built one."""
    width = ip_vblock_width(geometry, params, value_words, override)
    if structure is None:
        return IPStructure.build(matrix, geometry, width, balanced)
    if (
        structure.width != width
        or len(structure.nnz_pe) != geometry.n_pes
        or len(structure.part_of) != matrix.nnz
    ):
        raise ConfigurationError(
            f"IP structure (width {structure.width}, "
            f"{len(structure.nnz_pe)} PEs, {len(structure.part_of)} entries) "
            f"does not fit this call (width {width}, {geometry.n_pes} PEs, "
            f"{matrix.nnz} entries)"
        )
    return structure


def _check_mode(hw_mode: HWMode) -> None:
    if hw_mode not in (HWMode.SC, HWMode.SCS):
        raise ConfigurationError(f"IP runs under SC or SCS, not {hw_mode}")


def _check_batch_args(frontiers, matrix_cols: int, semiring: Semiring, columns, currents):
    """Validation shared by both batched kernels; returns the resolved
    (columns, currents) lists."""
    if not isinstance(frontiers, MultiVector):
        raise ShapeError("batched kernels expect a MultiVector frontier batch")
    if frontiers.n != matrix_cols:
        raise ShapeError(
            f"frontier length {frontiers.n} incompatible with a "
            f"{matrix_cols}-column matrix"
        )
    if semiring.value_words != 1:
        raise ConfigurationError(
            "the batched kernels handle scalar semirings; vector-valued "
            f"semirings like {semiring.name} already batch internally"
        )
    if frontiers.absent != semiring.absent:
        raise ConfigurationError(
            f"MultiVector absent={frontiers.absent} does not match "
            f"semiring {semiring.name} absent={semiring.absent}"
        )
    if columns is None:
        columns = list(range(frontiers.k))
    else:
        columns = [int(j) for j in columns]
        for j in columns:
            if not 0 <= j < frontiers.k:
                raise ShapeError(f"batch column {j} outside [0, {frontiers.k})")
    if currents is None:
        currents = [None] * len(columns)
    else:
        currents = list(currents)
        if len(currents) != len(columns):
            raise ShapeError(
                f"{len(currents)} current vectors for {len(columns)} columns"
            )
    return columns, currents


def _distinct_sorted(keys: np.ndarray) -> np.ndarray:
    """Distinct values of a *non-decreasing* key array (== np.unique)."""
    if len(keys) == 0:
        return keys
    mask = np.empty(len(keys), dtype=bool)
    mask[0] = True
    np.not_equal(keys[1:], keys[:-1], out=mask[1:])
    return keys[mask]


@traced("kernel.inner_product", capture=("hw_mode", "profile_only"))
def inner_product(
    matrix: COOMatrix,
    vector,
    semiring: Semiring,
    geometry: Geometry,
    hw_mode: HWMode = HWMode.SC,
    params: HardwareParams = DEFAULT_PARAMS,
    current: Optional[np.ndarray] = None,
    structure: Optional[IPStructure] = None,
    balanced: bool = True,
    with_trace: bool = False,
    profile_only: bool = False,
    vblock_width: Optional[int] = None,
) -> SpMVResult:
    """Run one IP SpMV: ``out = reduce(combine(A[i,j], v[j]))`` over rows.

    Parameters
    ----------
    matrix:
        Adjacency matrix in row-major COO (already transposed if the
        caller wants ``SpMV(G.T, f)`` semantics).
    vector:
        Dense frontier — a numpy array, a
        :class:`~repro.formats.dense.DenseVector`, or a 2-D ``(n, K)``
        array for vector-valued semirings (CF).  Inactive entries hold
        ``semiring.absent``.
    semiring:
        The Matrix_Op/Vector_Op pair to execute.
    geometry, hw_mode, params:
        Hardware context; ``hw_mode`` must be ``SC`` or ``SCS``.
    current:
        Current vertex values (required for carry/``needs_dst``
        semirings and as Vector_Op's second operand).
    structure:
        Pre-built :class:`IPStructure` (reused across iterations, as the
        paper's preprocessing reuses its static partition); built on the
        fly when omitted.  It must match this call's geometry and
        resolved vblock width.
    balanced:
        Equal-nnz partitioning (True) or the naive equal-rows baseline
        (False) — the Fig. 7 ablation.
    with_trace:
        Attach exact per-PE address traces (scalar semirings only).
    profile_only:
        Build only the hardware profile (counts, streams and — with
        ``with_trace`` — traces are all structural) and skip the
        functional semiring computation; the returned result has
        ``values is None``.  Used by the runtime's pricing probes.
    vblock_width:
        Override the SPM-derived vertical-block width (a tuning plan's
        blocking choice).  Clamped to the SPM-fit width so SCS pinning
        stays feasible; affects only the modelled profile, never the
        functional values.
    """
    _check_mode(hw_mode)
    if isinstance(vector, DenseVector):
        vector = vector.data
    v = np.asarray(vector, dtype=np.float64)
    if v.shape[0] != matrix.n_cols:
        raise ShapeError(
            f"vector length {v.shape[0]} incompatible with matrix {matrix.shape}"
        )
    vw = semiring.value_words
    if (vw == 1) != (v.ndim == 1):
        raise ShapeError(
            f"semiring {semiring.name} expects value_words={vw}, "
            f"got vector of shape {v.shape}"
        )
    if with_trace and vw != 1:
        raise ConfigurationError("trace generation supports scalar semirings only")
    structure = _structure_for(
        structure, matrix, geometry, params, vw, balanced, vblock_width
    )
    return _ip_column(
        matrix, v, semiring, geometry, hw_mode, current, structure,
        balanced, profile_only, with_trace, "inner_product",
    )


@traced("kernel.inner_product_batch", capture=("hw_mode", "columns", "profile_only"))
def inner_product_batch(
    matrix: COOMatrix,
    frontiers: MultiVector,
    semiring: Semiring,
    geometry: Geometry,
    hw_mode: HWMode = HWMode.SC,
    params: HardwareParams = DEFAULT_PARAMS,
    currents: Optional[Sequence[Optional[np.ndarray]]] = None,
    structure: Optional[IPStructure] = None,
    balanced: bool = True,
    columns: Optional[Sequence[int]] = None,
    profile_only: bool = False,
    vblock_width: Optional[int] = None,
) -> List[SpMVResult]:
    """Batched IP SpMV: one result per selected column, in ``columns`` order.

    Parameters mirror :func:`inner_product`, with the dense vector
    replaced by a :class:`MultiVector` (whose ``absent`` must match the
    semiring's) plus optional per-column ``currents`` and a ``columns``
    selection.  Every column runs the same body as :func:`inner_product`
    over one shared :class:`IPStructure`, so each result is bit-identical
    to the single-column call.  Address-trace generation is
    single-column only.
    """
    _check_mode(hw_mode)
    columns, currents = _check_batch_args(
        frontiers, matrix.n_cols, semiring, columns, currents
    )
    structure = _structure_for(
        structure, matrix, geometry, params, 1, balanced, vblock_width
    )
    _perf.kernel_batched_columns += len(columns)
    return [
        _ip_column(
            matrix, frontiers.column_dense(j), semiring, geometry, hw_mode,
            current, structure, balanced, profile_only, False,
            f"inner_product_batch[{j}]",
        )
        for j, current in zip(columns, currents)
    ]


def _ip_column(
    matrix: COOMatrix,
    v: np.ndarray,
    semiring: Semiring,
    geometry: Geometry,
    hw_mode: HWMode,
    current: Optional[np.ndarray],
    structure: IPStructure,
    balanced: bool,
    profile_only: bool,
    with_trace: bool,
    label: str,
) -> SpMVResult:
    """One dense column through the IP kernel: functional result (unless
    ``profile_only``) and hardware profile."""
    rows, cols, vals = matrix.to_arrays()
    # ------------------------------------------------------------------
    # Functional result (vectorised; identical to the per-PE schedule
    # because row partitions are disjoint and the reduce is commutative).
    # The activity mask is needed by the profile either way; everything
    # downstream of it is skipped on profile-only pricing probes.
    # ------------------------------------------------------------------
    if v.ndim == 1:
        active = v[cols] != semiring.absent
    else:
        active = np.ones(len(cols), dtype=bool)
    if profile_only:
        _perf.kernel_profile_only += 1
        out = None
        touched = None
    else:
        _perf.kernel_executions += 1
        a_rows, a_cols, a_vals = rows[active], cols[active], vals[active]
        out = semiring.init_output(matrix.n_rows, current)
        v_dst = None
        if semiring.needs_dst:
            if current is None:
                raise ShapeError(f"semiring {semiring.name} needs current dst values")
            v_dst = np.asarray(current, dtype=np.float64)[a_rows]
        contrib = semiring.combine(a_vals, v[a_cols], v_dst, a_cols, a_rows)
        semiring.scatter(out, a_rows, contrib)
        touched = np.zeros(matrix.n_rows, dtype=bool)
        touched[a_rows] = True
        prev = (
            np.asarray(current, dtype=np.float64)
            if current is not None
            else semiring.init_output(matrix.n_rows, None)
        )
        out = semiring.apply_vector_op(out, prev)

    # ------------------------------------------------------------------
    # Hardware profile
    # ------------------------------------------------------------------
    s = structure
    n_active = int(active.sum())
    act_pe = np.bincount(s.part_of[active], minlength=geometry.n_pes).astype(
        np.int64
    )
    _san = sanitize.active()
    _san.check_histogram(f"{label}/nnz", s.nnz_pe, matrix.nnz)
    _san.check_histogram(f"{label}/active", act_pe, n_active)
    # Output first-touches: the row-major stream accumulates consecutive
    # same-row contributions in registers, so only distinct (row, vblock)
    # pairs are exposed to the memory system.
    out_key = s.keys[active]
    uniq_out = _distinct_sorted(out_key) if s.keys_sorted else np.unique(out_key)
    out_pe = np.bincount(
        _owner(s.flat_bounds, uniq_out // s.n_vblocks, geometry),
        minlength=geometry.n_pes,
    ).astype(np.int64)

    trace_builder = (
        (lambda k: _build_ip_trace(s.part_of, k, rows, cols, active, s.width))
        if with_trace
        else None
    )
    profile = _build_ip_profile(
        matrix,
        semiring,
        geometry,
        hw_mode,
        s,
        balanced,
        act_pe,
        out_pe,
        n_active,
        trace_builder,
    )
    return SpMVResult(values=out, touched=touched, profile=profile, semiring=semiring)


def _build_ip_profile(
    matrix: COOMatrix,
    semiring: Semiring,
    geometry: Geometry,
    hw_mode: HWMode,
    structure: IPStructure,
    balanced: bool,
    act_pe: np.ndarray,
    out_pe: np.ndarray,
    active_entries: int,
    trace_builder=None,
) -> KernelProfile:
    """Assemble the IP :class:`KernelProfile` from per-PE counts."""
    vw = semiring.value_words
    width, n_vblocks = structure.width, structure.n_vblocks
    T, P = geometry.tiles, geometry.pes_per_tile
    tiles = []
    for t in range(T):
        pes = []
        for p in range(P):
            k = t * P + p
            n_k, a_k = int(structure.nnz_pe[k]), int(act_pe[k])
            lo, hi = structure.partition.pe_row_range(t, p)
            streams = [
                AccessStream(
                    Region.MATRIX,
                    count=3 * n_k,
                    pattern=Pattern.SEQUENTIAL,
                    footprint=3 * n_k,
                ),
                AccessStream(
                    Region.VECTOR_IN,
                    count=n_k * vw,
                    pattern=Pattern.RANDOM,
                    footprint=min(width, matrix.n_cols) * vw,
                    in_spm=hw_mode is HWMode.SCS,
                    shared_footprint=True,
                    # a multi-word vertex value is one gather: the first
                    # word's fill covers the rest of the row
                    distinct_touches=float(n_k),
                    fill_granule=vw if vw > 1 else 0,
                ),
                AccessStream(
                    Region.VECTOR_OUT,
                    count=2 * a_k * vw,
                    pattern=Pattern.RANDOM,
                    footprint=max(hi - lo, 1) * vw,
                    writes=a_k * vw,
                    # one exposed load per (row, vblock) first touch;
                    # a multi-word row is covered by its first fill
                    distinct_touches=float(out_pe[k]),
                    fill_granule=vw,
                ),
            ]
            pe = PEProfile(
                compute_ops=n_k * _OPS_PER_ENTRY + a_k * semiring.combine_flops,
                streams=streams,
            )
            if trace_builder is not None:
                pe.trace = trace_builder(k)
            pes.append(pe)
        fill = float(matrix.n_cols * vw) if hw_mode is HWMode.SCS else 0.0
        tiles.append(
            TileProfile(
                pes=pes,
                lcp_compute_ops=n_vblocks * _VBLOCK_SYNC,
                spm_fill_words=fill,
            )
        )

    return KernelProfile(
        algorithm="ip",
        mode=hw_mode,
        tiles=tiles,
        fixed_overhead_cycles=_FIXED_OVERHEAD + n_vblocks * _VBLOCK_SYNC,
        meta={
            "n_vblocks": n_vblocks,
            "vblock_width": width,
            "balanced": balanced,
            "active_entries": active_entries,
        },
    )


def _build_ip_trace(
    part_of: np.ndarray,
    k: int,
    rows: np.ndarray,
    cols: np.ndarray,
    active: np.ndarray,
    width: int,
) -> PETrace:
    """Exact access trace of PE ``k``: per entry, 3 matrix words, one
    vector gather, and (when the source is active) an output
    read-modify-write pair — in vblock-major schedule order."""
    sel = np.nonzero(part_of == k)[0]
    if len(sel) == 0:
        e = np.zeros(0, dtype=np.int64)
        return PETrace(e.astype(np.int8), e, e.astype(bool))
    order = sel[np.argsort(cols[sel] // width, kind="stable")]
    n = len(order)
    act = active[order]
    per_entry = 4 + 2 * act.astype(np.int64)
    starts = np.concatenate([[0], np.cumsum(per_entry)[:-1]])
    total = int(per_entry.sum())
    regions = np.empty(total, dtype=np.int8)
    addrs = np.empty(total, dtype=np.int64)
    writes = np.zeros(total, dtype=bool)
    # The stored partition is pre-blocked to match the schedule (the
    # paper's preprocessing), so the matrix stream is strictly
    # sequential within this PE's contiguous row-partition range.
    seq = int(sel[0]) + np.arange(n, dtype=np.int64)
    for off in range(3):  # matrix words (row, col, val)
        regions[starts + off] = int(Region.MATRIX)
        addrs[starts + off] = 3 * seq + off
    regions[starts + 3] = int(Region.VECTOR_IN)
    addrs[starts + 3] = cols[order]
    a_starts = starts[act]
    regions[a_starts + 4] = int(Region.VECTOR_OUT)
    addrs[a_starts + 4] = rows[order][act]
    regions[a_starts + 5] = int(Region.VECTOR_OUT)
    addrs[a_starts + 5] = rows[order][act]
    writes[a_starts + 5] = True
    return PETrace(regions, addrs, writes)
