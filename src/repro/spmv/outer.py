"""The outer-product (OP) SpMV kernel, single-column and batched.

Section III-A of the paper: the matrix is stored in CSC; the frontier is a
sparse list of (index, value) pairs.  Rows are split across tiles in
equal-nnz partitions; within a tile the LCP hands each PE a contiguous
chunk of frontier non-zeros, and the PE merge-sorts the corresponding
matrix columns using a binary min-heap of column heads ("the sorted
list").  Merged elements flow to the LCP, which combines duplicates
across PEs and writes results back to main memory — a *serial* per-tile
stage that is the reason OP scales worse with PEs per tile than IP.

:func:`outer_product` and :func:`outer_product_batch` run one per-column
body over already-gathered matrix entries: the single call gathers the
frontier's columns directly, the batch gathers the union of its
columns' frontiers once and slices each column's entries out of it.

Two functional paths produce identical results:

* the **fast path** (default) gathers the touched columns with vectorised
  numpy and scatter-reduces — used for large inputs;
* the **exact path** (``exact=True`` or ``with_trace=True``, single-column
  only) runs the real per-PE heap merge element by element, which
  doubles as the address-trace generator for the PC/PS hardware
  comparison.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from ..analysis import sanitize
from ..errors import ConfigurationError, ShapeError, SimulationError
from ..formats import CSCMatrix, MultiVector, SparseVector
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
from ..hardware.spm import Scratchpad
from ..obs.tracer import traced
from ..perf import counters as _perf
from .heap import MergeHeap
from .inner import _check_batch_args
from .partition import equal_nnz_row_bounds, equal_rows_bounds
from .result import SpMVResult
from .semiring import Semiring

__all__ = ["outer_product", "outer_product_batch"]

#: Pipeline slots per merged element beyond heap compares and the combine.
_OPS_PER_ELEMENT = 4
#: Pipeline slots to open one column (indptr lookup, cursor setup).
_OPS_PER_COLUMN = 8
#: Invocation setup: frontier chunking and kernel launch.
_FIXED_OVERHEAD = 200.0
#: Words per heap slot (row index, cursor id) — matches MergeHeap.
_HEAP_SLOT_WORDS = 2
#: Address stride separating different PEs' private heaps (words).
_HEAP_PE_STRIDE = 1 << 22


def _check_mode(hw_mode: HWMode) -> None:
    if hw_mode not in (HWMode.PC, HWMode.PS, HWMode.SC):
        # The decision tree only ever pairs OP with the private modes,
        # but Fig. 9 also *prices* OP under the shared cache (its "OP /
        # SC" column), so the kernel accepts SC for evaluation.
        raise ConfigurationError(f"OP runs under PC, PS or SC, not {hw_mode}")


def _tile_bounds(matrix: CSCMatrix, tiles: int, balanced: bool) -> np.ndarray:
    """Row partitioning across tiles: equal-nnz (static balancing) or the
    naive equal-rows baseline (Fig. 7's "w/o partition" ablation)."""
    if balanced:
        row_counts = np.bincount(matrix.indices, minlength=matrix.n_rows)
        row_ptr = np.zeros(matrix.n_rows + 1, dtype=np.int64)
        np.cumsum(row_counts, out=row_ptr[1:])
        return equal_nnz_row_bounds(row_ptr, tiles)
    return equal_rows_bounds(matrix.n_rows, tiles)


def _tile_of(tile_bounds: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Owning tile of each row in ``rows``."""
    tiles = len(tile_bounds) - 1
    return np.clip(
        np.searchsorted(tile_bounds, rows, side="right") - 1, 0, tiles - 1
    )


@traced("kernel.outer_product", capture=("hw_mode", "profile_only"))
def outer_product(
    matrix: CSCMatrix,
    frontier: SparseVector,
    semiring: Semiring,
    geometry: Geometry,
    hw_mode: HWMode = HWMode.PC,
    params: HardwareParams = DEFAULT_PARAMS,
    current: Optional[np.ndarray] = None,
    exact: bool = False,
    with_trace: bool = False,
    balanced: bool = True,
    profile_only: bool = False,
) -> SpMVResult:
    """Run one OP SpMV over the frontier's non-zero columns.

    See module docstring; parameters mirror
    :func:`repro.spmv.inner.inner_product` except that the matrix is CSC
    and the frontier sparse.  ``hw_mode`` must be ``PC`` or ``PS``.

    ``profile_only=True`` skips the functional scatter/merge and returns
    a result with ``values is None`` — unless the exact path is forced
    (``exact``/``with_trace``), whose element-by-element merge *is* the
    trace generator; its functional output then comes along for free and
    the result reports ``executed``.
    """
    _check_mode(hw_mode)
    if not isinstance(frontier, SparseVector):
        raise ShapeError("outer_product expects a SparseVector frontier")
    if frontier.n != matrix.n_cols:
        raise ShapeError(
            f"frontier length {frontier.n} incompatible with matrix {matrix.shape}"
        )
    if semiring.value_words != 1:
        raise ConfigurationError(
            f"the OP kernel handles scalar semirings; {semiring.name} uses "
            "vector values and always runs dense (IP) in the paper"
        )
    tile_bounds = _tile_bounds(matrix, geometry.tiles, balanced)
    rows_g, vals_g, col_of = matrix.gather_columns(frontier.indices)
    return _op_column(
        matrix, frontier, semiring, geometry, hw_mode, params, current,
        tile_bounds, rows_g, vals_g, col_of, _tile_of(tile_bounds, rows_g),
        exact or with_trace, with_trace, profile_only, "outer_product",
    )


@traced("kernel.outer_product_batch", capture=("hw_mode", "columns", "profile_only"))
def outer_product_batch(
    matrix: CSCMatrix,
    frontiers: MultiVector,
    semiring: Semiring,
    geometry: Geometry,
    hw_mode: HWMode = HWMode.PC,
    params: HardwareParams = DEFAULT_PARAMS,
    currents: Optional[Sequence[Optional[np.ndarray]]] = None,
    balanced: bool = True,
    columns: Optional[Sequence[int]] = None,
    profile_only: bool = False,
) -> List[SpMVResult]:
    """Batched OP SpMV: one result per selected column, in ``columns`` order.

    Parameters mirror :func:`outer_product`, with the sparse frontier
    replaced by a :class:`MultiVector` (whose ``absent`` must match the
    semiring's).  The union of the selected columns' active sets is
    gathered from the CSC matrix once, and every column's entry stream is
    sliced out of that union gather in exactly the order the
    single-column ``gather_columns`` would produce, then run through the
    same body as :func:`outer_product`.  The exact heap-merge path (and
    with it trace generation) is single-column only.
    """
    _check_mode(hw_mode)
    columns, currents = _check_batch_args(
        frontiers, matrix.n_cols, semiring, columns, currents
    )
    tile_bounds = _tile_bounds(matrix, geometry.tiles, balanced)

    # Union gather: each matrix column touched by *any* batch column is
    # read once; per-column streams are segment slices of this gather.
    sparse_cols = [frontiers.column_sparse(j) for j in columns]
    if sparse_cols:
        union = np.unique(np.concatenate([sv.indices for sv in sparse_cols]))
    else:
        union = np.zeros(0, dtype=np.int64)
    rows_u, vals_u, col_of_u = matrix.gather_columns(union)
    tile_of_u = _tile_of(tile_bounds, rows_u)
    lens_u = matrix.column_lengths(union) if len(union) else np.zeros(0, dtype=np.int64)
    starts_u = np.zeros(len(union) + 1, dtype=np.int64)
    np.cumsum(lens_u, out=starts_u[1:])

    results: List[SpMVResult] = []
    _perf.kernel_batched_columns += len(columns)
    for j, sv, current in zip(columns, sparse_cols, currents):
        # Slice this column's entries out of the union gather.  Both the
        # union and the column's index list are sorted, so concatenating
        # the per-column segments in index order reproduces the
        # single-column gather_columns(sv.indices) stream exactly.
        pos_u = np.searchsorted(union, sv.indices)
        lens = lens_u[pos_u]
        total = int(lens.sum())
        if total:
            offsets = np.repeat(starts_u[pos_u], lens)
            within = np.arange(total) - np.repeat(np.cumsum(lens) - lens, lens)
            sel = offsets + within
        else:
            sel = np.zeros(0, dtype=np.int64)
        results.append(
            _op_column(
                matrix, sv, semiring, geometry, hw_mode, params, current,
                tile_bounds, rows_u[sel], vals_u[sel], col_of_u[sel],
                tile_of_u[sel], False, False, profile_only,
                f"outer_product_batch[{j}]",
            )
        )
    return results


def _op_column(
    matrix: CSCMatrix,
    frontier: SparseVector,
    semiring: Semiring,
    geometry: Geometry,
    hw_mode: HWMode,
    params: HardwareParams,
    current: Optional[np.ndarray],
    tile_bounds: np.ndarray,
    rows_g: np.ndarray,
    vals_g: np.ndarray,
    col_of: np.ndarray,
    tile_of: np.ndarray,
    exact: bool,
    with_trace: bool,
    profile_only: bool,
    label: str,
) -> SpMVResult:
    """One sparse column through the OP kernel, given its gathered matrix
    entries (``rows_g``/``vals_g``/``col_of``, in ``gather_columns``
    order) and their owning tiles."""
    T, P = geometry.tiles, geometry.pes_per_tile
    # Dynamic chunking of frontier non-zeros across PEs (by the LCP).
    chunks = frontier.chunk(P)
    chunk_starts = np.concatenate(
        [[0], np.cumsum([len(c[0]) for c in chunks])]
    ).astype(np.int64)
    pos_of = np.searchsorted(frontier.indices, col_of)

    # ------------------------------------------------------------------
    # Functional result
    # ------------------------------------------------------------------
    if profile_only and not exact:
        _perf.kernel_profile_only += 1
        out = None
        touched = None
        traces, merge_stats = None, None
    else:
        _perf.kernel_executions += 1
        v_src = frontier.values[pos_of]
        out = semiring.init_output(matrix.n_rows, current)
        v_dst = None
        if semiring.needs_dst:
            if current is None:
                raise ShapeError(f"semiring {semiring.name} needs current dst values")
            v_dst = np.asarray(current, dtype=np.float64)[rows_g]
        contrib = semiring.combine(vals_g, v_src, v_dst, col_of, rows_g)
        if exact:
            exact_out, traces, merge_stats = _exact_merge(
                matrix,
                frontier,
                semiring,
                chunks,
                tile_bounds,
                current,
                with_trace,
                T,
                P,
            )
            fast = semiring.init_output(matrix.n_rows, current)
            semiring.scatter(fast, rows_g, contrib)
            if not np.allclose(exact_out, fast, equal_nan=True):
                # A real error, not an `assert`: the cross-check must
                # survive `python -O` (assert statements are stripped).
                raise SimulationError(
                    "exact heap merge disagrees with the vectorised OP path"
                )
            out = exact_out
        else:
            semiring.scatter(out, rows_g, contrib)
            traces, merge_stats = None, None
        touched = np.zeros(matrix.n_rows, dtype=bool)
        touched[rows_g] = True
        prev = (
            np.asarray(current, dtype=np.float64)
            if current is not None
            else semiring.init_output(matrix.n_rows, None)
        )
        out = semiring.apply_vector_op(out, prev)

    # ------------------------------------------------------------------
    # Per-(tile, PE) work statistics, vectorised over all touched entries
    # ------------------------------------------------------------------
    elems, heads, pe_out, tile_out, cols_pe = _op_stats(
        matrix, rows_g, col_of, pos_of, tile_of, chunk_starts, chunks, T, P
    )
    _san = sanitize.active()
    _san.check_histogram(f"{label}/elements", elems, len(rows_g))
    _san.check_histogram(f"{label}/frontier", cols_pe, frontier.nnz)

    profile = _build_op_profile(
        matrix,
        frontier,
        semiring,
        geometry,
        hw_mode,
        params,
        elems,
        heads,
        pe_out,
        tile_out,
        cols_pe,
        len(rows_g),
        merge_stats,
        traces,
        exact,
    )
    return SpMVResult(values=out, touched=touched, profile=profile, semiring=semiring)


def _op_stats(
    matrix: CSCMatrix,
    rows_g: np.ndarray,
    col_of: np.ndarray,
    pos_of: np.ndarray,
    tile_of: np.ndarray,
    chunk_starts: np.ndarray,
    chunks,
    T: int,
    P: int,
):
    """Per-(tile, PE) merge workload counts."""
    pe_of = np.clip(
        np.searchsorted(chunk_starts, pos_of, side="right") - 1, 0, P - 1
    )
    cell_of = tile_of * P + pe_of
    elems = np.bincount(cell_of, minlength=T * P).astype(np.int64)
    # Non-empty columns per (tile, pe): distinct (cell, column) pairs.
    cell_col = cell_of * matrix.n_cols + col_of
    uniq_cc = np.unique(cell_col)
    heads = np.bincount(
        (uniq_cc // matrix.n_cols).astype(np.int64), minlength=T * P
    ).astype(np.int64)
    # LCP inputs: distinct (cell, row); LCP outputs: distinct (tile, row).
    cell_row = cell_of * matrix.n_rows + rows_g
    uniq_cr = np.unique(cell_row)
    pe_out = np.bincount(
        (uniq_cr // matrix.n_rows).astype(np.int64), minlength=T * P
    ).astype(np.int64)
    tile_row = tile_of * matrix.n_rows + rows_g
    tile_out = np.bincount(
        (np.unique(tile_row) // matrix.n_rows).astype(np.int64), minlength=T
    ).astype(np.int64)
    cols_pe = np.array([len(c[0]) for c in chunks], dtype=np.int64)
    return elems, heads, pe_out, tile_out, cols_pe


def _build_op_profile(
    matrix: CSCMatrix,
    frontier: SparseVector,
    semiring: Semiring,
    geometry: Geometry,
    hw_mode: HWMode,
    params: HardwareParams,
    elems: np.ndarray,
    heads: np.ndarray,
    pe_out: np.ndarray,
    tile_out: np.ndarray,
    cols_pe: np.ndarray,
    touched_entries: int,
    merge_stats=None,
    traces=None,
    exact: bool = False,
) -> KernelProfile:
    """Assemble the OP :class:`KernelProfile` from per-cell counts."""
    T, P = geometry.tiles, geometry.pes_per_tile
    spm_words = hw_mode.spm_words(geometry, params)
    tiles: List[TileProfile] = []
    for t in range(T):
        pes = []
        for p in range(P):
            k = t * P + p
            n_el = int(elems[k])
            n_heads = int(heads[k])
            n_cols = int(cols_pe[p])
            heap_words = _HEAP_SLOT_WORDS * max(n_heads, 1)
            depth = math.log2(n_heads + 1) if n_heads else 0.0
            if merge_stats is not None:
                heap_accesses = merge_stats["heap_accesses"][k]
                compares = merge_stats["compares"][k]
            else:
                # replace_top reads the root, writes the new head, and
                # sifts down ~depth levels at ~10 slot-words per level;
                # building the heap costs one push per head.
                heap_accesses = n_el * (4 + 7.5 * depth) + n_heads * (
                    4 + 2.0 * depth
                )
                compares = n_el * 2.2 * depth + n_heads * depth
            streams = [
                AccessStream(
                    Region.FRONTIER,
                    count=2 * n_cols,
                    pattern=Pattern.SEQUENTIAL,
                    footprint=2 * n_cols,
                ),
                AccessStream(
                    Region.COLPTR,
                    count=2 * n_cols,
                    pattern=Pattern.RANDOM,
                    footprint=matrix.n_cols + 1,
                ),
                AccessStream(
                    Region.MATRIX,
                    count=2 * n_el,
                    pattern=Pattern.DEPENDENT,
                    footprint=2 * n_el,
                ),
            ]
            streams.extend(
                _heap_streams(
                    heap_accesses,
                    heap_words,
                    spm_words,
                    hw_mode,
                    geometry.l1_pe_words(params),
                )
            )
            pe = PEProfile(
                compute_ops=(
                    n_el * (_OPS_PER_ELEMENT + semiring.combine_flops)
                    + compares
                    + n_cols * _OPS_PER_COLUMN
                ),
                streams=streams,
            )
            if traces is not None:
                pe.trace = traces[k]
            pes.append(pe)
        tiles.append(
            TileProfile(
                pes=pes,
                lcp_serial_elements=float(pe_out[t * P : (t + 1) * P].sum()),
                lcp_output_words=2.0 * float(tile_out[t]),
                lcp_compute_ops=2.0 * float(cols_pe.sum()) / T,
            )
        )

    return KernelProfile(
        algorithm="op",
        mode=hw_mode,
        tiles=tiles,
        fixed_overhead_cycles=_FIXED_OVERHEAD,
        meta={
            "touched_columns": int(frontier.nnz),
            "touched_entries": int(touched_entries),
            "frontier_density": frontier.density,
            "exact": bool(exact),
        },
    )


def _heap_streams(
    heap_accesses: float,
    heap_words: int,
    spm_words: int,
    hw_mode: HWMode,
    l1_pe_words: int,
) -> List[AccessStream]:
    """Heap traffic, split by residency of the binary tree's top levels.

    A sift walks the tree root-down, so accesses concentrate on the top
    levels.  Under PS those levels are pinned in the scratchpad; when the
    heap outgrows it, "the tree nature of heap ensures that the majority
    of comparisons and swaps still happen in the SPM" (Section III-A).
    Under PC the same locality means the top levels tend to stay resident
    in the PE's private L1 bank while only the deep levels thrash — but
    PC "has no control over the cache replacement policies", so even the
    hot levels contend with the column stream.  The level-resident
    fraction comes from
    :meth:`repro.hardware.spm.Scratchpad.heap_spm_access_fraction`.
    """
    if hw_mode is HWMode.PS and spm_words > 0:
        f = Scratchpad.heap_spm_access_fraction(heap_words, spm_words)
        streams = []
        if f > 0:
            streams.append(
                AccessStream(
                    Region.HEAP,
                    count=heap_accesses * f,
                    pattern=Pattern.DEPENDENT,
                    footprint=min(heap_words, spm_words),
                    in_spm=True,
                )
            )
        if f < 1:
            streams.append(
                AccessStream(
                    Region.HEAP,
                    count=heap_accesses * (1 - f),
                    pattern=Pattern.DEPENDENT,
                    footprint=max(heap_words - spm_words, 0),
                )
            )
        return streams
    # PC: split hot (top-level, bank-sized) and cold (deep-level) shares.
    f = Scratchpad.heap_spm_access_fraction(heap_words, l1_pe_words)
    streams = [
        AccessStream(
            Region.HEAP,
            count=heap_accesses * f,
            pattern=Pattern.DEPENDENT,
            footprint=min(heap_words, l1_pe_words),
        )
    ]
    if f < 1:
        streams.append(
            AccessStream(
                Region.HEAP,
                count=heap_accesses * (1 - f),
                pattern=Pattern.DEPENDENT,
                footprint=max(heap_words - l1_pe_words, 0),
            )
        )
    return streams


def _exact_merge(
    matrix: CSCMatrix,
    frontier: SparseVector,
    semiring: Semiring,
    chunks,
    tile_bounds: np.ndarray,
    current: Optional[np.ndarray],
    with_trace: bool,
    T: int,
    P: int,
):
    """Element-by-element heap merge, per (tile, PE) — the real schedule.

    Returns the reduced output array, optional per-PE traces, and
    measured heap statistics keyed by PE cell index.
    """
    out = semiring.init_output(matrix.n_rows, current)
    cur = np.asarray(current, dtype=np.float64) if current is not None else None
    traces: List[Optional[PETrace]] = [None] * (T * P)
    heap_acc = np.zeros(T * P)
    compares = np.zeros(T * P)

    for t in range(T):
        lo, hi = int(tile_bounds[t]), int(tile_bounds[t + 1])
        for p, (cidx, cval) in enumerate(chunks):
            k = t * P + p
            sink: Optional[list] = [] if with_trace else None
            heap = MergeHeap(
                sink=(lambda off, wr: sink.append((int(Region.HEAP), off, wr)))
                if with_trace
                else None
            )
            cursors = []  # [next_pos, end_pos, v_src]
            for ci, (j, vj) in enumerate(zip(cidx.tolist(), cval.tolist())):
                if with_trace:
                    base = 2 * (int(np.searchsorted(frontier.indices, j)))
                    sink.append((int(Region.FRONTIER), base, False))
                    sink.append((int(Region.FRONTIER), base + 1, False))
                    sink.append((int(Region.COLPTR), j, False))
                    sink.append((int(Region.COLPTR), j + 1, False))
                c0, c1 = int(matrix.indptr[j]), int(matrix.indptr[j + 1])
                # restrict to this tile's row slice
                s = c0 + int(np.searchsorted(matrix.indices[c0:c1], lo))
                e = c0 + int(np.searchsorted(matrix.indices[c0:c1], hi))
                if s >= e:
                    continue
                if with_trace:
                    sink.append((int(Region.MATRIX), 2 * s, False))
                    sink.append((int(Region.MATRIX), 2 * s + 1, False))
                cursors.append([s + 1, e, vj, j])
                heap.push(int(matrix.indices[s]), len(cursors) - 1)

            # merge loop: pop smallest, emit, advance its column cursor
            last_row, acc = -1, 0.0
            merged = []  # (row, reduced value) in sorted order
            while len(heap):
                row, cid = heap.peek()
                pos, end, vj, j = cursors[cid]
                a = float(matrix.vals[pos - 1])
                dst_val = (
                    np.array([cur[row]]) if semiring.needs_dst else None
                )
                c = float(
                    semiring.combine(
                        np.array([a]),
                        np.array([vj]),
                        dst_val,
                        np.array([j]),
                        np.array([row]),
                    )[0]
                )
                if row == last_row:
                    acc = float(semiring.reduce_op(acc, c))
                else:
                    if last_row >= 0:
                        merged.append((last_row, acc))
                    last_row, acc = row, c
                if pos < end:
                    if with_trace:
                        sink.append((int(Region.MATRIX), 2 * pos, False))
                        sink.append((int(Region.MATRIX), 2 * pos + 1, False))
                    cursors[cid][0] = pos + 1
                    heap.replace_top(int(matrix.indices[pos]), cid)
                else:
                    heap.pop()
            if last_row >= 0:
                merged.append((last_row, acc))

            # LCP stage: reduce this PE's sorted stream into the output.
            for row, val in merged:
                out[row] = semiring.reduce_op(out[row], val)
            heap_acc[k] = heap.accesses
            compares[k] = heap.compares
            if with_trace:
                if sink:
                    regs, offs, wrs = zip(*sink)
                    regs = np.asarray(regs, dtype=np.int8)
                    offs = np.asarray(offs, dtype=np.int64)
                    wrs = np.asarray(wrs, dtype=bool)
                    # relocate the PE-private heap out of other PEs' way
                    heap_sel = regs == int(Region.HEAP)
                    offs = offs.copy()
                    offs[heap_sel] += k * _HEAP_PE_STRIDE
                else:
                    regs = np.zeros(0, dtype=np.int8)
                    offs = np.zeros(0, dtype=np.int64)
                    wrs = np.zeros(0, dtype=bool)
                traces[k] = PETrace(regs, offs, wrs)

    stats = {"heap_accesses": heap_acc, "compares": compares}
    return out, (traces if with_trace else None), stats
