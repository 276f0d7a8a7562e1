"""CoSPARSE's SpMV kernels and their supporting machinery.

Two algorithms implement the same semiring SpMV abstraction, one module
each:

* :mod:`~repro.spmv.inner` — dense-frontier IP, row-major COO streaming,
  equal-nnz row partitions, vblocks (runs under SC/SCS);
* :mod:`~repro.spmv.outer` — sparse-frontier OP, CSC column heap-merge
  with LCP write-back (runs under PC/PS).

Each module has one per-column kernel body.  ``inner_product`` /
``outer_product`` run it on a single frontier; ``inner_product_batch`` /
``outer_product_batch`` run it on every column of a
:class:`~repro.formats.multivector.MultiVector`, sharing the structural
work (the cached :class:`~repro.spmv.inner.IPStructure`, the OP union
gather) so each column is bit-identical to the single-column call.  All
four return :class:`~repro.spmv.result.SpMVResult` objects carrying the
functional output *and* the hardware profile the decision layer prices.
"""

from .heap import MergeHeap
from .inner import IPStructure, inner_product, inner_product_batch, ip_vblock_width
from .outer import outer_product, outer_product_batch
from .partition import (
    IPPartition,
    build_ip_partitions,
    commvol_row_bounds,
    cut_columns,
    equal_nnz_row_bounds,
    equal_rows_bounds,
    nnz_per_partition,
    vblock_width,
)
from .reference import reference_spmv, scipy_spmv
from .result import SpMVResult
from .semiring import (
    Semiring,
    bfs_semiring,
    cf_semiring,
    pagerank_semiring,
    spmv_semiring,
    sssp_semiring,
)

__all__ = [
    "MergeHeap",
    "IPStructure",
    "inner_product",
    "inner_product_batch",
    "outer_product",
    "outer_product_batch",
    "ip_vblock_width",
    "IPPartition",
    "build_ip_partitions",
    "commvol_row_bounds",
    "cut_columns",
    "equal_nnz_row_bounds",
    "equal_rows_bounds",
    "nnz_per_partition",
    "vblock_width",
    "reference_spmv",
    "scipy_spmv",
    "SpMVResult",
    "Semiring",
    "bfs_semiring",
    "cf_semiring",
    "pagerank_semiring",
    "spmv_semiring",
    "sssp_semiring",
]
