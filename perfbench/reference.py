"""Independent answers the benchmark checks the simulator against.

BFS levels and SSSP distances come from ``scipy.sparse.csgraph``;
PageRank from a plain numpy power iteration of the same formulation
(teleport ``alpha / n``, dangling mass dropped, fixed iteration count).
None of it goes through the library's kernels.
"""

from __future__ import annotations

import hashlib

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

#: Relative tolerance for PageRank, whose sums may be reassociated.
PR_RTOL = 1e-9


def adjacency_csr(graph) -> sp.csr_matrix:
    """``A[src, dst] = weight`` of a :class:`repro.graphs.Graph`."""
    coo = graph.adjacency
    return sp.csr_matrix(
        (coo.vals, (coo.rows, coo.cols)), shape=(coo.n_rows, coo.n_cols)
    )


def bfs_levels(adj: sp.csr_matrix, source: int) -> np.ndarray:
    """Hop distance from ``source``; ``inf`` where unreachable."""
    return csgraph.shortest_path(
        adj, method="D", unweighted=True, indices=int(source)
    )


def sssp_distances(adj: sp.csr_matrix, source: int) -> np.ndarray:
    """Dijkstra distances from ``source``; ``inf`` where unreachable."""
    return csgraph.dijkstra(adj, indices=int(source))


def bfs_levels_frontier(adj: sp.csr_matrix, source: int) -> np.ndarray:
    """:func:`bfs_levels` level by level, one numpy step per frontier."""
    level = np.full(adj.shape[0], np.inf)
    level[source] = 0.0
    frontier, depth = np.array([source]), 0
    while frontier.size:
        depth += 1
        reached = np.unique(adj[frontier].indices)
        frontier = reached[np.isinf(level[reached])]
        level[frontier] = depth
    return level


def sssp_distances_frontier(adj: sp.csr_matrix, source: int) -> np.ndarray:
    """:func:`sssp_distances` by Bellman-Ford, one numpy step per
    frontier of improved vertices."""
    dist = np.full(adj.shape[0], np.inf)
    dist[source] = 0.0
    frontier = np.array([source])
    while frontier.size:
        rows = adj[frontier]
        relaxed = dist.copy()
        offered = np.repeat(dist[frontier], np.diff(rows.indptr)) + rows.data
        np.minimum.at(relaxed, rows.indices, offered)
        frontier = np.flatnonzero(relaxed < dist)
        dist = relaxed
    return dist


def pagerank_ranks(
    adj: sp.csr_matrix, iterations: int, alpha: float = 0.15
) -> np.ndarray:
    """``x <- alpha/n + (1-alpha) * A^T (x / outdeg)`` from ``x = 1/n``."""
    n = adj.shape[0]
    pattern = (adj != 0).astype(np.float64).tocsr()
    deg = np.asarray(pattern.sum(axis=1)).ravel()
    inv = np.divide(1.0, deg, out=np.zeros(n), where=deg > 0)
    pull = pattern.T.tocsr()
    x = np.full(n, 1.0 / n)
    for _ in range(iterations):
        x = alpha / n + (1.0 - alpha) * (pull @ (x * inv))
    return x


def matches(algorithm: str, got, want: np.ndarray) -> bool:
    """Whether ``got`` is the reference answer ``want``.

    Traversals are integer-valued (unit hops, integer weights) and
    must agree exactly, ``inf`` pattern included.
    """
    got = np.asarray(got, dtype=np.float64)
    if got.shape != want.shape:
        return False
    if algorithm == "pagerank":
        return bool(np.allclose(got, want, rtol=PR_RTOL, atol=0.0))
    return bool(np.array_equal(got, want))


def largest_scc(adj: sp.csr_matrix) -> np.ndarray:
    """Sorted vertices of the largest strongly connected component:
    every one reaches all the others, so traversals from any of them
    cross the dense middle of the frontier curve."""
    _, labels = csgraph.connected_components(
        adj, directed=True, connection="strong"
    )
    return np.flatnonzero(labels == np.bincount(labels).argmax())


def run_digest(run) -> str:
    """sha256 over one algorithm run's modelled results: total cycles,
    the per-iteration IP/OP + hardware-mode sequence, and the output
    values' bytes."""
    h = hashlib.sha256()
    h.update(repr(float(run.total_cycles)).encode())
    h.update("|".join(run.log.config_sequence()).encode())
    h.update(np.ascontiguousarray(run.values, dtype=np.float64).tobytes())
    return h.hexdigest()
