"""Topology and recommendation-quality metrics over cycle snapshots.

Similarity statistics aggregate each live peer's mean similarity to its cache
members.  Hit rate checks whether a peer's held-out item appears in its
recommendation list, with two accountings for disturbed runs: failures keep
every original peer in the denominator (silenced peers score zero), voluntary
leavings restrict the denominator to peers that did not leave.

Path length and clustering follow the usual small-world definitions on the
symmetrized subgraph induced by live peers: mean shortest-path length over
all ordered pairs inside the largest connected component (with the covered
fraction reported alongside), and the mean over nodes of degree at least two
of the realized fraction of edges among a node's neighbors.  All-pairs BFS
runs bit-parallel on packed uint64 reachability rows, which keeps exact
per-cycle computation cheap at the thousand-peer scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .engine import CycleSnapshot


class NoEligiblePeers(Exception):
    """No peer qualifies for the requested statistic."""


@dataclass(frozen=True)
class CycleMetrics:
    """One row of the evaluation time series.

    Structural fields are None when a run skips topology analysis (e.g.
    churn sweeps, which only consume hit rates).
    """

    cycle: int
    avg_similarity: float
    similarity_variance: float
    hit_rate: float
    hit_rate_voluntary: float
    in_degree_mean: float
    in_degree_variance: float
    avg_path_length: float | None = None
    path_coverage: float | None = None
    clustering_coefficient: float | None = None


def _eligible_similarities(snapshot: CycleSnapshot) -> np.ndarray:
    counts = np.array([len(ids) for ids in snapshot.neighbor_ids], dtype=np.int64)
    mask = snapshot.alive & (counts > 0)
    if not mask.any():
        raise NoEligiblePeers("no live peer has a non-empty neighborhood")
    return snapshot.cache_sim_mean[mask]


def avg_similarity(snapshot: CycleSnapshot) -> float:
    """Mean over live peers of their mean similarity to cache members."""
    return float(_eligible_similarities(snapshot).mean())


def similarity_variance(snapshot: CycleSnapshot) -> float:
    """Population variance of the per-peer mean similarities."""
    return float(_eligible_similarities(snapshot).var())


def hit_rate(
    snapshot: CycleSnapshot,
    hidden: Mapping[int, int],
    mode: str = "failures",
) -> float:
    """Fraction of peers whose hidden item made their recommendation list.

    ``failures`` divides by every original peer (a silenced peer cannot
    receive its list, so it scores zero); ``voluntary`` divides by the peers
    that did not leave.
    """
    n = snapshot.rec_items.shape[0]
    hidden_arr = np.full(n, -2, dtype=np.int64)
    for peer, item in hidden.items():
        hidden_arr[peer] = item
    hits = (snapshot.rec_items == hidden_arr[:, None]).any(axis=1)
    hits &= snapshot.alive
    if mode == "failures":
        return float(hits.sum() / n)
    if mode == "voluntary":
        remaining = int((~snapshot.left).sum())
        if remaining == 0:
            return 0.0
        return float(hits.sum() / remaining)
    raise ValueError(f"unknown hit-rate mode: {mode!r}")


def live_graph(snapshot: CycleSnapshot) -> sp.csr_matrix:
    """Symmetrized 0/1 adjacency over live peers, in ascending peer id order.

    Node i of the graph is the i-th live peer; the structural metrics take
    this graph, so one snapshot builds it once.
    """
    alive = snapshot.alive
    alive_idx = np.flatnonzero(alive)
    m = alive_idx.size
    compact = np.full(alive.shape[0], -1, dtype=np.int64)
    compact[alive_idx] = np.arange(m)
    lists = [snapshot.neighbor_ids[v] for v in alive_idx]
    counts = np.fromiter(map(len, lists), dtype=np.int64, count=m)
    targets = np.concatenate(lists) if m else np.zeros(0, dtype=np.int64)
    live = alive[targets]
    r = np.repeat(np.arange(m), counts)[live]
    c = compact[targets[live]]
    if r.size == 0:
        return sp.csr_matrix((m, m), dtype=np.int32)
    a = sp.coo_matrix((np.ones(r.size, dtype=np.int32), (r, c)), shape=(m, m))
    a = a.tocsr()
    a = ((a + a.T) > 0).astype(np.int32)
    a.setdiag(0)
    a.eliminate_zeros()
    return a.tocsr()


def _largest_component(adj: sp.csr_matrix) -> np.ndarray:
    """Nodes of the largest connected component (ties: smallest member id)."""
    _, labels = csgraph.connected_components(adj, directed=False)
    sizes = np.bincount(labels)
    best = sizes.max()
    for node in range(labels.size):
        if sizes[labels[node]] == best:
            return np.flatnonzero(labels == labels[node])
    raise AssertionError("unreachable: graph has at least one node")


def _apsp_sums(adj: sp.csr_matrix) -> tuple[int, int]:
    """Sum of shortest-path lengths and count over ordered reachable pairs.

    Level-synchronized BFS from all sources at once, with reachability sets
    packed 64 nodes per uint64 word.  Exact for unweighted graphs; expects a
    connected graph with no isolated nodes.
    """
    m = adj.shape[0]
    words = (m + 63) // 64
    indptr, indices = adj.indptr, adj.indices
    reach = np.zeros((m, words), dtype=np.uint64)
    r = np.arange(m)
    reach[r, r >> 6] |= np.uint64(1) << (r & 63).astype(np.uint64)
    prev_counts = np.ones(m, dtype=np.int64)
    total = 0
    pairs = 0
    depth = 0
    while True:
        depth += 1
        expanded = np.bitwise_or.reduceat(reach[indices], indptr[:-1])
        expanded |= reach
        counts = np.bitwise_count(expanded).sum(axis=1, dtype=np.int64)
        gained = int((counts - prev_counts).sum())
        if gained == 0:
            return total, pairs
        total += depth * gained
        pairs += gained
        reach = expanded
        prev_counts = counts


def avg_path_length(adj: sp.csr_matrix) -> tuple[float, float]:
    """Mean shortest-path length in the largest component, plus coverage.

    ``adj`` is a snapshot's :func:`live_graph`.  Coverage is the fraction of
    live peers inside that component; a degenerate component of fewer than
    two nodes reports length 0.0.
    """
    if adj.shape[0] == 0:
        return 0.0, 0.0
    component = _largest_component(adj)
    coverage = component.size / adj.shape[0]
    if component.size < 2:
        return 0.0, float(coverage)
    sub = adj[component][:, component].tocsr()
    total, pairs = _apsp_sums(sub)
    return float(total / pairs), float(coverage)


def clustering_coefficient(adj: sp.csr_matrix) -> float:
    """Mean local clustering over nodes with at least two neighbors.

    ``adj`` is a snapshot's :func:`live_graph`.
    """
    degrees = np.asarray(adj.sum(axis=1)).ravel()
    eligible = degrees >= 2
    if not eligible.any():
        raise NoEligiblePeers("no live peer has two or more neighbors")
    triangles = np.asarray((adj @ adj).multiply(adj).sum(axis=1)).ravel() / 2.0
    possible = degrees * (degrees - 1) / 2.0
    coeffs = triangles[eligible] / possible[eligible]
    # fsum gives the correctly rounded sum independent of accumulation order,
    # so results are bit-identical to an order-agnostic brute-force oracle.
    return float(math.fsum(coeffs) / coeffs.size)


def in_degree_stats(snapshots: Iterable[CycleSnapshot] | CycleSnapshot) -> tuple[float, float]:
    """Mean and population variance of per-peer receptions per cycle.

    Accepts a single snapshot or a window; only live peers at each cycle
    contribute samples.
    """
    if isinstance(snapshots, CycleSnapshot):
        snapshots = [snapshots]
    samples = [snap.receptions[snap.alive] for snap in snapshots]
    if not samples:
        raise NoEligiblePeers("empty snapshot window")
    merged = np.concatenate(samples).astype(np.float64)
    if merged.size == 0:
        raise NoEligiblePeers("no live peers in window")
    return float(merged.mean()), float(merged.var())


def compute_cycle_metrics(
    snapshot: CycleSnapshot,
    hidden: Mapping[int, int],
    structural: bool = True,
) -> CycleMetrics:
    """Assemble the full metrics row for one snapshot."""
    in_mean, in_var = in_degree_stats(snapshot)
    if structural:
        graph = live_graph(snapshot)
        apl, coverage = avg_path_length(graph)
        clustering = clustering_coefficient(graph)
    else:
        apl = coverage = clustering = None
    return CycleMetrics(
        cycle=snapshot.cycle,
        avg_similarity=avg_similarity(snapshot),
        similarity_variance=similarity_variance(snapshot),
        hit_rate=hit_rate(snapshot, hidden, "failures"),
        hit_rate_voluntary=hit_rate(snapshot, hidden, "voluntary"),
        in_degree_mean=in_mean,
        in_degree_variance=in_var,
        avg_path_length=apl,
        path_coverage=coverage,
        clustering_coefficient=clustering,
    )
