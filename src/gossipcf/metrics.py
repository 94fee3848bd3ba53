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
of the realized fraction of edges among a node's neighbors.  Both run on one
live graph per snapshot, whose adjacency is packed 64 nodes per uint64 word
and stored word-major, one column per node, so that gathering neighbors and
reducing over them streams contiguous words: an all-sources BFS ORs
neighbors' packed reachability columns until each column holds its node's
component (or every live node), which yields the distance sums and the
largest component at once, and a node's triangles are popcounts of its
column AND-ed with its neighbors' columns, each edge counted once for both
of its endpoints.  That keeps exact per-cycle computation cheap at the
thousand-peer scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

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
    mask = snapshot.alive & (np.diff(snapshot.indptr) > 0)
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
    count = len(hidden)
    hidden_arr[np.fromiter(hidden.keys(), np.int64, count)] = np.fromiter(
        hidden.values(), np.int64, count
    )
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


class LiveGraph(NamedTuple):
    """Symmetrized live subgraph, node i being the i-th live peer by id.

    ``indptr``/``indices`` list each node's neighbors in CSR order; ``bits``
    holds the same adjacency word-major, as a (ceil(m/64), m) uint64 array
    whose column i is node i's packed row: node j at bit j & 63 of word
    j >> 6, with a zero diagonal.
    """

    indptr: np.ndarray
    indices: np.ndarray
    bits: np.ndarray


def live_graph(snapshot: CycleSnapshot) -> LiveGraph:
    """The live graph of a snapshot; the structural metrics take it, so one
    snapshot builds it once.  An entry adds an edge only when its owner and
    its source are both live."""
    alive = snapshot.alive
    alive_idx = np.flatnonzero(alive)
    m = alive_idx.size
    compact = np.full(alive.shape[0], -1, dtype=np.int64)
    compact[alive_idx] = np.arange(m)
    owners = np.repeat(compact, np.diff(snapshot.indptr))
    targets = compact[snapshot.neighbors]
    live = (owners >= 0) & (targets >= 0)
    rows, cols = owners[live], targets[live]
    # One int64 key ``row * m + col`` per edge direction, sorted and
    # de-duplicated, is the CSR layout in row-major order.
    keys = np.concatenate((rows * m + cols, cols * m + rows))
    keys.sort()
    keys = keys[np.diff(keys, prepend=-1) != 0]
    dense = np.zeros((m, 64 * ((m + 63) // 64)), dtype=bool)
    dense[rows, cols] = dense[cols, rows] = True
    return LiveGraph(
        indptr=np.searchsorted(keys, np.arange(m + 1) * m),
        indices=keys % m,
        bits=np.ascontiguousarray(np.packbits(dense, axis=1, bitorder="little").view("<u8").T),
    )


def avg_path_length(graph: LiveGraph) -> tuple[float, float]:
    """Mean shortest-path length in the largest component, plus coverage.

    ``graph`` is a snapshot's :func:`live_graph`.  Coverage is the fraction
    of live peers inside that component (ties: the one holding the smallest
    id); a degenerate component of fewer than two nodes reports length 0.0.

    One level-synchronized BFS from all sources at once: column i of
    ``reach`` is the ball around node i, grown by OR-ing its neighbors'
    columns.  A column that stops growing holds i's whole component, and one
    that holds all m nodes can grow no further, so only the other columns of
    nodes with neighbors are expanded, and each column keeps its distance
    sum.
    """
    indptr, indices, bits = graph
    m = bits.shape[1]
    if m == 0:
        return 0.0, 0.0
    r = np.arange(m)
    reach = bits.copy()
    reach[r >> 6, r] |= np.uint64(1) << (r & 63).astype(np.uint64)
    degrees = np.diff(indptr)
    counts = degrees + 1
    sums = degrees.copy()
    owners = np.repeat(r, degrees)
    active = (degrees > 0) & (counts < m)
    depth = 1
    while active.any():
        depth += 1
        growing = np.flatnonzero(active)
        seg = degrees[growing]
        expanded = np.bitwise_or.reduceat(
            np.take(reach, indices[active[owners]], axis=1), np.cumsum(seg) - seg, axis=1
        )
        expanded |= reach[:, growing]
        grown = np.bitwise_count(expanded).sum(axis=0, dtype=np.int64)
        gained = grown - counts[growing]
        sums[growing] += depth * gained
        counts[growing] = grown
        reach[:, growing] = expanded
        active[growing] = (gained > 0) & (grown < m)
    seed = int(np.argmax(counts))
    size = int(counts[seed])
    coverage = size / m
    if size < 2:
        return 0.0, coverage
    column = np.ascontiguousarray(reach[:, seed])
    members = np.unpackbits(column.view(np.uint8), bitorder="little")[:m]
    total = int(sums[members.view(bool)].sum())
    return total / (size * (size - 1)), coverage


def clustering_coefficient(graph: LiveGraph) -> float:
    """Mean local clustering over nodes with at least two neighbors.

    ``graph`` is a snapshot's :func:`live_graph`.  Node i's triangles are
    half the sum, over its neighbors j, of popcount(bits[:, i] & bits[:, j]).
    That count is symmetric, so it is taken once per undirected edge
    (i < j) and credited to both endpoints.
    """
    indptr, indices, bits = graph
    degrees = np.diff(indptr)
    eligible = degrees >= 2
    if not eligible.any():
        raise NoEligiblePeers("no live peer has two or more neighbors")
    owners = np.repeat(np.arange(degrees.size), degrees)
    once = owners < indices
    i, j = owners[once], indices[once]
    shared = np.take(bits, i, axis=1) & np.take(bits, j, axis=1)
    common = np.bitwise_count(shared).sum(axis=0, dtype=np.int64)
    # integer counts, exact in float64
    triangles = (
        np.bincount(i, common, minlength=degrees.size)
        + np.bincount(j, common, minlength=degrees.size)
    ) / 2.0
    possible = degrees * (degrees - 1) / 2.0
    coeffs = triangles[eligible] / possible[eligible]
    # fsum gives the correctly rounded sum independent of accumulation order,
    # so results are bit-identical to an order-agnostic brute-force oracle.
    return float(math.fsum(coeffs) / coeffs.size)


def in_degree_stats(snapshot: CycleSnapshot) -> tuple[float, float]:
    """Mean and population variance of receptions over live peers."""
    samples = snapshot.receptions[snapshot.alive].astype(np.float64)
    if samples.size == 0:
        raise NoEligiblePeers("no live peers")
    return float(samples.mean()), float(samples.var())


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
