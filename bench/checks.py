"""Correctness checks, computed apart from the library.

The checks read the ratings file themselves, redo the all-but-1 split from
the documented seed scheme (``SeedSequence(master, spawn_key=(trial, 0))``,
one uniform pick per user over the sorted item ids), and compare the
workload's outputs with plain-Python or NetworkX recomputations, or test
properties the method must have.  Each check raises ``CheckFailed``, except
the one that finds a known fault of the program, which raises ``KnownFault``:
the benchmark counts that simulation as a failed operation.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Any, Callable

import networkx as nx
import numpy as np

TOL = 1e-9  # float64 sums of at most a few thousand terms in [0, 1]
CENTRAL_TOL = 1e-12  # one cosine and one weight per value
SAMPLE_TOP_N = 50
SAMPLE_CENTRAL = 20
TRACE_MARGIN = 0.01  # share of traced wall time left to the benchmark's glue


class CheckFailed(Exception):
    """A workload output disagrees with its recomputation or a required property."""


class KnownFault(Exception):
    """A fault of the program, documented in CHANGES.md, that fails a simulation."""


def read_ratings(path: str) -> list[dict[int, int]]:
    """Rating dicts per peer (users in ascending id order) from a u.data file."""
    by_user: dict[int, dict[int, int]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            user, item, rating = line.split("\t")[:3]
            by_user.setdefault(int(user), {})[int(item)] = int(rating)
    return [by_user[user] for user in sorted(by_user)]


class Split:
    """Training dicts and hidden items of one trial, plus derived similarity."""

    def __init__(self, ratings: list[dict[int, int]], master_seed: int, trial: int):
        seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(trial, 0))
        rng = np.random.Generator(np.random.PCG64(seq))
        self.training: list[dict[int, int]] = []
        self.hidden: list[int] = []
        for row in ratings:
            items = sorted(row)
            pick = items[int(rng.integers(len(items)))]
            self.hidden.append(pick)
            self.training.append({item: r for item, r in row.items() if item != pick})
        self._cosine: np.ndarray | None = None
        self._top_m_mean: np.ndarray | None = None

    def cosine(self) -> np.ndarray:
        """Plain cosine between training rows, clipped to [0, 1]."""
        if self._cosine is None:
            items = sorted({item for row in self.training for item in row})
            col = {item: c for c, item in enumerate(items)}
            values = np.zeros((len(self.training), len(items)))
            for v, row in enumerate(self.training):
                for item, r in row.items():
                    values[v, col[item]] = r
            unit = values / np.linalg.norm(values, axis=1)[:, None]
            self._cosine = np.clip(unit @ unit.T, 0.0, 1.0)
        return self._cosine

    def top_m_mean(self, k: int) -> np.ndarray:
        """``[v, m - 1]``: v's mean cosine to its m most similar other peers."""
        if self._top_m_mean is None:
            others = self.cosine().copy()
            np.fill_diagonal(others, -np.inf)
            top = -np.sort(-others, axis=1)[:, :k]
            self._top_m_mean = np.cumsum(top, axis=1) / np.arange(1, k + 1)
        return self._top_m_mean


def _sample(candidates: np.ndarray, size: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if candidates.size <= size:
        return candidates
    return np.sort(rng.choice(candidates, size=size, replace=False))


def check_top_n(trial: dict[str, Any], split: Split) -> None:
    """Final-cycle top-N of sampled peers equals a Counter vote of their sources.

    A peer ranks right after its own exchange, so only peers that no later
    initiator picked (zero receptions in the final cycle) still hold the
    sources they ranked from when the snapshot is taken.
    """
    final = trial["final"]
    eligible = np.flatnonzero(final["alive"] & (final["receptions"] == 0))
    if eligible.size == 0:
        raise CheckFailed("top-N: no live peer without receptions to sample")
    for v in _sample(eligible, SAMPLE_TOP_N, trial["seed"]):
        votes: Counter[int] = Counter()
        for w in final["neighbor_ids"][v]:
            votes.update(split.training[w].keys())
        own = split.training[v]
        ranked = sorted(
            ((item, n) for item, n in votes.items() if item not in own),
            key=lambda pair: (-pair[1], pair[0]),
        )[: trial["top_n"]]
        expected_items = [item for item, _ in ranked]
        expected_votes = [n for _, n in ranked]
        pad = trial["top_n"] - len(ranked)
        got_items = final["rec_items"][v].tolist()
        got_votes = final["rec_votes"][v].tolist()
        if got_items != expected_items + [-1] * pad or got_votes != expected_votes + [0] * pad:
            raise CheckFailed(
                f"top-N: peer {v} got {list(zip(got_items, got_votes))}, "
                f"Counter vote gives {ranked}"
            )


def check_hit_rate(trial: dict[str, Any], split: Split) -> None:
    """Final hit rates, both accountings, recomputed from the hidden items."""
    final, row = trial["final"], trial["rows"][-1]
    n = len(split.hidden)
    hits = sum(
        1 for v in range(n) if final["alive"][v] and split.hidden[v] in final["rec_items"][v]
    )
    remaining = n - int(final["left"].sum())
    expected = (hits / n, hits / remaining if remaining else 0.0)
    got = (row["hit_rate"], row["hit_rate_voluntary"])
    if any(abs(a - b) > TOL for a, b in zip(got, expected)):
        raise CheckFailed(f"hit rate: reported {got}, recomputed {expected}")


def _live_graph(final: dict[str, Any]) -> nx.Graph:
    alive = final["alive"]
    graph = nx.Graph()
    graph.add_nodes_from(int(v) for v in np.flatnonzero(alive))
    for v in np.flatnonzero(alive):
        for w in final["neighbor_ids"][v]:
            if alive[w] and w != v:
                graph.add_edge(int(v), int(w))
    return graph


def check_structure(trial: dict[str, Any], split: Split) -> None:
    """Path length, coverage and clustering of the final snapshot via NetworkX.

    Same definitions as the library: the symmetrized graph of live peers;
    path length over the largest component (ties to the one holding the
    smallest id); clustering averaged over nodes of degree two or more.
    """
    if not trial["structural"]:
        return
    graph = _live_graph(trial["final"])
    components = list(nx.connected_components(graph))
    largest = max(len(c) for c in components)
    component = min((c for c in components if len(c) == largest), key=min)
    if len(component) < 2:
        path_length = 0.0
    else:
        # A copy, not a view: BFS over a subgraph view filters every adjacency.
        path_length = nx.average_shortest_path_length(graph.subgraph(component).copy())
    coverage = len(component) / graph.number_of_nodes()
    local = nx.clustering(graph)
    eligible = [local[v] for v in graph if graph.degree(v) >= 2]
    clustering = math.fsum(eligible) / len(eligible)
    row = trial["rows"][-1]
    got = (row["avg_path_length"], row["path_coverage"], row["clustering_coefficient"])
    expected = (path_length, coverage, clustering)
    if any(abs(a - b) > TOL for a, b in zip(got, expected)):
        raise CheckFailed(f"structure: reported {got}, NetworkX gives {expected}")


def _flat(snap: dict[str, Any]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cache sizes, and (owner, source) of every cache entry, in peer order."""
    counts = np.array([ids.size for ids in snap["neighbor_ids"]], dtype=np.int64)
    owners = np.repeat(np.arange(counts.size), counts)
    sources = np.concatenate(snap["neighbor_ids"]).astype(np.int64)
    return counts, owners, sources


def check_cache_laws(trial: dict[str, Any], split: Split) -> None:
    """Every checked snapshot: caches within capacity, of distinct sources,
    and no peer is recommended an item it rated in training."""
    k = trial["k"]
    for snap in trial["snapshots"]:
        cycle = snap["cycle"]
        for v in np.flatnonzero(snap["alive"]):
            ids = snap["neighbor_ids"][v]
            if ids.size > k or np.unique(ids).size != ids.size:
                raise CheckFailed(f"cache: cycle {cycle}, peer {v} holds {ids.tolist()}")
            own = split.training[v]
            consumed = [int(i) for i in snap["rec_items"][v] if i >= 0 and int(i) in own]
            if consumed:
                raise CheckFailed(f"cache: cycle {cycle}, peer {v} was recommended {consumed}")


def check_self_entries(trial: dict[str, Any], split: Split) -> None:
    """No live peer holds its own entry (it would add a self-similarity of 1.0)."""
    for snap in trial["snapshots"]:
        _, owners, sources = _flat(snap)
        holders = np.unique(owners[(owners == sources) & snap["alive"][owners]])
        if holders.size:
            raise KnownFault(
                f"self entries: at cycle {snap['cycle']}, {holders.size} live peers hold "
                f"themselves (first {holders[0]}), and their cache mean counts 1.0 for it"
            )


def check_similarity(trial: dict[str, Any], split: Split) -> None:
    """Every checked snapshot: per-peer cache similarity recomputed, its mean
    over live peers equal to the row's ``avg_similarity``, and, for each peer
    that does not hold itself, at most the global top-m mean."""
    cosine, top_m_mean = split.cosine(), split.top_m_mean(trial["k"])
    rows = {row["cycle"]: row for row in trial["rows"]}
    for snap in trial["snapshots"]:
        cycle = snap["cycle"]
        counts, owners, sources = _flat(snap)
        sums = np.bincount(owners, weights=cosine[owners, sources], minlength=counts.size)
        holds_self = np.bincount(owners, weights=owners == sources, minlength=counts.size) > 0
        live = np.flatnonzero(snap["alive"] & (counts > 0))
        reported = snap["cache_sim_mean"][live]
        recomputed = sums[live] / counts[live]
        off = np.flatnonzero(np.abs(reported - recomputed) > TOL)
        if off.size:
            v = live[off[0]]
            raise CheckFailed(
                f"similarity: cycle {cycle}, peer {v} reported {reported[off[0]]}, "
                f"recomputed {recomputed[off[0]]}"
            )
        bound = top_m_mean[live, np.minimum(counts[live], trial["k"]) - 1]
        over = np.flatnonzero((reported > bound + TOL) & ~holds_self[live])
        if over.size:
            v = live[over[0]]
            raise CheckFailed(
                f"similarity: cycle {cycle}, peer {v} cache mean {reported[over[0]]} exceeds "
                f"the global top-{counts[v]} mean {bound[over[0]]}"
            )
        avg = rows[cycle]["avg_similarity"]
        if abs(avg - float(np.mean(recomputed))) > TOL:
            raise CheckFailed(
                f"similarity: cycle {cycle} reported mean {avg}, recomputed {np.mean(recomputed)}"
            )


def check_in_degree(trial: dict[str, Any], split: Split) -> None:
    """Every live peer initiates once per churn-free cycle: mean in-degree is 1.0."""
    churn_at = trial["churn"][2] if trial["churn"] else trial["cycles"] + 1
    for row in trial["rows"][1:churn_at]:
        if row["in_degree_mean"] != 1.0:
            raise CheckFailed(
                f"in-degree: cycle {row['cycle']} mean {row['in_degree_mean']!r}, expected 1.0"
            )


def check_similarity_rises(trial: dict[str, Any], split: Split) -> None:
    """Similarity-driven selection ends above the random bootstrap overlay."""
    if trial["protocol"] != "swarmix":
        return
    first, last = trial["rows"][0]["avg_similarity"], trial["rows"][-1]["avg_similarity"]
    if not last > first:
        raise CheckFailed(f"similarity rise: final {last} not above cycle-0 {first}")


def check_churn_count(trial: dict[str, Any], split: Split) -> None:
    """A loss of pct% silences exactly floor(pct * n / 100) peers."""
    if trial["churn"] is None:
        return
    mode, pct, _ = trial["churn"]
    n = trial["n"]
    expected = math.floor(pct * n / 100)
    final = trial["final"]
    silenced = int((~final["alive"]).sum())
    left = int(final["left"].sum())
    if silenced != expected or left != (expected if mode == "leavings" else 0):
        raise CheckFailed(
            f"churn: {pct}% of {n} silenced {silenced} (left {left}), expected {expected}"
        )


def check_failures_vs_voluntary(trial: dict[str, Any], split: Split) -> None:
    """Counting silenced peers as misses can only lower the hit rate."""
    row = trial["rows"][-1]
    if row["hit_rate"] > row["hit_rate_voluntary"]:
        raise CheckFailed(
            f"accounting: failures {row['hit_rate']} above voluntary {row['hit_rate_voluntary']}"
        )


def _weighted_cosine(
    a: dict[int, int], b: dict[int, int], norm_a: float, norm_b: float, threshold: int
) -> float:
    if len(a) > len(b):
        a, b = b, a
    dot = overlap = 0
    for item, r in a.items():
        s = b.get(item)
        if s is not None:
            dot += r * s
            overlap += 1
    if dot == 0:
        return 0.0
    return min(dot / (norm_a * norm_b), 1.0) * min(overlap, threshold) / threshold


def check_centralized(trial: dict[str, Any], split: Split) -> None:
    """Centralized neighbourhoods hold the top-k significance-weighted cosines.

    Compared by value, not by id: near-equal similarities may order either way.
    """
    chosen, k, training = trial["neighborhoods"], trial["k"], split.training
    n = len(training)
    norms = [math.sqrt(sum(r * r for r in row.values())) for row in training]
    for v in _sample(np.arange(n), SAMPLE_CENTRAL, trial["seed"] + 1):
        ids = [int(w) for w in chosen[v]]
        if len(set(ids)) != len(ids) or v in ids or len(ids) != min(k, n - 1):
            raise CheckFailed(f"centralized: peer {v} neighbourhood {ids} is malformed")
        sims = [
            _weighted_cosine(training[v], training[w], norms[v], norms[w], trial["threshold"])
            for w in range(n)
        ]
        best = sorted((s for w, s in enumerate(sims) if w != v), reverse=True)[: len(ids)]
        got = sorted((sims[w] for w in ids), reverse=True)
        worst = max(abs(a - b) for a, b in zip(got, best))
        if worst > CENTRAL_TOL:
            raise CheckFailed(f"centralized: peer {v} neighbourhood is off the top-k by {worst}")


TRIAL_CHECKS: tuple[Callable[[dict[str, Any], Split], None], ...] = (
    check_top_n,
    check_hit_rate,
    check_structure,
    check_cache_laws,
    check_self_entries,
    check_similarity,
    check_in_degree,
    check_similarity_rises,
    check_churn_count,
    check_failures_vs_voluntary,
    check_centralized,
)


def check_churn_rows(churn_rows: list[dict[str, Any]]) -> None:
    """Per loss level, the failures mean is at most the voluntary mean."""
    by_pct: dict[float, dict[str, float]] = {}
    for row in churn_rows:
        by_pct.setdefault(row["pct"], {})[row["mode"]] = row["hit_rate_mean"]
    for pct, modes in by_pct.items():
        if modes["failures"] > modes["leavings"]:
            raise CheckFailed(f"churn rows: at {pct}% failures mean {modes} above leavings")


def check_rounds_identical(digests: list[str]) -> None:
    """Every round repeats the same calls, so it must emit the same rows."""
    if len(set(digests)) != 1:
        raise CheckFailed(f"determinism: rounds emitted different rows {digests}")


def check_trace_accounting(wall_s: float, accounted_s: float) -> None:
    """Layer self times must cover the traced wall time up to the glue margin."""
    if not 0.0 <= wall_s - accounted_s <= TRACE_MARGIN * wall_s:
        raise CheckFailed(
            f"trace: layers account for {accounted_s:.4f} s of {wall_s:.4f} s traced wall"
        )


def run_checks(payload: dict[str, Any], ratings: list[dict[int, int]]) -> dict[int, str]:
    """Every check that applies to one worker payload.

    Raises ``CheckFailed`` on the first failed check.  Returns the known
    fault of each simulation that one failed, by its index in
    ``payload["trials"]``; every other check still has to pass on it.
    """
    splits: dict[tuple[int, int], Split] = {}
    faults: dict[int, str] = {}
    for index, trial in enumerate(payload["trials"]):
        key = (trial["seed"], trial["trial"])
        if key not in splits:
            splits[key] = Split(ratings, *key)
        for check in TRIAL_CHECKS:
            try:
                check(trial, splits[key])
            except KnownFault as exc:
                faults[index] = f"{trial['protocol']} trial {trial['trial']}: {exc}"
    if payload["churn_rows"] is not None:
        check_churn_rows(payload["churn_rows"])
    check_rounds_identical(payload["digests"])
    for wall, accounted in zip(payload["round_s"], payload["accounted_s"]):
        check_trace_accounting(wall, accounted)
    return faults
