"""Metric definitions against hand-computed values and exhaustive small-graph
oracles."""

import itertools
import random

import numpy as np
import pytest

from gossipcf.engine import CycleSnapshot
from gossipcf.metrics import (
    NoEligiblePeers,
    avg_path_length,
    avg_similarity,
    clustering_coefficient,
    compute_cycle_metrics,
    hit_rate,
    in_degree_stats,
    live_graph,
    similarity_variance,
)


def make_snapshot(
    neighbor_lists,
    sims=None,
    rec_items=None,
    alive=None,
    left=None,
    receptions=None,
    skipped=0,
    cycle=1,
    top_n=3,
):
    n = len(neighbor_lists)
    if sims is None:
        sims = [float("nan") if not ids else 0.5 for ids in neighbor_lists]
    if rec_items is None:
        rec_items = np.full((n, top_n), -1, dtype=np.int64)
    return CycleSnapshot(
        cycle=cycle,
        indptr=np.cumsum([0, *map(len, neighbor_lists)], dtype=np.int64),
        neighbors=np.array([w for ids in neighbor_lists for w in ids], dtype=np.int64),
        cache_sim_mean=np.asarray(sims, dtype=np.float64),
        rec_items=np.asarray(rec_items, dtype=np.int64),
        rec_votes=np.zeros((n, top_n), dtype=np.int32),
        alive=np.ones(n, dtype=bool) if alive is None else np.asarray(alive, dtype=bool),
        left=np.zeros(n, dtype=bool) if left is None else np.asarray(left, dtype=bool),
        receptions=np.zeros(n, dtype=np.int32) if receptions is None else np.asarray(receptions, dtype=np.int32),
        skipped=skipped,
    )


# --- similarity statistics ---------------------------------------------------

def test_avg_similarity_degenerate_identical():
    snap = make_snapshot([[1], [0]], sims=[1.0, 1.0])
    assert avg_similarity(snap) == 1.0
    assert similarity_variance(snap) == 0.0


def test_avg_similarity_hand_computed_variance():
    snap = make_snapshot([[1], [0]], sims=[0.2, 0.6])
    assert avg_similarity(snap) == pytest.approx(0.4)
    assert similarity_variance(snap) == pytest.approx(0.04)


def test_avg_similarity_excludes_empty_and_dead():
    snap = make_snapshot(
        [[1], [], [0]], sims=[0.4, float("nan"), 0.8], alive=[True, True, False]
    )
    assert avg_similarity(snap) == pytest.approx(0.4)


def test_avg_similarity_no_eligible_raises():
    snap = make_snapshot([[], []])
    with pytest.raises(NoEligiblePeers):
        avg_similarity(snap)


# --- hit rate ----------------------------------------------------------------

def test_hit_rate_all_hits_and_none():
    rec = np.array([[10, 11], [12, 13]])
    snap = make_snapshot([[1], [0]], rec_items=rec, top_n=2)
    assert hit_rate(snap, {0: 10, 1: 12}) == 1.0
    assert hit_rate(snap, {0: 99, 1: 98}) == 0.0


def test_hit_rate_failures_vs_voluntary_worked_example():
    # 4 peers, 1 failed, hits among alive = {1, 1, 0}
    rec = np.array([[10], [20], [99], [-1]])
    snap = make_snapshot(
        [[1], [0], [0], [0]],
        rec_items=rec,
        alive=[True, True, True, False],
        left=[False, False, False, True],
        top_n=1,
    )
    hidden = {0: 10, 1: 20, 2: 30, 3: 40}
    assert hit_rate(snap, hidden, "failures") == pytest.approx(2 / 4)
    assert hit_rate(snap, hidden, "voluntary") == pytest.approx(2 / 3)


def test_hit_rate_dead_peer_never_hits():
    rec = np.array([[10], [20]])
    snap = make_snapshot([[1], [0]], rec_items=rec, alive=[True, False], top_n=1)
    assert hit_rate(snap, {0: 10, 1: 20}, "failures") == pytest.approx(0.5)


def test_hit_rate_voluntary_at_least_failures():
    rnd = random.Random(1)
    for _ in range(100):
        n = rnd.randint(2, 8)
        rec = np.array([[rnd.randint(5, 9)] for _ in range(n)])
        left = [rnd.random() < 0.4 for _ in range(n)]
        alive = [not l for l in left]
        snap = make_snapshot(
            [[(v + 1) % n] for v in range(n)],
            rec_items=rec,
            alive=alive,
            left=left,
            top_n=1,
        )
        hidden = {v: rnd.randint(5, 9) for v in range(n)}
        assert hit_rate(snap, hidden, "voluntary") >= hit_rate(snap, hidden, "failures") - 1e-12


# --- graph metrics against exhaustive oracles --------------------------------

def oracle_path_length(neighbor_lists, alive):
    """Floyd-Warshall over the symmetrized live subgraph, largest component."""
    nodes = [v for v in range(len(neighbor_lists)) if alive[v]]
    edges = set()
    for v in nodes:
        for u in neighbor_lists[v]:
            if alive[u] and u != v:
                edges.add((min(v, u), max(v, u)))
    inf = float("inf")
    dist = {(a, b): (0 if a == b else inf) for a in nodes for b in nodes}
    for a, b in edges:
        dist[(a, b)] = dist[(b, a)] = 1
    for k in nodes:
        for i in nodes:
            if dist[(i, k)] == inf:
                continue
            for j in nodes:
                alt = dist[(i, k)] + dist[(k, j)]
                if alt < dist[(i, j)]:
                    dist[(i, j)] = alt
    # components
    comp = {}
    for v in nodes:
        comp[v] = min(u for u in nodes if dist[(v, u)] < inf)
    sizes = {}
    for v, c in comp.items():
        sizes[c] = sizes.get(c, 0) + 1
    best_size = max(sizes.values())
    best = min(c for c, s in sizes.items() if s == best_size)
    members = [v for v in nodes if comp[v] == best]
    pairs = [(a, b) for a in members for b in members if a != b]
    if not pairs:
        return 0.0, best_size / len(nodes)
    return (
        sum(dist[p] for p in pairs) / len(pairs),
        best_size / len(nodes),
    )


def oracle_clustering(neighbor_lists, alive):
    nodes = [v for v in range(len(neighbor_lists)) if alive[v]]
    adjacency = {v: set() for v in nodes}
    for v in nodes:
        for u in neighbor_lists[v]:
            if alive[u] and u != v:
                adjacency[v].add(u)
                adjacency[u].add(v)
    coeffs = []
    for v in nodes:  # ascending order, matching the implementation
        nbrs = sorted(adjacency[v])
        if len(nbrs) < 2:
            continue
        links = sum(
            1 for a, b in itertools.combinations(nbrs, 2) if b in adjacency[a]
        )
        coeffs.append(links / (len(nbrs) * (len(nbrs) - 1) / 2))
    if not coeffs:
        raise NoEligiblePeers("oracle: no node with degree >= 2")
    import math

    return math.fsum(coeffs) / len(coeffs)


def test_path_length_complete_graph():
    n = 5
    lists = [[u for u in range(n) if u != v] for v in range(n)]
    snap = make_snapshot(lists)
    value, coverage = avg_path_length(live_graph(snap))
    assert value == 1.0 and coverage == 1.0


def test_path_length_path_graph():
    snap = make_snapshot([[1], [0, 2], [1]])
    value, coverage = avg_path_length(live_graph(snap))
    assert value == pytest.approx(4 / 3)
    assert coverage == 1.0


def test_clustering_complete_graph():
    n = 4
    lists = [[u for u in range(n) if u != v] for v in range(n)]
    assert clustering_coefficient(live_graph(make_snapshot(lists))) == 1.0


def test_clustering_star_center_scores_zero():
    # undirected view: center has degree 3 (eligible, no linked neighbors ->
    # coefficient 0), leaves have degree 1 and are excluded
    snap = make_snapshot([[1, 2, 3], [], [], []])
    assert clustering_coefficient(live_graph(snap)) == 0.0


def test_clustering_pure_pair_raises():
    snap = make_snapshot([[1], [0]])
    with pytest.raises(NoEligiblePeers):
        clustering_coefficient(live_graph(snap))


def test_clustering_triangle_with_pendant():
    # triangle 0-1-2 plus pendant 3 attached to 0: coefficients 1/3, 1, 1
    snap = make_snapshot([[1, 2, 3], [0, 2], [0, 1], [0]])
    assert clustering_coefficient(live_graph(snap)) == pytest.approx(7 / 9)


def assert_csr_lists_the_live_neighbors(graph, neighbor_lists, alive):
    """Node i of ``graph`` is the i-th live peer; its CSR row must list the
    sorted live neighbours of that peer in the symmetrized graph."""
    live = [v for v in range(len(neighbor_lists)) if alive[v]]
    node = {v: i for i, v in enumerate(live)}
    adjacency = [set() for _ in live]
    for v in live:
        for u in neighbor_lists[v]:
            if alive[u]:
                adjacency[node[v]].add(node[u])
                adjacency[node[u]].add(node[v])
    want = [sorted(ids) for ids in adjacency]
    assert graph.indptr.tolist() == np.cumsum([0, *map(len, want)]).tolist()
    assert graph.indices.tolist() == [i for ids in want for i in ids]
    assert graph.indptr.dtype == graph.indices.dtype == np.intp


def random_small_graph(rnd):
    """2-8 peers, each listing a random subset of the others and dead with
    probability 0.2 (all live when fewer than two would be)."""
    n = rnd.randint(2, 8)
    lists = []
    for v in range(n):
        others = [u for u in range(n) if u != v]
        lists.append(rnd.sample(others, rnd.randint(0, len(others))))
    alive = [rnd.random() > 0.2 for v in range(n)]
    if sum(alive) < 2:
        alive = [True] * n
    return lists, alive


def test_graph_metrics_match_oracles_randomized():
    rnd = random.Random(77)
    # first, live peers that list only a dead one or nobody: no edge at all
    graphs = [([[2], [], [0, 1], []], [True, True, False, True])]
    graphs += [random_small_graph(rnd) for _ in range(1200)]
    for case, (lists, alive) in enumerate(graphs):
        graph = live_graph(make_snapshot(lists, alive=alive))
        assert_csr_lists_the_live_neighbors(graph, lists, alive)
        got_apl, got_cov = avg_path_length(graph)
        want_apl, want_cov = oracle_path_length(lists, alive)
        assert got_apl == want_apl, (case, lists, alive)
        assert got_cov == want_cov
        try:
            want_cc = oracle_clustering(lists, alive)
        except NoEligiblePeers:
            with pytest.raises(NoEligiblePeers):
                clustering_coefficient(graph)
        else:
            assert clustering_coefficient(graph) == want_cc, (case, lists, alive)


def random_multiword_graph(rnd):
    """65-200 peers, so packed rows span several words.  Live peers form
    ``groups`` components of one shared size (the largest), plus isolated
    peers, peers whose only entries are about dead peers, and dead peers
    whose entries point anywhere."""
    n = rnd.randint(65, 200)
    order = rnd.sample(range(n), n)
    groups = rnd.randint(2, 4)
    size = rnd.randint(2, (n - 6) // groups)
    dead = order[groups * size : groups * size + rnd.randint(1, 6)]
    rest = order[groups * size + len(dead) :]
    alive = [v not in dead for v in range(n)]
    lists = [[] for _ in range(n)]
    for g in range(groups):
        members = order[g * size : (g + 1) * size]
        pairs = list(zip(members, members[1:]))  # a spanning path
        pairs += [rnd.sample(members, 2) for _ in range(rnd.randint(0, 3 * size))]
        for a, b in pairs:  # one side lists the other
            if rnd.random() < 0.5:
                a, b = b, a
            lists[a].append(b)
        for v in members:
            lists[v] += rnd.sample(dead, rnd.randint(0, len(dead)))
    for v in rest:  # isolated, or listing dead peers only
        lists[v] = rnd.sample(dead, rnd.randint(0, len(dead)))
    for v in dead:
        lists[v] = rnd.sample(range(n), rnd.randint(0, 10))
    lists = [sorted(set(ids) - {v}) for v, ids in enumerate(lists)]
    return lists, alive


def test_graph_metrics_match_oracles_on_multiword_graphs():
    rnd = random.Random(2024)
    for case in range(30):
        lists, alive = random_multiword_graph(rnd)
        graph = live_graph(make_snapshot(lists, alive=alive))
        assert graph.bits.shape[0] > 1
        assert_csr_lists_the_live_neighbors(graph, lists, alive)
        assert avg_path_length(graph) == oracle_path_length(lists, alive), case
        assert clustering_coefficient(graph) == oracle_clustering(lists, alive), case


def random_connected_multiword_graph(rnd):
    """65-200 peers whose live peers form one component: a spanning path
    through them plus random chords, so every ball ends up holding all live
    nodes.  A few dead peers list anyone and are listed by no one."""
    n = rnd.randint(65, 200)
    order = rnd.sample(range(n), n)
    dead = order[: rnd.randint(0, 5)]
    members = order[len(dead) :]
    alive = [v not in dead for v in range(n)]
    lists = [[] for _ in range(n)]
    pairs = list(zip(members, members[1:]))
    pairs += [rnd.sample(members, 2) for _ in range(rnd.randint(0, 2 * n))]
    for a, b in pairs:  # one side lists the other
        if rnd.random() < 0.5:
            a, b = b, a
        lists[a].append(b)
    for v in dead:
        lists[v] = rnd.sample(range(n), rnd.randint(0, 10))
    lists = [sorted(set(ids) - {v}) for v, ids in enumerate(lists)]
    return lists, alive


def test_graph_metrics_match_oracles_on_connected_multiword_graphs():
    rnd = random.Random(4051)
    for case in range(10):  # the Floyd-Warshall oracle is cubic in the peers
        lists, alive = random_connected_multiword_graph(rnd)
        graph = live_graph(make_snapshot(lists, alive=alive))
        assert graph.bits.shape[0] > 1
        apl, coverage = avg_path_length(graph)
        assert coverage == 1.0
        assert (apl, coverage) == oracle_path_length(lists, alive), case
        assert clustering_coefficient(graph) == oracle_clustering(lists, alive), case


# --- in-degree ---------------------------------------------------------------

def test_in_degree_mean_one_without_skips():
    snap = make_snapshot([[1], [0]], receptions=[2, 0])
    mean, var = in_degree_stats(snap)
    assert mean == 1.0 and var == 1.0


def test_in_degree_counts_only_live_peers():
    snap = make_snapshot(
        [[1], [0], [0]], receptions=[2, 1, 0], alive=[True, True, False]
    )
    mean, var = in_degree_stats(snap)
    assert mean == pytest.approx(1.5)
    assert var == pytest.approx(0.25)


def test_in_degree_single_survivor_means_zero():
    # a lone live peer has no valid responders: it skips, nobody receives
    snap = make_snapshot(
        [[1], [0], [0]], receptions=[0, 0, 0], alive=[True, False, False], skipped=1
    )
    mean, var = in_degree_stats(snap)
    assert mean == 0.0 and var == 0.0


def test_compute_cycle_metrics_assembles_row():
    rec = np.array([[10, -1], [12, -1], [-1, -1]])
    snap = make_snapshot(
        [[1, 2], [0, 2], [0, 1]],
        sims=[0.3, 0.5, 0.4],
        rec_items=rec,
        receptions=[1, 1, 1],
        top_n=2,
    )
    row = compute_cycle_metrics(snap, {0: 10, 1: 99, 2: 98})
    assert row.cycle == 1
    assert row.avg_similarity == pytest.approx(0.4)
    assert row.hit_rate == pytest.approx(1 / 3)
    assert row.avg_path_length == 1.0
    assert row.path_coverage == 1.0
    assert row.clustering_coefficient == 1.0
    assert row.in_degree_mean == 1.0
    structural_off = compute_cycle_metrics(snap, {0: 10, 1: 99, 2: 98}, structural=False)
    assert structural_off.avg_path_length is None
    assert structural_off.clustering_coefficient is None
