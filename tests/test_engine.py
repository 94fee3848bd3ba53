"""Bootstrap topology, cycle mechanics, churn injection, determinism."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse import csgraph

import oracles
from gossipcf import engine, pushpull
from gossipcf.engine import (
    ChurnSpec,
    InvalidConfig,
    SimConfig,
    bootstrap,
    bootstrap_topology,
    inject_churn,
    run_simulation,
)
from gossipcf.harness import all_but_1_split, split_seed
from gossipcf.pushpull import DataItem
from gossipcf.recommend import build_training_arrays, tally_votes, top_n_from_votes


def _arrays(matrix):
    return build_training_arrays(matrix)


def _weakly_connected(topology) -> bool:
    n = len(topology)
    rows, cols = [], []
    for v, outs in enumerate(topology):
        for u in outs:
            rows.append(v)
            cols.append(u)
    adj = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    n_comp, _ = csgraph.connected_components(adj, directed=True, connection="weak")
    return n_comp == 1


def test_bootstrap_topology_full_scale_properties():
    rng = np.random.default_rng(4)
    topo = bootstrap_topology(943, 2.494, cache_size=20, rng=rng)
    degrees = np.array([len(outs) for outs in topo])
    mean_deg = degrees.mean()
    assert 2.494 - 0.05 <= mean_deg <= 2.494 + 0.05
    assert _weakly_connected(topo)
    assert degrees.max() < 20  # no cache starts full
    assert degrees.std() > 0.5  # intentionally unbalanced
    assert all(v not in topo[v] for v in range(943))


def test_bootstrap_topology_two_peers_mutual():
    rng = np.random.default_rng(0)
    topo = bootstrap_topology(2, 1.0, cache_size=5, rng=rng)
    assert topo == [[1], [0]]


def test_bootstrap_topology_deterministic():
    a = bootstrap_topology(200, 2.494, 20, np.random.default_rng(9))
    b = bootstrap_topology(200, 2.494, 20, np.random.default_rng(9))
    assert a == b


def test_bootstrap_topology_rejects_bad_degree():
    rng = np.random.default_rng(1)
    with pytest.raises(InvalidConfig):
        bootstrap_topology(10, 0.5, 20, rng)
    with pytest.raises(InvalidConfig):
        bootstrap_topology(10, 25.0, 20, rng)
    # the tree is not capped: one that gives a peer more sources than its
    # cache holds is rejected
    with pytest.raises(InvalidConfig, match="bootstrap tree gives peer"):
        bootstrap_topology(943, 2.0, 3, np.random.default_rng(1))


def test_config_validation():
    base = dict(n_peers=10, cache_size=5)
    SimConfig(**base).validate()
    with pytest.raises(InvalidConfig):
        SimConfig(n_peers=1).validate()
    with pytest.raises(InvalidConfig):
        SimConfig(n_peers=10, cache_size=0).validate()
    with pytest.raises(InvalidConfig):
        SimConfig(**base, cycles=0).validate()
    with pytest.raises(InvalidConfig):
        SimConfig(**base, protocol="carrier-pigeon").validate()
    with pytest.raises(InvalidConfig):
        SimConfig(**base, churn=ChurnSpec(pct=120.0, at_cycle=5)).validate()
    with pytest.raises(InvalidConfig):
        SimConfig(**base, cycles=10, churn=ChurnSpec(pct=5.0, at_cycle=40)).validate()
    # floor(pct * n / 100) must leave a live peer
    SimConfig(**base, churn=ChurnSpec(pct=99.0, at_cycle=5)).validate()
    with pytest.raises(InvalidConfig, match="silence all"):
        SimConfig(**base, churn=ChurnSpec(pct=100.0, at_cycle=5)).validate()
    # a neighborhood never holds its owner, so it holds at most n - 1 peers
    valid = SimConfig(n_peers=10, cache_size=9)
    valid.validate()
    for cache_size in (10, 11, 20):
        with pytest.raises(InvalidConfig, match="cache_size"):
            SimConfig(n_peers=10, cache_size=cache_size).validate()
    # a config validates itself on construction, dataclasses.replace included
    with pytest.raises(InvalidConfig, match="cache_size"):
        replace(valid, cache_size=valid.n_peers)
    with pytest.raises(InvalidConfig, match="churn mode"):
        SimConfig(**base, churn=ChurnSpec(mode="evaporation", at_cycle=5))


def _small_sim(small_ratings, **kwargs):
    defaults = dict(n_peers=80, cache_size=8, cycles=12, seed=3)
    defaults.update(kwargs)
    config = SimConfig(**defaults)
    split_rng = np.random.Generator(np.random.PCG64(split_seed(config.seed, 0)))
    arrays = _arrays(all_but_1_split(small_ratings, split_rng).training)
    return config, arrays


def test_cycle_conservation_and_one_initiation_each(small_ratings):
    config, arrays = _small_sim(small_ratings)
    snaps = list(run_simulation(config, arrays))
    assert len(snaps) == config.cycles + 1
    for snap in snaps[1:]:
        alive = int(snap.alive.sum())
        # every alive peer initiates once; receptions match non-skipped initiations
        assert snap.receptions.sum() == alive - snap.skipped
        assert snap.skipped == 0  # churn-free, connected: nobody skips


def test_snapshot_caches_respect_capacity_and_uniqueness(small_ratings):
    config, arrays = _small_sim(small_ratings)
    for snap in run_simulation(config, arrays):
        for v in range(config.n_peers):
            ids = snap.neighbor_ids[v]
            assert ids.size <= config.cache_size
            assert np.unique(ids).size == ids.size
            assert not (ids == v).any()


def test_cache_fill_monotone_until_full(small_ratings):
    config, arrays = _small_sim(small_ratings)
    sizes_prev = None
    full_seen = False
    for snap in run_simulation(config, arrays):
        sizes = np.array([len(snap.neighbor_ids[v]) for v in range(config.n_peers)])
        if sizes_prev is not None and not full_seen:
            assert (sizes >= sizes_prev).all()
        full_seen = sizes.min() >= config.cache_size
        sizes_prev = sizes


def test_simulation_deterministic(small_ratings):
    config, arrays = _small_sim(small_ratings)
    def fingerprint():
        out = []
        for snap in run_simulation(config, arrays):
            out.append(
                (
                    snap.cycle,
                    tuple(tuple(ids.tolist()) for ids in snap.neighbor_ids),
                    snap.rec_items.tobytes(),
                    snap.receptions.tobytes(),
                )
            )
        return out
    assert fingerprint() == fingerprint()


def test_protocol_variants_share_snapshot_schema(small_ratings):
    for protocol in ("swarmix", "newscast", "anti-entropy"):
        config, arrays = _small_sim(small_ratings, protocol=protocol, cycles=3)
        snaps = list(run_simulation(config, arrays))
        assert len(snaps) == 4
        assert snaps[-1].rec_items.shape == (80, config.top_n)


def test_churn_marks_expected_count(small_ratings):
    config, arrays = _small_sim(
        small_ratings, cycles=10, churn=ChurnSpec(mode="failures", pct=20.0, at_cycle=5)
    )
    snaps = list(run_simulation(config, arrays))
    for snap in snaps:
        dead = int((~snap.alive).sum())
        if snap.cycle < 5:
            assert dead == 0
        else:
            assert dead == int(0.20 * 80)
            assert not snap.left.any()  # failures do not set the left flag


def test_churn_zero_is_noop(small_ratings):
    config, arrays = _small_sim(
        small_ratings, cycles=6, churn=ChurnSpec(mode="failures", pct=0.0, at_cycle=3)
    )
    for snap in run_simulation(config, arrays):
        assert snap.alive.all()


def test_failures_and_leavings_kill_identical_peers(small_ratings):
    dead_sets = {}
    for mode in ("failures", "leavings"):
        config, arrays = _small_sim(
            small_ratings, cycles=8, churn=ChurnSpec(mode=mode, pct=25.0, at_cycle=4)
        )
        snaps = list(run_simulation(config, arrays))
        dead_sets[mode] = frozenset(np.flatnonzero(~snaps[-1].alive).tolist())
        left = frozenset(np.flatnonzero(snaps[-1].left).tolist())
        assert left == (dead_sets[mode] if mode == "leavings" else frozenset())
    assert dead_sets["failures"] == dead_sets["leavings"]


def test_no_resurrection_and_dead_never_respond(small_ratings):
    config, arrays = _small_sim(
        small_ratings, cycles=12, churn=ChurnSpec(mode="failures", pct=40.0, at_cycle=5)
    )
    dead = None
    for snap in run_simulation(config, arrays):
        if snap.cycle == 5:
            dead = ~snap.alive
        if dead is not None and snap.cycle >= 5:
            assert (~snap.alive[dead]).all()  # nobody comes back
            assert (snap.receptions[dead] == 0).all()
            assert (snap.rec_items[dead] == -1).all()


def test_dead_entries_linger_in_live_caches(small_ratings):
    # No eager cleanup: entries pointing at silenced peers survive until
    # displaced by selection.
    config, arrays = _small_sim(
        small_ratings, cycles=7, churn=ChurnSpec(mode="failures", pct=50.0, at_cycle=6)
    )
    snaps = list(run_simulation(config, arrays))
    final = snaps[-1]
    dead = ~final.alive
    pointing_at_dead = 0
    for v in np.flatnonzero(final.alive):
        pointing_at_dead += int(dead[final.neighbor_ids[v]].sum())
    assert pointing_at_dead > 0


def _fresh_row(config, arrays, peer, sources):
    """The padded (items, votes) row a fresh ranking of ``sources`` gives."""
    votes = tally_votes(arrays, sources)
    ranked = top_n_from_votes(votes, arrays.rated_cols[peer], config.top_n, arrays.item_ids)
    items = np.full(config.top_n, -1, dtype=np.int64)
    counts = np.zeros(config.top_n, dtype=np.int32)
    for j, (item, count) in enumerate(ranked):
        items[j], counts[j] = item, count
    return items, counts


def test_memoised_rankings_equal_fresh_ones(small_ratings):
    # A peer ranks right after its own exchange and keeps its row until its
    # cache sources differ from those it last ranked.  A peer that received
    # no exchange in a cycle still holds the cache it ranked, so its row must
    # equal a ranking recomputed from the snapshot's cache.
    config, arrays = _small_sim(
        small_ratings, cycles=30, churn=ChurnSpec(mode="failures", pct=30.0, at_cycle=12)
    )
    compared = 0
    for snap in run_simulation(config, arrays):
        assert (snap.rec_items[~snap.alive] == -1).all()
        assert (snap.rec_votes[~snap.alive] == 0).all()
        for v in np.flatnonzero(snap.alive & (snap.receptions == 0)):
            items, counts = _fresh_row(config, arrays, v, snap.neighbor_ids[v])
            assert (snap.rec_items[v] == items).all()
            assert (snap.rec_votes[v] == counts).all()
            compared += 1
    assert compared > 500


def test_memo_is_keyed_by_the_sources_last_ranked(small_ratings, monkeypatch):
    # A row is a pure function of the cache's source set: a reordered cache
    # keeps its row without a new ranking, and a different set is ranked
    # afresh on the peer's next turn, whatever replaced the cache.
    config, arrays = _small_sim(small_ratings)
    state = bootstrap(config, arrays, np.random.default_rng(5))
    caches, sources = state.gossip.caches, state.gossip.sources
    peer = 0
    assert len(caches[peer]) > 1
    engine._rank(state, peer)
    row = state.rec_items[peer].copy()
    calls = []

    def counted(*args):
        calls.append(args)
        return top_n_from_votes(*args)

    monkeypatch.setattr(engine, "top_n_from_votes", counted)
    caches[peer] = caches[peer][::-1]
    sources[peer] = sources[peer][::-1]
    engine._rank(state, peer)
    assert calls == []
    assert (state.rec_items[peer] == row).all()

    held = {item.src for item in caches[peer]} | {peer}
    others = [w for w in range(state.n) if w not in held][: config.cache_size]
    caches[peer] = tuple(DataItem(w, 0) for w in others)
    sources[peer] = tuple(others)
    items, counts = _fresh_row(config, arrays, peer, others)
    assert not (items == row).all()
    engine._rank(state, peer)
    assert len(calls) == 1
    assert (state.rec_items[peer] == items).all()
    assert (state.rec_votes[peer] == counts).all()


def _run_counting_shortcuts(config, arrays, monkeypatch, shortcuts):
    """A run's snapshots, with counts of bitset-decided and declined sides and untouched initiators.

    A side decided by a recorded bitset consults no admission test; a declined
    side keeps its cache object.  Without ``shortcuts`` every side is admitted,
    so no bitset is recorded, and every exchange runs ``_retain`` on both sides
    and installs both caches.
    """
    exchange, admits = engine.run_exchange, pushpull._admits
    counts = dict(bitset=0, declined=0, untouched=0)
    tests = 0

    def admitted(state, owner, offered, protocol):
        nonlocal tests
        tests += 1
        ok = admits(state, owner, offered, protocol) if shortcuts else True
        counts["declined"] += not ok
        return ok

    def observed(gossip, initiator, responder, protocol, now):
        before, seen = gossip.caches[initiator], tests
        exchange(gossip, initiator, responder, protocol, now)
        counts["bitset"] += 2 - (tests - seen)
        counts["untouched"] += gossip.caches[initiator] is before

    with monkeypatch.context() as patch:
        patch.setattr(pushpull, "_admits", admitted)
        patch.setattr(engine, "run_exchange", observed)
        snaps = list(run_simulation(config, arrays))
    return snaps, counts


@pytest.mark.parametrize(
    "churn", [None, ChurnSpec(mode="failures", pct=40.0, at_cycle=6)], ids=["stable", "loss"]
)
def test_skipped_exchanges_change_no_snapshot(small_ratings, monkeypatch, churn):
    # Under swarmix a side that no offered source can enter runs no merge,
    # and once a side declines, a bitset recorded for its version decides it
    # until that version moves.  Every snapshot must be what a run that
    # performs every exchange on both sides gives.
    config, arrays = _small_sim(small_ratings, cycles=16, churn=churn)
    shipped, taken = _run_counting_shortcuts(config, arrays, monkeypatch, True)
    every, reference = _run_counting_shortcuts(config, arrays, monkeypatch, False)
    assert reference == dict(bitset=0, declined=0, untouched=0)
    assert taken["bitset"] > 0 and taken["declined"] > 0
    assert len(shipped) == len(every) == config.cycles + 1
    for a, b in zip(shipped, every):
        assert a.cycle == b.cycle
        for name in ("indptr", "neighbors", "rec_items", "rec_votes", "receptions"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), (a.cycle, name)
        assert np.array_equal(a.cache_sim_mean, b.cache_sim_mean, equal_nan=True), a.cycle


@pytest.mark.parametrize("protocol", engine.PROTOCOLS)
def test_source_tuples_follow_the_caches(small_ratings, protocol):
    churn = ChurnSpec(mode="failures", pct=30.0, at_cycle=5)
    config, arrays = _small_sim(small_ratings, protocol=protocol, cycles=10, churn=churn)
    state = bootstrap(config, arrays, np.random.default_rng(11))
    gossip = state.gossip
    recorded = 0
    for cycle in range(1, config.cycles + 1):
        if cycle == churn.at_cycle:
            inject_churn(state, churn)
        engine.run_cycle(state)
        for v in range(state.n):
            assert gossip.sources[v] == tuple(item.src for item in gossip.caches[v])
            # every recorded bitset is what a fresh build from v's sources gives
            if gossip.admissible[v] is not None:
                assert gossip.admissible[v] == pushpull._admissible(gossip, v, state.protocol)
                recorded += 1
            if gossip.held[v] is not None:
                assert gossip.held[v] == sum(1 << src for src in gossip.sources[v])
    # timestamp orders take no admission test, so they record no bitset
    assert (recorded > 0) == (protocol == "swarmix")
    if protocol != "swarmix":
        assert gossip.admissible == gossip.held == [None] * state.n


@pytest.mark.parametrize("high", [1, 2, 20, 942, 2**31 + 5])
def test_one_sized_draw_equals_as_many_scalar_draws(high):
    # run_cycle may draw a cycle's partner indices in one call: NumPy must
    # give the values, and leave the generator in the state, that one
    # scalar call per turn does
    for seed in (0, 101):
        batched = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        single = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        assert batched.integers(high, size=943).tolist() == [
            int(single.integers(high)) for _ in range(943)
        ]
        assert batched.integers(high) == single.integers(high)
        assert batched.random() == single.random()


class CountingRng:
    """A generator that counts its sized and scalar ``integers`` calls."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.sized = self.scalar = 0

    def integers(self, *args, size=None, **kwargs):
        if size is None:
            self.scalar += 1
        else:
            self.sized += 1
        return self._rng.integers(*args, size=size, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _cycles(config, arrays, cycle):
    """Every cycle's snapshot from ``cycle``, and its (sized, scalar) draws."""
    rng = CountingRng(config.seed)
    state = bootstrap(config, arrays, rng)
    for p in range(state.n):
        engine._rank(state, p)
    snaps, draws = [], []
    for at in range(1, config.cycles + 1):
        if config.churn is not None and at == config.churn.at_cycle:
            inject_churn(state, config.churn)
        rng.sized = rng.scalar = 0
        snaps.append(cycle(state))
        draws.append((rng.sized, rng.scalar))
    return snaps, draws


@pytest.mark.parametrize("mode", [None, "failures", "leavings"])
@pytest.mark.parametrize("protocol", engine.PROTOCOLS)
def test_cycle_level_draw_equals_per_turn_draws(small_ratings, protocol, mode):
    churn = None if mode is None else ChurnSpec(mode=mode, pct=30.0, at_cycle=6)
    config, arrays = _small_sim(small_ratings, protocol=protocol, churn=churn)
    shipped, draws = _cycles(config, arrays, engine.run_cycle)
    reference, scalar = _cycles(config, arrays, oracles.run_cycle)
    assert all(sized == 0 for sized, _ in scalar)
    for a, b in zip(shipped, reference, strict=True):
        assert a.cycle == b.cycle and a.skipped == b.skipped
        for name in ("indptr", "neighbors", "rec_items", "rec_votes", "receptions"):
            got, want = getattr(a, name), getattr(b, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), (a.cycle, name)
        assert np.array_equal(a.cache_sim_mean, b.cache_sim_mean, equal_nan=True), a.cycle
    if protocol == "anti-entropy":
        # a global view always knows its candidate count up front
        assert set(draws) == {(1, 0)}
    else:
        # the bootstrap leaves caches short of full, and after a loss not
        # every peer is alive: those cycles draw turn by turn
        assert (1, 0) in draws
        assert any(sized == 0 and single > 0 for sized, single in draws)
        if churn is not None:
            assert all(sized == 0 for sized, _ in draws[churn.at_cycle - 1 :])


def test_churn_request_beyond_alive_raises(small_ratings):
    config, arrays = _small_sim(small_ratings, cycles=4)
    state = bootstrap(config, arrays, np.random.default_rng(0))
    inject_churn(state, ChurnSpec(mode="failures", pct=90.0, at_cycle=1))
    with pytest.raises(InvalidConfig):
        inject_churn(state, ChurnSpec(mode="failures", pct=50.0, at_cycle=2))


def test_churn_count_is_floor_of_pct_at_full_scale():
    # floor(0.20 * 943) = 188 silenced peers
    from gossipcf.engine import SimState
    from gossipcf.pushpull import GossipState

    n = 943
    state = SimState(
        config=SimConfig(n_peers=n),
        gossip=GossipState(caches=[()] * n, alive=[True] * n),
        left=[False] * n,
        arrays=None,
        protocol=None,
        rng=np.random.default_rng(3),
    )
    silenced = inject_churn(state, ChurnSpec(mode="failures", pct=20.0, at_cycle=1))
    assert len(silenced) == 188
    assert sum(1 for a in state.gossip.alive if not a) == 188


def test_global_view_protocol_draws_any_peer(small_ratings):
    config, arrays = _small_sim(small_ratings, protocol="anti-entropy", cycles=2)
    snaps = list(run_simulation(config, arrays))
    for snap in snaps[1:]:
        assert snap.receptions.sum() == int(snap.alive.sum())


def test_similarity_utility_scores_the_item_snapshot(small_ratings):
    # the rank table must order sources as the reference cosine of the
    # training profiles does (ratings are fixed for the whole run):
    # similarity descending, ties to the smaller source id
    from gossipcf.engine import make_protocol
    from oracles import cosine_similarity, profiles

    config, arrays = _small_sim(small_ratings)
    training = profiles(arrays.matrix)
    rank = make_protocol(config, arrays).rank
    n = config.n_peers
    rng = np.random.default_rng(12)
    compared = 0
    for _ in range(300):
        owner, a, b = (int(x) for x in rng.integers(n, size=3))
        scores = [
            1.0 if src == owner else cosine_similarity(training[owner], training[src])
            for src in (a, b)
        ]
        if abs(scores[0] - scores[1]) > 1e-12:
            assert (rank[owner][a] < rank[owner][b]) == (scores[0] > scores[1])
            compared += 1
    assert compared > 200
    for owner in range(n):
        order = sorted(range(n), key=rank[owner].__getitem__)
        assert sorted(rank[owner]) == list(range(n))
        steps = np.diff(arrays.similarity[owner, order])
        assert (steps <= 0).all()
        assert (np.diff(order)[steps == 0] > 0).all()
