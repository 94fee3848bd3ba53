"""Core protocol steps against brute-force oracles and declared tie-breaks."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipcf.pushpull import (
    Cache,
    DataItem,
    GossipState,
    ProtocolSpec,
    ResponderUnreachable,
    _retain,
    run_exchange,
)
from gossipcf.swarmix import anti_entropy_protocol
from oracles import adapt_neighbors, merge_by_utility, merge_freshest, select_top_k


def item(id=0, src=0, t=0):
    return DataItem(id=id, src=src, timestamp=t)


# --- brute-force oracles -----------------------------------------------------

def oracle_merge(cache_a: Cache, cache_b: Cache, key) -> set[DataItem]:
    """Per id, exhaustively scan the union for the best version.

    ``key(item, side)`` must be a strictly increasing preference tuple; side
    is 1 for cache_a, 0 for cache_b.
    """
    tagged = [(it, 1) for it in cache_a] + [(it, 0) for it in cache_b]
    out = set()
    for ident in {it.id for it, _ in tagged}:
        versions = [(key(it, side), it) for it, side in tagged if it.id == ident]
        best = max(versions, key=lambda pair: pair[0])
        out.add(best[1])
    return out


def oracle_select(cache: Cache, u, k: int) -> tuple[DataItem, ...]:
    """Global top-k by scanning all orderings of the declared sort key."""
    ranked = sorted(cache, key=lambda it: (-u(it), it.src, it.id))
    return tuple(ranked[:k])


# --- worked examples -----------------------------------------------------------

def test_merge_freshest_newer_version_wins():
    a = (item(id=1, t=3),)
    b = (item(id=1, t=5),)
    assert merge_freshest(a, b) == (item(id=1, t=5),)


def test_merge_freshest_identity_on_empty():
    b = (item(id=7, t=0),)
    assert set(merge_freshest((), b)) == set(b)
    assert set(merge_freshest(b, ())) == set(b)


def test_merge_freshest_max_per_id_over_union():
    a = (item(id=1, t=4), item(id=2, t=1))
    b = (item(id=2, t=9), item(id=3, t=2))
    expected = oracle_merge(a, b, key=lambda it, side: (it.timestamp, side))
    assert set(merge_freshest(a, b)) == expected
    assert expected == {item(id=1, t=4), item(id=2, t=9), item(id=3, t=2)}


def test_merge_freshest_tie_prefers_own_side():
    a = (item(id=1, src=0, t=4),)
    b = (item(id=1, src=1, t=4),)
    (kept,) = merge_freshest(a, b)
    assert kept.src == 0


def utility_from_table(table):
    return lambda it: table[it.src]


def test_merge_by_utility_higher_utility_wins():
    u = utility_from_table({0: 0.2, 1: 0.8})
    a = (item(id=1, src=0),)
    b = (item(id=1, src=1),)
    (kept,) = merge_by_utility(a, b, u)
    assert kept.src == 1


def test_merge_by_utility_tie_takes_larger_timestamp():
    u = lambda it: 0.5
    a = (item(id=1, src=0, t=2),)
    b = (item(id=1, src=1, t=6),)
    (kept,) = merge_by_utility(a, b, u)
    assert kept.src == 1


def test_merge_by_utility_max_per_id_over_union():
    table = {10: 0.5, 20: 0.1, 11: 0.4, 30: 0.9}
    u = utility_from_table(table)
    a = (item(id=1, src=10), item(id=2, src=20))
    b = (item(id=1, src=11), item(id=3, src=30))
    expected = oracle_merge(a, b, key=lambda it, side: (u(it), it.timestamp, side))
    assert set(merge_by_utility(a, b, u)) == expected
    assert {it.src for it in expected} == {10, 20, 30}


def test_select_top_k_basic():
    u = utility_from_table({0: 0.9, 1: 0.5, 2: 0.1})
    cache = (item(id=0, src=0), item(id=1, src=1), item(id=2, src=2))
    got = select_top_k(cache, u, 2)
    assert [it.src for it in got] == [0, 1]


def test_select_top_k_when_k_exceeds_cache():
    u = lambda it: float(it.src)
    cache = (item(id=0, src=0), item(id=1, src=1), item(id=2, src=2))
    assert len(select_top_k(cache, u, 20)) == 3


def test_select_top_k_tie_takes_smaller_src():
    u = utility_from_table({5: 0.7, 3: 0.7, 9: 0.2})
    cache = (item(id=0, src=5), item(id=1, src=3), item(id=2, src=9))
    got = select_top_k(cache, u, 1)
    assert got[0].src == 3
    assert got == oracle_select(cache, u, 1)


def test_adapt_neighbors_l_covers_whole_cache():
    u = lambda it: float(it.src)
    cache = (item(id=2, src=2), item(id=5, src=5), item(id=8, src=8))
    assert adapt_neighbors(cache, u, 3, "adaptive") == {2, 5, 8}


def test_adapt_neighbors_fixed_keeps_prior():
    u = lambda it: float(it.src)
    cache = (item(id=2, src=2),)
    prior = frozenset({1, 4})
    assert adapt_neighbors(cache, u, 1, "fixed", prior=prior) == prior


def test_adapt_neighbors_top_l():
    u = utility_from_table({2: 0.9, 5: 0.3, 8: 0.6})
    cache = (item(id=2, src=2), item(id=5, src=5), item(id=8, src=8))
    assert adapt_neighbors(cache, u, 2, "adaptive") == {2, 8}


# --- randomized oracle equivalence -------------------------------------------

def random_cache(rnd, max_items=8, id_pool=8, src_pool=8, t_pool=6, unique_ids=True):
    items = []
    for _ in range(rnd.randint(0, max_items)):
        items.append(
            item(
                id=rnd.randrange(id_pool),
                src=rnd.randrange(src_pool),
                t=rnd.randrange(t_pool),
            )
        )
    if unique_ids:
        seen, out = set(), []
        for it in items:
            if it.id not in seen:
                seen.add(it.id)
                out.append(it)
        return tuple(out)
    return tuple(items)


def test_merge_freshest_matches_oracle_randomized():
    rnd = random.Random(101)
    for _ in range(1200):
        a, b = random_cache(rnd), random_cache(rnd)
        got = set(merge_freshest(a, b))
        want = oracle_merge(a, b, key=lambda it, side: (it.timestamp, side))
        assert got == want


def test_merge_by_utility_matches_oracle_randomized():
    rnd = random.Random(202)
    for _ in range(1200):
        a, b = random_cache(rnd), random_cache(rnd)
        table = {s: rnd.choice([0.1, 0.4, 0.4, 0.9]) for s in range(8)}
        u = utility_from_table(table)
        got = set(merge_by_utility(a, b, u))
        want = oracle_merge(a, b, key=lambda it, side: (u(it), it.timestamp, side))
        assert got == want


def test_select_matches_oracle_randomized():
    rnd = random.Random(303)
    for _ in range(1200):
        cache = random_cache(rnd)
        table = {s: rnd.choice([0.1, 0.4, 0.4, 0.9]) for s in range(8)}
        u = utility_from_table(table)
        k = rnd.randint(1, 9)
        got = select_top_k(cache, u, k)
        assert got == oracle_select(cache, u, k)
        # monotone filter: every retained item at least as useful as discarded
        dropped = [it for it in cache if it not in got]
        if got and dropped:
            assert min(u(it) for it in got) >= max(u(it) for it in dropped)
        assert len(got) <= k


def test_adapt_matches_oracle_randomized():
    rnd = random.Random(404)
    for _ in range(1200):
        cache = random_cache(rnd)
        table = {s: rnd.choice([0.1, 0.4, 0.4, 0.9]) for s in range(8)}
        u = utility_from_table(table)
        l = rnd.randint(1, 9)
        got = adapt_neighbors(cache, u, l, "adaptive")
        want = frozenset(it.src for it in oracle_select(cache, u, l))
        assert got == want


# --- invariants and properties -----------------------------------------------

@given(st.data())
@settings(max_examples=150, deadline=None)
def test_merge_id_unique_and_commutative_up_to_ties(data):
    def cache_strategy():
        return st.lists(
            st.builds(
                item,
                id=st.integers(0, 5),
                src=st.integers(0, 5),
                t=st.integers(0, 4),
            ),
            max_size=8,
        ).map(tuple)

    a = data.draw(cache_strategy())
    b = data.draw(cache_strategy())
    merged = merge_freshest(a, b)
    ids = [it.id for it in merged]
    assert len(ids) == len(set(ids))
    # commutativity on every id whose competing versions differ in timestamp
    forward = {it.id: it for it in merge_freshest(a, b)}
    backward = {it.id: it for it in merge_freshest(b, a)}
    for ident, it in forward.items():
        other = backward[ident]
        if it.timestamp != other.timestamp:
            raise AssertionError("merge kept a stale version on one side")
        versions = {v.timestamp for v in a + b if v.id == ident}
        if len(versions) == len([v for v in a + b if v.id == ident]):
            assert it == other


def rank_from_table(table, n=8):
    """Rank row of a utility table: utility descending, ties to the smaller src."""
    order = sorted(range(n), key=lambda s: (-table[s], s))
    row = [0] * n
    for position, src in enumerate(order):
        row[src] = position
    return row


def random_source_cache(rnd, max_items=8, pool=8, t_pool=6):
    """One item per source (id == src), as the similarity protocol keeps."""
    srcs = rnd.sample(range(pool), rnd.randint(0, min(max_items, pool)))
    return tuple(item(id=s, src=s, t=rnd.randrange(t_pool)) for s in srcs)


def test_retain_equals_public_op_composition():
    rnd = random.Random(505)
    for _ in range(2000):
        owner = rnd.randrange(8)
        k = rnd.randint(1, 6)
        drop = rnd.random() < 0.5
        if rnd.random() < 0.5:
            # rank table from a random utility table: most useful version per
            # id, then the k most useful items
            a, b = random_source_cache(rnd), random_source_cache(rnd)
            tables = [{s: rnd.choice([0.1, 0.4, 0.4, 0.9]) for s in range(8)} for _ in range(8)]
            u = utility_from_table(tables[owner])
            proto = ProtocolSpec(
                name="t", cache_size=k, rank=[rank_from_table(t) for t in tables],
                drop_own_id=drop,
            )
            merged = merge_by_utility(a, b, u)
            assert set(merged) == set(merge_freshest(a, b))
        else:
            # no rank table: freshest version per id, then the k freshest
            a, b = random_cache(rnd), random_cache(rnd)
            u = lambda it: float(it.timestamp)
            proto = ProtocolSpec(name="t", cache_size=k, drop_own_id=drop)
            merged = merge_freshest(a, b)
        if drop:
            merged = tuple(it for it in merged if it.id != owner)
        assert _retain(owner, a, b, proto) == select_top_k(merged, u, k)


# --- exchanges ---------------------------------------------------------------

def make_state(caches, alive=None):
    n = len(caches)
    return GossipState(caches=list(caches), alive=list(alive) if alive else [True] * n)


def test_exchange_dead_responder_raises():
    proto = anti_entropy_protocol(cache_size=4)
    state = make_state([(item(id=0, src=0, t=1),), ()], alive=[True, False])
    with pytest.raises(ResponderUnreachable):
        run_exchange(state, 0, 1, proto, now=1)


def test_anti_entropy_exchange_is_symmetric():
    # distinct timestamps per competing version: the declared tie-breaks
    # never fire, so both sides converge to the same freshest set
    proto = anti_entropy_protocol(cache_size=3)
    a = (item(id=1, src=0, t=5), item(id=2, src=0, t=1))
    b = (item(id=2, src=1, t=9), item(id=3, src=1, t=2), item(id=1, src=1, t=4))
    state = make_state([a, b])
    run_exchange(state, 0, 1, proto, now=10)
    assert set(state.caches[0]) == set(state.caches[1])
    by_id = {it.id: it for it in state.caches[0]}
    assert by_id[1].timestamp == 5 and by_id[2].timestamp == 9


def test_exchange_idempotent_on_identical_caches():
    proto = anti_entropy_protocol(cache_size=8)
    shared = (item(id=1, src=0, t=5), item(id=2, src=1, t=3))
    state = make_state([shared, shared])
    run_exchange(state, 0, 1, proto, now=9)
    assert set(state.caches[0]) == set(shared)
    assert set(state.caches[1]) == set(shared)


def test_exchange_capacity_never_exceeded():
    rnd = random.Random(606)
    proto = anti_entropy_protocol(cache_size=3)
    for _ in range(300):
        state = make_state([random_cache(rnd), random_cache(rnd)])
        run_exchange(state, 0, 1, proto, now=7)
        assert len(state.caches[0]) <= 3
        assert len(state.caches[1]) <= 3
