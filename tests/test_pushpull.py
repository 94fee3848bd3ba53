"""Core protocol steps against brute-force oracles and declared tie-breaks."""

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from gossipcf.pushpull import (
    Cache,
    DataItem,
    GossipState,
    ProtocolSpec,
    _admits,
    _retain,
    run_exchange,
)
from oracles import merge_freshest, select_top_k


def item(src=0, t=0):
    return DataItem(src=src, timestamp=t)


def anti_entropy(cache_size):
    return ProtocolSpec(cache_size=cache_size, global_view=True)


# --- brute-force oracles -----------------------------------------------------

def oracle_merge(cache_a: Cache, cache_b: Cache, key) -> set[DataItem]:
    """Per source, exhaustively scan the union for the best entry.

    ``key(item, side)`` must be a strictly increasing preference tuple; side
    is 1 for cache_a, 0 for cache_b.
    """
    tagged = [(it, 1) for it in cache_a] + [(it, 0) for it in cache_b]
    out = set()
    for src in {it.src for it, _ in tagged}:
        versions = [(key(it, side), it) for it, side in tagged if it.src == src]
        best = max(versions, key=lambda pair: pair[0])
        out.add(best[1])
    return out


def oracle_select(cache: Cache, u, k: int) -> tuple[DataItem, ...]:
    """Global top-k by scanning all orderings of the declared sort key."""
    ranked = sorted(cache, key=lambda it: (-u(it), it.src))
    return tuple(ranked[:k])


# --- worked examples -----------------------------------------------------------

def test_merge_freshest_newer_version_wins():
    a = (item(src=1, t=3),)
    b = (item(src=1, t=5),)
    assert merge_freshest(a, b) == (item(src=1, t=5),)


def test_merge_freshest_identity_on_empty():
    b = (item(src=7, t=0),)
    assert set(merge_freshest((), b)) == set(b)
    assert set(merge_freshest(b, ())) == set(b)


def test_merge_freshest_max_per_id_over_union():
    a = (item(src=1, t=4), item(src=2, t=1))
    b = (item(src=2, t=9), item(src=3, t=2))
    expected = oracle_merge(a, b, key=lambda it, side: (it.timestamp, side))
    assert set(merge_freshest(a, b)) == expected
    assert expected == {item(src=1, t=4), item(src=2, t=9), item(src=3, t=2)}


def test_merge_freshest_tie_prefers_own_side():
    # equal entries, told apart by object identity
    a = (item(src=1, t=4),)
    b = (item(src=1, t=4),)
    assert a[0] is not b[0]
    (kept,) = merge_freshest(a, b)
    assert kept is a[0]
    (kept,) = merge_freshest(b, a)
    assert kept is b[0]


def utility_from_table(table):
    return lambda it: table[it.src]


def test_select_top_k_basic():
    u = utility_from_table({0: 0.9, 1: 0.5, 2: 0.1})
    cache = (item(src=0), item(src=1), item(src=2))
    got = select_top_k(cache, u, 2)
    assert [it.src for it in got] == [0, 1]


def test_select_top_k_when_k_exceeds_cache():
    u = lambda it: float(it.src)
    cache = (item(src=0), item(src=1), item(src=2))
    assert len(select_top_k(cache, u, 20)) == 3


def test_select_top_k_tie_takes_smaller_src():
    u = utility_from_table({5: 0.7, 3: 0.7, 9: 0.2})
    cache = (item(src=5), item(src=3), item(src=9))
    got = select_top_k(cache, u, 1)
    assert got[0].src == 3
    assert got == oracle_select(cache, u, 1)


# --- randomized oracle equivalence -------------------------------------------

def random_cache(rnd, max_items=8, src_pool=8, t_pool=6):
    """A source-unique cache, as every exchange keeps."""
    srcs = rnd.sample(range(src_pool), rnd.randint(0, min(max_items, src_pool)))
    return tuple(item(src=s, t=rnd.randrange(t_pool)) for s in srcs)


def test_merge_freshest_matches_oracle_randomized():
    rnd = random.Random(101)
    for _ in range(1200):
        a, b = random_cache(rnd), random_cache(rnd)
        got = set(merge_freshest(a, b))
        want = oracle_merge(a, b, key=lambda it, side: (it.timestamp, side))
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


# --- invariants and properties -----------------------------------------------

@given(st.data())
@settings(max_examples=150, deadline=None)
def test_merge_id_unique_and_commutative_up_to_ties(data):
    def cache_strategy():
        return st.lists(
            st.builds(item, src=st.integers(0, 5), t=st.integers(0, 4)),
            max_size=8,
            unique_by=lambda it: it.src,
        ).map(tuple)

    a = data.draw(cache_strategy())
    b = data.draw(cache_strategy())
    merged = merge_freshest(a, b)
    srcs = [it.src for it in merged]
    assert len(srcs) == len(set(srcs))
    assert set(srcs) == {it.src for it in a + b}
    # both orders keep the same entries: equally fresh entries are equal
    assert set(merged) == set(merge_freshest(b, a))


def rank_from_table(table, n=8):
    """Rank row of a utility table: utility descending, ties to the smaller src."""
    order = sorted(range(n), key=lambda s: (-table[s], s))
    row = [0] * n
    for position, src in enumerate(order):
        row[src] = position
    return row


def test_retain_equals_public_op_composition():
    rnd = random.Random(505)
    for _ in range(2000):
        owner = rnd.randrange(8)
        k = rnd.randint(1, 6)
        global_view = rnd.random() < 0.5
        a, b = random_cache(rnd), random_cache(rnd)
        if rnd.random() < 0.5:
            # rank table from a random utility table: the k most useful sources
            tables = [{s: rnd.choice([0.1, 0.4, 0.4, 0.9]) for s in range(8)} for _ in range(8)]
            u = utility_from_table(tables[owner])
            proto = ProtocolSpec(
                cache_size=k, rank=[rank_from_table(t) for t in tables], global_view=global_view
            )
        else:
            # no rank table: the k freshest
            u = lambda it: float(it.timestamp)
            proto = ProtocolSpec(cache_size=k, global_view=global_view)
        merged = merge_freshest(a, b)
        if not global_view:
            merged = tuple(it for it in merged if it.src != owner)
        kept, srcs = _retain(owner, a, b, proto)
        assert kept == select_top_k(merged, u, k)
        assert srcs == tuple(it.src for it in kept)


def test_admission_declines_exactly_the_sides_retain_leaves_as_they_are():
    # One side of a rank-table exchange: ``own`` is the owner's cache, and
    # the partner offers its cache, plus a fresh entry about itself when it
    # is the initiator of a partial-view exchange.  A tuple an exchange
    # produced (version > 0) is in rank order, and the admission test is
    # exact on it; a version-0 tuple, full and in any order, is always
    # admitted.
    rnd = random.Random(606)
    seen = Counter()
    for _ in range(4000):
        owner, partner = rnd.sample(range(8), 2)
        k = rnd.randint(1, 6)
        global_view = rnd.random() < 0.3
        tables = [{s: rnd.choice([0.1, 0.4, 0.4, 0.9]) for s in range(8)} for _ in range(8)]
        proto = ProtocolSpec(
            cache_size=k, rank=[rank_from_table(t) for t in tables], global_view=global_view
        )
        produced = rnd.random() < 0.7
        if produced:
            own, _ = _retain(owner, random_cache(rnd), random_cache(rnd), proto)
        else:
            # a full cache in any order, as a hand-built state may hold
            own = tuple(item(src=s) for s in rnd.sample([s for s in range(8) if s != owner], k))
        other = random_cache(rnd)
        if not global_view:
            other = tuple(it for it in other if it.src != partner)
            if rnd.random() < 0.5:
                other += (item(src=partner, t=9),)
        caches = [()] * 8
        caches[owner] = own
        state = GossipState(caches=caches, alive=[True] * 8)
        state.version[owner] = int(produced)
        offered = tuple(it.src for it in other)
        admitted = _admits(state, owner, offered, proto)
        _, retained = _retain(owner, own, other, proto)
        unchanged = retained == state.sources[owner]
        if produced:
            assert admitted != unchanged
        else:
            assert admitted
        if not admitted:
            seen["full" if len(own) == k else "room"] += 1
            seen["owner offered"] += owner in offered
            seen["global view"] += global_view
        elif not produced and not unchanged and set(retained) == set(state.sources[owner]):
            seen["version 0, reordered"] += 1
    for case in ("full", "room", "owner offered", "global view", "version 0, reordered"):
        assert seen[case] > 0, (case, seen)


# --- exchanges ---------------------------------------------------------------

def make_state(caches):
    return GossipState(caches=list(caches), alive=[True] * len(caches))


def test_anti_entropy_exchange_is_symmetric():
    # distinct timestamps per competing version: the declared tie-breaks
    # never fire, so both sides converge to the same freshest set
    proto = anti_entropy(3)
    a = (item(src=2, t=5), item(src=3, t=1))
    b = (item(src=3, t=9), item(src=4, t=2), item(src=2, t=4))
    state = make_state([a, b])
    run_exchange(state, 0, 1, proto, now=10)
    assert set(state.caches[0]) == set(state.caches[1])
    by_src = {it.src: it for it in state.caches[0]}
    assert by_src[2].timestamp == 5 and by_src[3].timestamp == 9


def test_exchange_idempotent_on_identical_caches():
    proto = anti_entropy(8)
    shared = (item(src=0, t=5), item(src=1, t=3))
    state = make_state([shared, shared])
    run_exchange(state, 0, 1, proto, now=9)
    assert set(state.caches[0]) == set(shared)
    assert set(state.caches[1]) == set(shared)


def test_exchange_capacity_never_exceeded():
    rnd = random.Random(606)
    proto = anti_entropy(3)
    for _ in range(300):
        state = make_state([random_cache(rnd), random_cache(rnd)])
        run_exchange(state, 0, 1, proto, now=7)
        assert len(state.caches[0]) <= 3
        assert len(state.caches[1]) <= 3
