"""Core protocol steps against brute-force oracles and declared tie-breaks."""

import random
from array import array
from collections import Counter

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from gossipcf.pushpull import (
    Cache,
    DataItem,
    GossipState,
    ProtocolSpec,
    _admissible,
    _admits,
    _cut,
    _freshest,
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


def freshest_side(owner, own, other, proto):
    """One side of a timestamp-protocol exchange, by the reference merge and select."""
    merged = merge_freshest(own, other)
    if not proto.global_view:
        merged = tuple(it for it in merged if it.src != owner)
    kept = select_top_k(merged, lambda it: float(it.timestamp), proto.cache_size)
    return kept, tuple(it.src for it in kept)


def test_retain_equals_public_op_composition():
    # Each side of an exchange against the reference merge and select: a
    # rank-table side (always a partial view) through ``_retain``, and a
    # freshest-first side through ``_cut(_freshest(...))``, as the exchange
    # runs them.
    rnd = random.Random(505)
    for _ in range(2000):
        owner = rnd.randrange(8)
        k = rnd.randint(1, 6)
        a, b = random_cache(rnd), random_cache(rnd)
        if rnd.random() < 0.5:
            # rank table from a random utility table: the k most useful sources
            tables = [{s: rnd.choice([0.1, 0.4, 0.4, 0.9]) for s in range(8)} for _ in range(8)]
            u = utility_from_table(tables[owner])
            proto = ProtocolSpec(cache_size=k, rank=[rank_from_table(t) for t in tables])
            merged = tuple(it for it in merge_freshest(a, b) if it.src != owner)
            kept, srcs = _retain(owner, a, b, proto)
            assert kept == select_top_k(merged, u, k)
            assert srcs == tuple(it.src for it in kept)
        else:
            # no rank table: the k freshest
            proto = ProtocolSpec(cache_size=k, global_view=rnd.random() < 0.5)
            assert _cut(_freshest(a, b), owner, proto) == freshest_side(owner, a, b, proto)


def test_admission_declines_exactly_the_sides_retain_leaves_as_they_are():
    # One side of a rank-table exchange, which is always a partial-view
    # one: ``own`` is the owner's cache, and the partner offers its cache,
    # plus a fresh entry about itself when it is the initiator.  A tuple an
    # exchange produced (version > 0) is in rank order, and the admission
    # test is exact on it; a version-0 tuple, full and in any order, is
    # always admitted.
    rnd = random.Random(606)
    seen = Counter()
    for _ in range(4000):
        owner, partner = rnd.sample(range(8), 2)
        k = rnd.randint(1, 6)
        tables = [{s: rnd.choice([0.1, 0.4, 0.4, 0.9]) for s in range(8)} for _ in range(8)]
        proto = ProtocolSpec(cache_size=k, rank=[rank_from_table(t) for t in tables])
        produced = rnd.random() < 0.7
        if produced:
            own, _ = _retain(owner, random_cache(rnd), random_cache(rnd), proto)
        else:
            # a full cache in any order, as a hand-built state may hold
            own = tuple(item(src=s) for s in rnd.sample([s for s in range(8) if s != owner], k))
        other = tuple(it for it in random_cache(rnd) if it.src != partner)
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
        elif not produced and not unchanged and set(retained) == set(state.sources[owner]):
            seen["version 0, reordered"] += 1
    for case in ("full", "room", "owner offered", "version 0, reordered"):
        assert seen[case] > 0, (case, seen)


@st.composite
def partial_view_exchanges(draw, rank_tables=st.booleans()):
    """A swarmix or newscast exchange between two live peers of a small state.

    Under swarmix a cache with ``version > 0`` is in rank order, as an
    exchange leaves it; a version-0 cache is in any order.
    """
    n = draw(st.integers(3, 8))
    k = draw(st.integers(1, n - 1))
    swarmix = draw(rank_tables)
    rank = None
    if swarmix:
        utility = st.sampled_from([0.1, 0.4, 0.9])
        tables = draw(st.lists(st.lists(utility, min_size=n, max_size=n), min_size=n, max_size=n))
        rank = [rank_from_table(table, n) for table in tables]
    caches, versions = [], []
    for v in range(n):
        srcs = draw(st.lists(st.sampled_from([w for w in range(n) if w != v]), unique=True,
                             max_size=k))
        version = draw(st.integers(0, 2))
        if swarmix and version:
            srcs.sort(key=rank[v].__getitem__)
        caches.append(tuple(item(src=s, t=draw(st.integers(0, 4))) for s in srcs))
        versions.append(version)
    initiator, responder = draw(st.permutations(range(n)))[:2]
    return ProtocolSpec(cache_size=k, rank=rank), caches, versions, initiator, responder


@given(partial_view_exchanges())
@example((  # a full responder that nothing offered outranks declines
    ProtocolSpec(cache_size=1, rank=[[0, 1, 2], [0, 1, 2], [0, 1, 2]]),
    [(item(src=1),), (item(src=0),), (item(src=0),)], [1, 1, 1], 1, 2,
))
@example((  # version 0 everywhere, as the bootstrap leaves it
    ProtocolSpec(cache_size=2), [(item(src=1),), (item(src=2), item(src=0)), ()], [0, 0, 0], 2, 1,
))
@settings(max_examples=300, deadline=None)
def test_partial_view_exchange_never_shrinks_a_cache(case):
    # The engine draws a whole cycle's partners up front when every peer is
    # alive and every cache is full; that needs each cache to stay full.
    protocol, caches, versions, initiator, responder = case
    state = GossipState(caches=list(caches), alive=[True] * len(caches))
    state.version[:] = versions
    before = {peer: state.caches[peer] for peer in (initiator, responder)}
    run_exchange(state, initiator, responder, protocol, now=5)
    k = protocol.cache_size
    for peer, cache in before.items():
        after = state.sources[peer]
        assert len(after) >= len(cache)
        if len(cache) == k:
            assert len(after) == k
        if state.caches[peer] is cache:
            event("a declined side")
        if not versions[peer]:
            event("a version-0 side")


@st.composite
def admission_cases(draw):
    """One owner at ``version > 0`` of a rank-table state, and an offered tuple.

    The owner's sources are in rank order, as an exchange leaves them, and
    fill its cache or leave room; the offered ids may include the owner.
    The rank rows are ``array('i')``, as ``rank_table`` builds them, or lists.
    """
    n = draw(st.integers(2, 20))
    k = draw(st.integers(1, n - 1))
    owner = draw(st.integers(0, n - 1))
    utility = st.sampled_from([0.1, 0.4, 0.9])
    row = rank_from_table(draw(st.lists(utility, min_size=n, max_size=n)), n)
    if draw(st.booleans()):
        row = array("i", row)
    size = draw(st.integers(0, k))
    own = draw(st.lists(st.sampled_from([w for w in range(n) if w != owner]), unique=True,
                        min_size=size, max_size=size))
    own.sort(key=row.__getitem__)
    offered = draw(st.lists(st.integers(0, n - 1), unique=True))
    caches = [()] * n
    caches[owner] = tuple(item(src=s) for s in own)
    state = GossipState(caches=caches, alive=[True] * n)
    state.version[owner] = draw(st.integers(1, 3))
    return ProtocolSpec(cache_size=k, rank=[row] * n), state, owner, tuple(offered)


@given(admission_cases())
@settings(max_examples=400, deadline=None)
def test_admissible_bitset_decides_as_admits(case):
    # A side's recorded bitset, ANDed with the offered sources' bitset,
    # must give the admission test's answer on every rank-ordered tuple.
    protocol, state, owner, offered = case
    bits = _admissible(state, owner, protocol)
    admitted = _admits(state, owner, offered, protocol)
    assert bool(bits & sum(1 << src for src in offered)) == admitted
    event("full" if len(state.sources[owner]) == protocol.cache_size else "room")
    event("owner offered" if owner in offered else "owner not offered")
    event("array rows" if isinstance(protocol.rank[owner], array) else "list rows")
    event("admitted" if admitted else "declined")


@given(partial_view_exchanges(st.just(True)), st.booleans())
@settings(max_examples=300, deadline=None)
def test_exchange_decided_by_recorded_bitsets_equals_one_decided_by_admits(case, arrays):
    # The same swarmix exchange on two copies of a state: in one, every side
    # at ``version > 0`` has its bitset recorded; in the other, none has.
    # Both must leave the same caches, sources and versions, and a side
    # whose version moved must keep no memo of its old sources.
    protocol, caches, versions, initiator, responder = case
    if arrays:
        protocol = ProtocolSpec(protocol.cache_size, [array("i", row) for row in protocol.rank])
    states = []
    for record in (True, False):
        state = GossipState(caches=list(caches), alive=[True] * len(caches))
        state.version[:] = versions
        for peer in (initiator, responder):
            if record and versions[peer]:
                state.admissible[peer] = _admissible(state, peer, protocol)
                event("a side decided by a recorded bitset")
        run_exchange(state, initiator, responder, protocol, now=5)
        states.append(state)
    recorded, tested = states
    assert recorded.caches == tested.caches
    assert recorded.sources == tested.sources
    assert recorded.version == tested.version
    for state in states:
        for p in (initiator, responder):
            if state.version[p] != versions[p]:
                assert state.admissible[p] is None and state.held[p] is None
                event("a side's version moved")
    if any(versions[p] and recorded.caches[p] is caches[p] for p in (initiator, responder)):
        event("a recorded side declined")


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


def test_timestamp_exchange_equals_two_retain_calls():
    # newscast and anti-entropy merge once per exchange and cut each side
    # from that one order; each side must still get exactly what the
    # reference merge and select give it on the caches before the exchange
    rnd = random.Random(707)
    seen = Counter()
    for _ in range(300):
        global_view = rnd.random() < 0.5
        state = make_state([random_cache(rnd) for _ in range(8)])
        for step in range(6):
            initiator, responder = rnd.sample(range(8), 2)
            k = rnd.randint(1, 11)
            proto = ProtocolSpec(cache_size=k, global_view=global_view)
            caches = state.caches
            if rnd.random() < 0.5:
                # shared sources at equal timestamps on both sides
                mine = {it.src for it in caches[initiator]}
                copied = [it for it in caches[responder] if it.src not in mine]
                caches[initiator] += tuple(copied[: rnd.randint(0, len(copied))])
                seen["equal timestamps"] += bool(set(caches[initiator]) & set(caches[responder]))
            if rnd.random() < 0.3:
                # a stale entry about the initiator in the responder's cache
                kept = tuple(it for it in caches[responder] if it.src != initiator)
                caches[responder] = kept + (item(src=initiator, t=0),)
                seen["stale initiator entry"] += 1
            state.sources[initiator] = tuple(it.src for it in caches[initiator])
            state.sources[responder] = tuple(it.src for it in caches[responder])
            now = 6 + step
            pushed = caches[initiator]
            if not global_view:
                pushed += (item(src=initiator, t=now),)
            pulled = caches[responder]
            union = {it.src for it in pushed + pulled}
            seen["k over union"] += k > len(union)
            seen["version 0"] += state.version[initiator] == state.version[responder] == 0
            want = {
                initiator: freshest_side(initiator, pushed, pulled, proto),
                responder: freshest_side(responder, pulled, pushed, proto),
            }
            versions = list(state.version)
            before = list(state.sources)
            run_exchange(state, initiator, responder, proto, now=now)
            for peer, (cache, srcs) in want.items():
                assert state.caches[peer] == cache
                assert state.sources[peer] == srcs
                assert state.version[peer] == versions[peer] + (srcs != before[peer])
            seen["anti-entropy" if global_view else "newscast"] += 1
    for case in ("equal timestamps", "stale initiator entry", "k over union", "version 0",
                 "anti-entropy", "newscast"):
        assert seen[case] > 0, (case, seen)
