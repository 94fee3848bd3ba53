"""Reference similarity functions and the partial-view protocols."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipcf.pushpull import DataItem, ProtocolSpec, rank_table, run_exchange
from oracles import (
    EmptyProfile,
    RatingProfile,
    cache_of,
    cosine_similarity,
    overlap,
    significance_weighted_similarity,
    state_of,
)

profiles_st = st.dictionaries(
    keys=st.integers(0, 30), values=st.integers(1, 5), min_size=1, max_size=12
)


def brute_cosine(pv: dict, pw: dict) -> float:
    items = set(pv) | set(pw)
    dot = sum(pv.get(i, 0) * pw.get(i, 0) for i in items)
    nv = math.sqrt(sum(v * v for v in pv.values()))
    nw = math.sqrt(sum(v * v for v in pw.values()))
    return dot / (nv * nw)


def test_cosine_identical_profiles_is_one():
    p = RatingProfile({1: 4, 2: 2, 3: 5})
    assert cosine_similarity(p, p) == pytest.approx(1.0)


def test_cosine_disjoint_profiles_is_zero():
    assert cosine_similarity(RatingProfile({1: 4}), RatingProfile({2: 5})) == 0.0


def test_cosine_worked_example():
    v = RatingProfile({"a": 4, "b": 2})
    w = RatingProfile({"a": 2, "b": 4})
    assert cosine_similarity(v, w) == pytest.approx(16 / 20)


def test_cosine_empty_profile_raises():
    with pytest.raises(EmptyProfile):
        cosine_similarity(RatingProfile({}), RatingProfile({1: 3}))


@given(profiles_st, profiles_st)
@settings(max_examples=200, deadline=None)
def test_cosine_symmetric_bounded_and_matches_brute_force(pv, pw):
    v, w = RatingProfile(pv), RatingProfile(pw)
    s = cosine_similarity(v, w)
    assert s == pytest.approx(cosine_similarity(w, v))
    assert -1e-12 <= s <= 1.0 + 1e-12
    assert s == pytest.approx(brute_cosine(pv, pw))


def test_significance_weighting_saturates_at_threshold():
    v = RatingProfile({i: 3 for i in range(60)})
    w = RatingProfile({i: 4 for i in range(60)})
    assert overlap(v, w) == 60
    assert significance_weighted_similarity(v, w, 50) == pytest.approx(
        cosine_similarity(v, w)
    )


def test_significance_weighting_zero_overlap():
    v = RatingProfile({1: 3})
    w = RatingProfile({2: 4})
    assert significance_weighted_similarity(v, w, 50) == 0.0


def test_significance_weighting_scales_by_overlap():
    # cosine 0.8 with overlap 25 and threshold 50 halves to 0.4
    common_v = {i: 4 for i in range(25)}
    common_w = {i: 2 for i in range(25)}
    # pad both profiles with disjoint items tuned so cosine is exactly 0.8:
    # dot = 25*8 = 200; need norms product 250 -> norm_v * norm_w = 250
    # norm_v^2 = 25*16 + x, norm_w^2 = 25*4 + y; choose x=225 (9 items of 5^2),
    # y = (250^2 / 625) - 100 = 0  -> adjust w instead of exact padding
    v = RatingProfile({**common_v, **{100 + i: 5 for i in range(9)}})
    w = RatingProfile(common_w)
    got_cos = cosine_similarity(v, w)
    assert got_cos == pytest.approx(0.8)
    assert significance_weighted_similarity(v, w, 50) == pytest.approx(0.4)


@given(profiles_st, profiles_st, st.integers(1, 80))
@settings(max_examples=150, deadline=None)
def test_significance_weighting_never_exceeds_cosine(pv, pw, threshold):
    v, w = RatingProfile(pv), RatingProfile(pw)
    weighted = significance_weighted_similarity(v, w, threshold)
    assert weighted <= cosine_similarity(v, w) + 1e-12
    assert weighted >= -1e-12


def test_profile_snapshot_unaffected_by_source_mutation():
    source = {1: 5, 2: 3}
    profile = RatingProfile(source)
    source[9] = 4
    assert 9 not in profile
    assert len(profile) == 2


def test_profile_rejects_out_of_scale_ratings():
    with pytest.raises(ValueError):
        RatingProfile({1: 6})
    with pytest.raises(ValueError):
        RatingProfile({1: 0})


# --- the similarity instance -------------------------------------------------

def entry(peer, t=0):
    """The cache entry about ``peer``, created at time ``t``."""
    return DataItem(src=peer, timestamp=t)


def newscast(cache_size):
    return ProtocolSpec(cache_size=cache_size)


def build_sim_protocol(profile_dicts, cache_size):
    profiles = [RatingProfile(d) for d in profile_dicts]
    n = len(profiles)
    rows = [
        [
            cosine_similarity(profiles[v], profiles[w]) if v != w else 1.0
            for w in range(n)
        ]
        for v in range(n)
    ]
    return ProtocolSpec(cache_size=cache_size, rank=rank_table(rows))


def test_swarmix_exchange_pushes_self_item_to_responder():
    profile_dicts = [{1: 5, 2: 4}, {1: 4, 3: 2}, {2: 5, 3: 4}]
    proto = build_sim_protocol(profile_dicts, cache_size=2)
    state = state_of([(entry(2),), (entry(2),), ()], stamped=False)
    run_exchange(state, 0, 1, proto, now=3)
    assert 0 in state.sources[1]  # the initiator's fresh item arrived


def pushed_self_item(now):
    """Peer 0's self-item as it lands in peer 1's cache in an exchange at ``now``."""
    proto = newscast(4)
    state = state_of([(entry(2),), (entry(2),), ()])
    run_exchange(state, 0, 1, proto, now=now)
    return next(it for it in cache_of(state, 1) if it.src == 0)


def test_exchange_pushes_initiator_entry_stamped_now():
    # run_exchange builds the self-item: the entry about the initiator,
    # stamped with the exchange time
    it = pushed_self_item(7)
    assert it.src == 0 and it.timestamp == 7
    assert it == entry(0, 7)


def test_later_self_entry_push_replaces_earlier():
    # two pushes by the same initiator differ only in their timestamps, and a
    # later push replaces the earlier entry in the responder's cache
    a, b = pushed_self_item(7), pushed_self_item(8)
    assert a.src == b.src
    assert a.timestamp == 7 and b.timestamp == 8
    proto = newscast(4)
    state = state_of([(entry(2),), (entry(2),), ()])
    run_exchange(state, 0, 1, proto, now=7)
    run_exchange(state, 0, 1, proto, now=8)
    assert entry(0, 8) in cache_of(state, 1)
    assert entry(0, 7) not in cache_of(state, 1)


def test_swarmix_exchange_never_retains_own_item():
    profile_dicts = [{1: 5}, {1: 5}, {1: 5}]
    proto = build_sim_protocol(profile_dicts, cache_size=3)
    # both caches already carry copies of each peer's own item in transit
    state = state_of([(entry(0), entry(1)), (entry(1), entry(0)), ()], stamped=False)
    run_exchange(state, 0, 1, proto, now=2)
    assert 0 not in state.sources[0]
    assert 1 not in state.sources[1]


def test_swarmix_asymmetry_witness():
    """Distinct profiles with k=2: one exchange leaves different caches."""
    profile_dicts = [
        {1: 5, 2: 5},
        {1: 5, 3: 5},
        {2: 5, 3: 1},
        {3: 5, 4: 5},
    ]
    proto = build_sim_protocol(profile_dicts, cache_size=2)
    state = state_of([(entry(2), entry(3)), (entry(3), entry(2)), (), ()], stamped=False)
    run_exchange(state, 0, 1, proto, now=1)
    assert set(state.sources[0]) != set(state.sources[1])


def test_newscast_keeps_freshest():
    proto = newscast(2)
    old = entry(5, 1)
    older = entry(6, 0)
    state = state_of([(old, older), (old,)])
    run_exchange(state, 0, 1, proto, now=9)
    # initiator's fresh self-item (t=9) lands in the responder cache
    by_src = {it.src: it for it in cache_of(state, 1)}
    assert by_src[0].timestamp == 9
    assert all(len(srcs) <= 2 for srcs in state.sources)
