"""Vote aggregation, centralized reference, and the matrix-backed fast paths
against the reference implementations in ``oracles``."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipcf.pushpull import DataItem, GossipState
from gossipcf.recommend import (
    RatingMatrix,
    build_training_arrays,
    centralized_neighborhoods,
    tally_votes,
    top_m_mean_table,
    top_n_from_votes,
    weighted_similarity_matrix,
)
from oracles import (
    DeadPeer,
    centralized_recommend,
    cosine_similarity,
    most_frequent_items,
    overlay_recommend,
    profiles,
    significance_weighted_similarity,
)


def entry(peer):
    return DataItem(src=peer, timestamp=0)


def enumeration_tally(ratings: RatingMatrix, active, neighbors) -> dict[int, int]:
    """Independent oracle: count votes by exhaustive scan."""
    votes = {}
    for item in ratings.item_ids:
        count = sum(1 for w in neighbors if item in ratings.rows[w])
        if count and item not in ratings.rows[active]:
            votes[item] = count
    return votes


def test_no_voters_empty_list(tiny_ratings):
    assert most_frequent_items(0, set(), tiny_ratings, 5) == []


def test_worked_vote_tally():
    # neighbors A rated {x, y}, B rated {y, z}; active rated {z}; N=2
    matrix = RatingMatrix(
        {
            1: {3: 4},          # active rated z=3
            2: {1: 5, 2: 3},    # A rated x=1, y=2
            3: {2: 4, 3: 2},    # B rated y=2, z=3
        }
    )
    got = most_frequent_items(0, {1, 2}, matrix, 2)
    assert got == [(2, 2), (1, 1)]


def test_all_candidate_items_consumed(tiny_ratings):
    # active user 0 has rated items 10, 11, 12; a neighbor who rated only
    # those items contributes nothing
    matrix = RatingMatrix({1: {10: 5, 11: 3}, 2: {10: 4, 11: 2}})
    assert most_frequent_items(0, {1}, matrix, 5) == []


def test_ties_break_by_ascending_item_id():
    matrix = RatingMatrix({1: {99: 3}, 2: {7: 5, 5: 4}, 3: {5: 2, 7: 1}})
    got = most_frequent_items(0, {1, 2}, matrix, 2)
    assert got == [(5, 2), (7, 2)]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_tally_matches_enumeration_oracle(data):
    n_users = data.draw(st.integers(2, 7))
    rows = {}
    for u in range(n_users):
        row = data.draw(
            st.dictionaries(st.integers(0, 9), st.integers(1, 5), min_size=1, max_size=6)
        )
        rows[u] = row
    matrix = RatingMatrix(rows)
    active = data.draw(st.integers(0, n_users - 1))
    neighbors = data.draw(
        st.sets(st.integers(0, n_users - 1).filter(lambda w: w != active), max_size=6)
    )
    n_top = data.draw(st.integers(1, 10))
    got = most_frequent_items(active, neighbors, matrix, n_top)
    oracle = enumeration_tally(matrix, active, neighbors)
    want = sorted(oracle.items(), key=lambda p: (-p[1], p[0]))[:n_top]
    assert got == want
    assert len(got) <= n_top
    counts = [c for _, c in got]
    assert counts == sorted(counts, reverse=True)


def test_batch_votes_match_reference(small_ratings):
    arrays = build_training_arrays(small_ratings)
    rnd = random.Random(17)
    for _ in range(200):
        active = rnd.randrange(small_ratings.n_users)
        pool = [w for w in range(small_ratings.n_users) if w != active]
        neighbors = rnd.sample(pool, rnd.randint(0, 15))
        votes = tally_votes(arrays, neighbors)
        got = top_n_from_votes(votes, arrays.rated_cols[active], 10, arrays.item_ids)
        want = most_frequent_items(active, neighbors, small_ratings, 10)
        assert got == want


def test_centralized_two_user_system():
    matrix = RatingMatrix({1: {1: 5, 2: 4}, 2: {1: 4, 3: 2}})
    got = centralized_recommend(0, {0, 1}, matrix, k=5, n_top=5)
    assert got == [(3, 1)]


def test_centralized_recommend_deterministic(tiny_ratings):
    peers = set(range(tiny_ratings.n_users))
    a = centralized_recommend(0, peers, tiny_ratings, k=3, n_top=4)
    b = centralized_recommend(0, peers, tiny_ratings, k=3, n_top=4)
    assert a == b


def test_centralized_batch_matches_reference(small_ratings):
    arrays = build_training_arrays(small_ratings)
    weighted = weighted_similarity_matrix(arrays, threshold=50)
    hoods = centralized_neighborhoods(weighted, k=6)
    peers = set(range(small_ratings.n_users))
    for active in (0, 7, 31, 54, 79):
        votes = tally_votes(arrays, hoods[active])
        got = top_n_from_votes(votes, arrays.rated_cols[active], 10, arrays.item_ids)
        want = centralized_recommend(active, peers, small_ratings, k=6, n_top=10)
        assert got == want


def test_overlay_recommend_uses_cache_and_flags_dead(tiny_ratings):
    caches = [(entry(1), entry(3)), (), (), (), ()]
    state = GossipState(caches=caches, alive=[True, True, True, True, False])
    got = overlay_recommend(0, state, tiny_ratings, 5)
    want = most_frequent_items(0, {1, 3}, tiny_ratings, 5)
    assert got == want
    assert overlay_recommend(1, state, tiny_ratings, 5) == []
    with pytest.raises(DeadPeer):
        overlay_recommend(4, state, tiny_ratings, 5)


def test_overlay_with_global_topk_cache_equals_centralized(small_ratings):
    # when a peer's cache happens to hold exactly the global top-k neighbor
    # set, the same voter set produces the same tally
    arrays = build_training_arrays(small_ratings)
    weighted = weighted_similarity_matrix(arrays, threshold=50)
    hoods = centralized_neighborhoods(weighted, k=8)
    peers = set(range(small_ratings.n_users))
    n = small_ratings.n_users
    for active in (2, 40, 77):
        caches = [() for _ in range(n)]
        caches[active] = tuple(entry(int(w)) for w in hoods[active])
        state = GossipState(caches=caches, alive=[True] * n)
        assert overlay_recommend(active, state, small_ratings, 10) == (
            centralized_recommend(active, peers, small_ratings, k=8, n_top=10)
        )


def test_overlay_recommend_never_contains_consumed(small_ratings):
    rnd = random.Random(3)
    for active in range(0, small_ratings.n_users, 7):
        others = [w for w in range(small_ratings.n_users) if w != active]
        srcs = rnd.sample(others, 10)
        caches = [() for _ in range(small_ratings.n_users)]
        caches[active] = tuple(entry(w) for w in srcs)
        state = GossipState(caches=caches, alive=[True] * small_ratings.n_users)
        for item, _ in overlay_recommend(active, state, small_ratings, 10):
            assert item not in small_ratings.rows[active]


# --- matrix helpers ----------------------------------------------------------

def test_similarity_matrix_matches_pure_cosine(tiny_ratings):
    arrays = build_training_arrays(tiny_ratings)
    rows = profiles(tiny_ratings)
    n = tiny_ratings.n_users
    for v in range(n):
        for w in range(n):
            want = 1.0 if v == w else cosine_similarity(rows[v], rows[w])
            assert arrays.similarity[v, w] == pytest.approx(want, abs=1e-12)


def test_weighted_matrix_matches_pure_function(small_ratings):
    arrays = build_training_arrays(small_ratings)
    weighted = weighted_similarity_matrix(arrays, threshold=20)
    rows = profiles(small_ratings)
    rnd = random.Random(11)
    for _ in range(60):
        v, w = rnd.randrange(80), rnd.randrange(80)
        if v == w:
            continue
        want = significance_weighted_similarity(rows[v], rows[w], 20)
        assert weighted[v, w] == pytest.approx(want, abs=1e-12)


def test_top_m_mean_table_matches_brute_force():
    rng = np.random.default_rng(5)
    sim = rng.random((9, 9))
    sim = (sim + sim.T) / 2
    np.fill_diagonal(sim, 1.0)
    table = top_m_mean_table(sim, k=5)
    for v in range(9):
        others = sorted((sim[v, w] for w in range(9) if w != v), reverse=True)
        for m in range(1, 6):
            assert table[v, m - 1] == pytest.approx(np.mean(others[:m]))


def test_top_m_table_dominates_every_subset_mean():
    rng = np.random.default_rng(6)
    sim = rng.random((8, 8))
    np.fill_diagonal(sim, 1.0)
    table = top_m_mean_table(sim, k=4)
    for v in range(8):
        others = [w for w in range(8) if w != v]
        for m in (1, 2, 3, 4):
            best = table[v, m - 1]
            for subset in itertools.combinations(others, m):
                assert best >= np.mean([sim[v, w] for w in subset]) - 1e-12


def test_rating_matrix_validation():
    with pytest.raises(ValueError):
        RatingMatrix({})
    with pytest.raises(ValueError):
        RatingMatrix({1: {}})
    with pytest.raises(ValueError):
        RatingMatrix({1: {1: 9}})
