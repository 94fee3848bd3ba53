"""Vote aggregation, centralized reference, and the matrix-backed fast paths
against the reference implementations in ``oracles``."""

import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipcf.pushpull import GossipState, rank_table
from gossipcf.recommend import (
    MAX_ITEM_ID,
    RatingMatrix,
    build_training_arrays,
    centralized_neighborhoods,
    tally_votes,
    top_m_mean_table,
    top_n_from_votes,
    weighted_similarity_matrix,
)
from gossipcf.synth import generate_ratings
from oracles import (
    DeadPeer,
    RatingProfile,
    centralized_recommend,
    cosine_similarity,
    most_frequent_items,
    overlay_recommend,
    profiles,
    ranked_pairs,
    row_of,
    rows_of,
    significance_weighted_similarity,
    sorted_top_n,
)


def enumeration_tally(ratings: RatingMatrix, active, neighbors) -> dict[int, int]:
    """Independent oracle: count votes by exhaustive scan."""
    votes = {}
    rows = rows_of(ratings)
    for item in ratings.item_ids.tolist():
        count = sum(1 for w in neighbors if item in rows[w])
        if count and item not in rows[active]:
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
        cols, top = top_n_from_votes(votes, arrays.rated_cols[active], 10, len(neighbors))
        want = most_frequent_items(active, neighbors, small_ratings, 10)
        assert ranked_pairs(cols, top, arrays.item_ids) == want


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_top_n_from_votes_matches_sorted_reference(data):
    # Rows of columns and votes, padded with -1 and 0; named by their item
    # ids, the listed columns are the full sort's top N.  Every bound at or
    # above the largest vote gives the same rows.
    m = data.draw(st.integers(1, 60), label="m")
    # The largest vote sets the sort key's width: 8 bits, 16 bits or wider.
    most = data.draw(
        st.one_of(
            st.just(0), st.integers(1, 255), st.integers(256, 65_535),
            st.integers(65_536, 2**40),
        ),
        label="most",
    )
    # Few distinct counts, so most columns tie with others.
    levels = data.draw(st.lists(st.integers(0, most), min_size=1, max_size=4)) + [most]
    votes = np.array(
        data.draw(st.lists(st.sampled_from(levels), min_size=m, max_size=m)), dtype=np.int64
    )
    if data.draw(st.booleans(), label="exclude all"):
        exclude = np.arange(m, dtype=np.int32)
    else:
        exclude = np.array(sorted(data.draw(st.sets(st.integers(0, m - 1)))), dtype=np.int32)
    n_top = data.draw(st.integers(1, m + 3), label="n_top")
    item_ids = np.cumsum(
        data.draw(st.lists(st.integers(1, 9), min_size=m, max_size=m)), dtype=np.int64
    )
    slack = data.draw(
        st.one_of(st.just(0), st.integers(1, 300), st.integers(301, 2**41)), label="slack"
    )
    before = votes.copy()
    cols, top = top_n_from_votes(votes, exclude, n_top, most)
    want = sorted_top_n(votes, exclude, n_top, item_ids)
    assert ranked_pairs(cols, top, item_ids) == want
    assert cols.shape == top.shape == (n_top,)
    assert (cols[len(want):] == -1).all() and (top[len(want):] == 0).all()
    loose_cols, loose_top = top_n_from_votes(votes, exclude, n_top, most + slack)
    assert np.array_equal(loose_cols, cols) and np.array_equal(loose_top, top)
    if votes.max() < most:
        tight_cols, tight_top = top_n_from_votes(votes, exclude, n_top, int(votes.max()))
        assert np.array_equal(tight_cols, cols) and np.array_equal(tight_top, top)
    assert np.array_equal(votes, before)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_tally_votes_matches_binary_row_sums(data):
    n_users = data.draw(st.integers(1, 8))
    rows = {
        10 * u: data.draw(
            st.dictionaries(st.integers(0, 30), st.integers(1, 5), min_size=1, max_size=8)
        )
        for u in range(n_users)
    }
    matrix = RatingMatrix(rows)
    arrays = build_training_arrays(matrix)
    item_ids = matrix.item_ids.tolist()
    for v, row in enumerate(rows_of(matrix)):
        want_cols = sorted(item_ids.index(item) for item in row)
        assert arrays.rated_cols[v].tolist() == want_cols
        assert np.flatnonzero(arrays.binary[v]).tolist() == want_cols
    # Neighbor lists may repeat a peer or be empty.
    neighbors = data.draw(st.lists(st.integers(0, n_users - 1), max_size=12))
    got = tally_votes(arrays, neighbors)
    want = arrays.binary[neighbors].sum(axis=0, dtype=np.int64)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)
    assert np.array_equal(tally_votes(arrays, np.array(neighbors, dtype=np.int32)), want)


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
        cols, top = top_n_from_votes(votes, arrays.rated_cols[active], 10, hoods.shape[1])
        want = centralized_recommend(active, peers, small_ratings, k=6, n_top=10)
        assert ranked_pairs(cols, top, arrays.item_ids) == want


def test_overlay_recommend_uses_cache_and_flags_dead(tiny_ratings):
    state = GossipState([(1, 3), (), (), (), ()])
    alive = [True, True, True, True, False]
    got = overlay_recommend(0, state, alive, tiny_ratings, 5)
    want = most_frequent_items(0, {1, 3}, tiny_ratings, 5)
    assert got == want
    assert overlay_recommend(1, state, alive, tiny_ratings, 5) == []
    with pytest.raises(DeadPeer):
        overlay_recommend(4, state, alive, tiny_ratings, 5)


def test_overlay_with_global_topk_cache_equals_centralized(small_ratings):
    # when a peer's cache happens to hold exactly the global top-k neighbor
    # set, the same voter set produces the same tally
    arrays = build_training_arrays(small_ratings)
    weighted = weighted_similarity_matrix(arrays, threshold=50)
    hoods = centralized_neighborhoods(weighted, k=8)
    peers = set(range(small_ratings.n_users))
    n = small_ratings.n_users
    for active in (2, 40, 77):
        sources = [() for _ in range(n)]
        sources[active] = tuple(int(w) for w in hoods[active])
        state = GossipState(sources)
        assert overlay_recommend(active, state, [True] * n, small_ratings, 10) == (
            centralized_recommend(active, peers, small_ratings, k=8, n_top=10)
        )


def test_overlay_recommend_never_contains_consumed(small_ratings):
    rnd = random.Random(3)
    for active in range(0, small_ratings.n_users, 7):
        others = [w for w in range(small_ratings.n_users) if w != active]
        srcs = rnd.sample(others, 10)
        sources = [() for _ in range(small_ratings.n_users)]
        sources[active] = tuple(srcs)
        state = GossipState(sources)
        alive = [True] * small_ratings.n_users
        for item, _ in overlay_recommend(active, state, alive, small_ratings, 10):
            assert item not in row_of(small_ratings, active)


# --- matrix helpers ----------------------------------------------------------

def test_similarity_matrix_matches_pure_cosine(tiny_ratings):
    # The half-star profiles come from the mapping, not from the matrix, so
    # a rating the matrix did not hold exactly would show.
    half_star = {1: {10: 4.5, 11: 3}, 2: {10: 4, 12: 2.5}, 3: {11: 1.5, 12: 5, 13: 3}}
    cases = [
        (tiny_ratings, profiles(tiny_ratings)),
        (RatingMatrix(half_star), [RatingProfile(half_star[key]) for key in sorted(half_star)]),
    ]
    for ratings, rows in cases:
        arrays = build_training_arrays(ratings)
        n = ratings.n_users
        for v in range(n):
            for w in range(n):
                want = 1.0 if v == w else cosine_similarity(rows[v], rows[w])
                assert arrays.similarity[v, w] == pytest.approx(want, abs=1e-12)


def test_weighted_matrix_matches_pure_function(small_ratings):
    arrays = build_training_arrays(small_ratings)
    blocks = list(weighted_similarity_matrix(arrays, threshold=20))
    assert [block.shape[0] for block in blocks] == [64, 16]
    weighted = np.vstack(blocks)
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


def tie_heavy_matrices():
    """Square matrices whose rows are full of ties, as (name, matrix) pairs.

    n = 130 leaves a partial last block of 2 rows after two blocks of 64.
    """
    rng = np.random.default_rng(12)
    for n in (2, 5, 64, 130):
        coarse = rng.choice([0.0, 0.25, 0.5, 1.0], size=(n, n))
        yield "repeated values", coarse
        zeros = coarse.copy()
        zeros[rng.random(n) < 0.3] = 0.0
        yield "all-zero rows", zeros
        signed = coarse.copy()
        signed[rng.random((n, n)) < 0.3] = -0.0
        signed[rng.random((n, n)) < 0.3] = 0.0
        yield "-0.0 next to 0.0", signed
        yield "distinct values", rng.random((n, n))


def row_blocks(matrix, size):
    """``matrix`` as blocks of ``size`` rows, top to bottom."""
    return [matrix[start : start + size] for start in range(0, matrix.shape[0], size)]


def test_centralized_neighborhoods_matches_stable_argsort_on_ties():
    # 64-row blocks, as weighted_similarity_matrix yields them, and 1-row blocks
    for name, weighted in tie_heavy_matrices():
        n = weighted.shape[0]
        key = -weighted
        np.fill_diagonal(key, np.inf)
        order = np.argsort(key, axis=1, kind="stable")
        for k in sorted({1, 3, n // 2, n - 1, n + 4}):
            want = order[:, : min(k, n - 1)]
            for size in (64, 1):
                got = centralized_neighborhoods(row_blocks(weighted, size), k)
                assert got.dtype == np.int32
                assert np.array_equal(got, want), (name, n, k, size)


def test_top_m_mean_table_matches_whole_row_sort_on_ties():
    for name, similarity in tie_heavy_matrices():
        n = similarity.shape[0]
        key = -similarity
        np.fill_diagonal(key, np.inf)
        key.sort(axis=1)
        for k in sorted({1, min(3, n - 1), n // 2, n - 1}):
            want = np.cumsum(-key[:, :k], axis=1) / np.arange(1, k + 1, dtype=np.float64)
            assert np.array_equal(top_m_mean_table(similarity, k), want), (name, n, k)


def test_reference_holds_no_n_by_n_float64_temporary():
    # The float32 co-rated product is the one n-by-n array the reference
    # adds; the twin has fewer items than users, so the float32 copy of
    # binary fits in the same bound.  A whole-matrix negation, rounding,
    # cap or weighting would not.
    ratings = RatingMatrix(
        generate_ratings(n_users=400, n_items=150, target_ratings=12_000, seed=3)
    )
    arrays = build_training_arrays(ratings)
    square = ratings.n_users**2 * 8  # one n-by-n float64
    top_m = lambda: top_m_mean_table(arrays.similarity, 20)
    hoods = lambda: centralized_neighborhoods(weighted_similarity_matrix(arrays, 50), 20)
    for reference, bound in ((top_m, square), (hoods, square + square // 2)):
        tracemalloc.start()
        try:
            reference()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound


def test_rank_table_matches_stable_argsort_on_ties():
    for name, similarity in tie_heavy_matrices():
        n = similarity.shape[0]
        order = np.argsort(-similarity, axis=1, kind="stable")
        want = np.empty((n, n), dtype=np.int64)
        np.put_along_axis(want, order, np.arange(n)[None, :], axis=1)
        got = rank_table(similarity)
        assert len(got) == n and all(row.format == "i" for row in got)
        assert np.array_equal(np.array([row.tolist() for row in got]), want), (name, n)


def test_rating_matrix_validation():
    with pytest.raises(ValueError):
        RatingMatrix({})
    with pytest.raises(ValueError):
        RatingMatrix({1: {}})
    with pytest.raises(ValueError):
        RatingMatrix({1: {1: 9}})
    # the message names the first rating outside the scale, in row order
    with pytest.raises(ValueError, match=r"^rating 0 outside 1\.\.5$"):
        RatingMatrix({1: {1: 3, 2: 0, 3: 7}, 2: {1: 9}})


def ten_users_with_item(item):
    return {u: {item: 3, 1: 4, 2: 5, 3 + u: 2} for u in range(10)}


@pytest.mark.parametrize("item", [-1, 2**24, 2**40])
def test_rating_matrix_rejects_item_ids_outside_the_table(item):
    # The strict checker maps ids to columns through a table indexed by id,
    # and a negative id would match the -1 padding of a top-N row.
    with pytest.raises(ValueError, match=rf"^item id {item} outside 0\.\.{MAX_ITEM_ID}$"):
        RatingMatrix(ten_users_with_item(item))


def test_rating_matrix_accepts_the_largest_item_id():
    assert MAX_ITEM_ID == 2**24 - 1
    assert RatingMatrix(ten_users_with_item(MAX_ITEM_ID)).item_ids[-1] == MAX_ITEM_ID


@pytest.mark.parametrize(
    "row",
    [{10: float("nan"), 11: 3}, {10: 3, 11: float("nan")}, {10: 3, 11: float("nan"), 12: 5}],
    ids=["first", "last", "middle"],
)
def test_rating_matrix_rejects_nan_anywhere_in_a_row(row):
    # min() and max() skip over a NaN that is not the first value
    with pytest.raises(ValueError, match=r"^rating nan outside 1\.\.5$"):
        RatingMatrix({1: row, 2: {10: 4}})
