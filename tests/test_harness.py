"""Dataset loading, split soundness, trial aggregation, churn sweeps."""

import dataclasses
import functools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from gossipcf import harness
from gossipcf.engine import ChurnSpec, InvalidConfig, SimConfig
from gossipcf.harness import (
    ParseError,
    RangeError,
    UserTooSparse,
    _check_snapshot,
    all_but_1_split,
    centralized_baseline,
    churn_sweep,
    load_ratings,
    run_experiment,
    run_trial,
    split_seed,
)
from gossipcf.metrics import hit_rates
from gossipcf.recommend import (
    MAX_ITEM_ID,
    RatingMatrix,
    build_training_arrays,
    centralized_neighborhoods,
    hidden_columns,
    top_m_mean_table,
    weighted_similarity_matrix,
)
from gossipcf.synth import generate_ratings, write_ratings_file
from oracles import centralized_recommend, row_of, rows_of, split_rows
from test_metrics import make_snapshot


# --- loading -----------------------------------------------------------------

def test_load_ratings_roundtrip(tmp_path):
    path = tmp_path / "r.data"
    path.write_text("1\t10\t5\t0\n1\t11\t3\t0\n2\t10\t4\t99\n", encoding="utf-8")
    matrix = load_ratings(path)
    assert matrix.n_users == 2
    assert matrix.n_items == 2
    assert matrix.n_ratings == 3
    assert row_of(matrix, 0) == {10: 5, 11: 3}


def test_load_ratings_accepts_three_fields(tmp_path):
    path = tmp_path / "r.data"
    path.write_text("1\t10\t5\n", encoding="utf-8")
    assert load_ratings(path).n_ratings == 1


def test_load_ratings_empty_file_raises(tmp_path):
    path = tmp_path / "empty.data"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ParseError):
        load_ratings(path)


def test_load_ratings_malformed_line_raises(tmp_path):
    path = tmp_path / "bad.data"
    path.write_text("1\t10\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_ratings(path)
    path.write_text("1\tten\t5\t0\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_ratings(path)


def test_load_ratings_range_violation_raises(tmp_path):
    path = tmp_path / "bad.data"
    # a rating off the scale, and item ids the pipeline cannot hold
    for line in ("1\t10\t6\t0", "1\t-1\t5\t0", f"1\t{2**24}\t5\t0", f"1\t{2**62}\t5\t0"):
        path.write_text(f"1\t11\t4\t0\n{line}\n", encoding="utf-8")
        with pytest.raises(RangeError, match=r"bad\.data:2: "):
            load_ratings(path)


def test_load_ratings_duplicate_cell_raises(tmp_path):
    path = tmp_path / "dup.data"
    path.write_text("1\t10\t5\t0\n1\t10\t4\t0\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_ratings(path)


def _line_parser(path):
    """The line parser over the file as a text-mode handle iterates it."""
    with open(path, encoding="utf-8") as fh:
        return harness._parse_lines(path, fh)


def _refuse(path, lines):
    raise AssertionError(f"{path} went to the line parser")


def _parts(matrix):
    """The matrix's user keys, then each of its arrays as a dtype and a list."""
    arrays = (matrix.indptr, matrix.items, matrix.ratings, matrix.item_ids)
    return matrix.user_keys, [(a.dtype.str, a.tolist()) for a in arrays]


def _loaded(load, path):
    """What a loader makes of ``path``: the matrix's parts, or its error."""
    try:
        matrix = load(path)
    except Exception as exc:
        return type(exc), str(exc)
    return _parts(matrix)


# Users interleaved, each user's items out of order: a reordering sort shows.
_INTERLEAVED = "".join(
    f"{user}\t{(7 * i) % 101}\t{1 + i % 5}\t0\n" for i in range(60) for user in (3, 1, 2)
)

PARSER_CASES = {
    "three fields": "1\t10\t5\n2\t10\t4\n1\t11\t3\n",
    "four fields": "2\t10\t4\t7\n1\t10\t5\t0\n2\t12\t1\t7\n",
    "mixed three and four fields": "1\t10\t5\t0\n1\t11\t3\n",
    "blank lines": "\n1\t10\t5\t0\n\n\n2\t10\t4\t0\n\n",
    "crlf": "1\t10\t5\t0\r\n2\t10\t4\t0\r\n",
    "lone cr": "1\t10\t5\t0\r2\t10\t4\t0\r",
    "spaces and plus": " 1\t+10 \t 5\t0\n2\t\x0b10\x0c\t+4\t0\n",
    "underscore": "1_0\t10\t5\t0\n",
    "non-integer fourth field": "1\t10\t5\tnoon\n",
    "two fields": "1\t10\n",
    "five fields": "1\t10\t5\t0\t0\n2\t10\t4\t0\t0\n",
    "whitespace-only line": "1\t10\t5\t0\n   \n",
    "float rating": "1\t10\t5.0\t0\n",
    "rating 0": "1\t10\t5\t0\n1\t11\t0\t0\n",
    "rating 6": "1\t10\t6\t0\n",
    "item id -1": "1\t10\t5\t0\n1\t-1\t4\t0\n",
    "item id 2**24 - 1": f"1\t10\t5\t0\n1\t{2**24 - 1}\t4\t0\n",
    "item id 2**24": f"1\t10\t5\t0\n1\t{2**24}\t4\t0\n",
    "item id 2**62": f"1\t{2**62}\t5\t0\n",
    "item id beyond int64": f"1\t{2**70}\t5\t0\n",
    "duplicate pair on lines 2 and 7": "2\t10\t5\t0\n1\t10\t3\t0\n1\t11\t4\t0\n"
    "2\t11\t4\t0\n3\t10\t1\t0\n3\t11\t2\t0\n1\t10\t4\t0\n",
    "empty file": "",
    "byte order mark": "\ufeff1\t10\t5\t0\n",
    "separator control": "1\x1c\t10\t5\t0\n",
    "interleaved users": _INTERLEAVED,
}


@pytest.mark.parametrize("case", PARSER_CASES)
def test_load_ratings_agrees_with_the_line_parser(case, tmp_path):
    path = tmp_path / "r.data"
    path.write_bytes(PARSER_CASES[case].encode("utf-8"))
    assert _loaded(load_ratings, path) == _loaded(_line_parser, path)


def test_plain_integer_files_take_numpy_parser(full_scale_ratings, tmp_path, monkeypatch):
    twin = tmp_path / "twin.data"
    rows = [{item: int(r) for item, r in row.items()} for row in rows_of(full_scale_ratings)]
    write_ratings_file(twin, dict(zip(full_scale_ratings.user_keys, rows)))
    expected = _loaded(_line_parser, twin)
    small = tmp_path / "small.data"
    small.write_text("1\t10\t5\t0\n1\t11\t3\t0\n2\t10\t4\t99\n", encoding="utf-8")
    monkeypatch.setattr(harness, "_parse_lines", _refuse)
    assert _loaded(load_ratings, twin) == expected
    assert rows_of(load_ratings(small)) == [{10: 5, 11: 3}, {10: 4}]


@pytest.mark.parametrize("layout", ["sorted", "shuffled", "shuffled, keys above 2**40"])
def test_every_reader_builds_the_same_arrays(layout, tmp_path, monkeypatch):
    # NumPy's parser, the line parser and the public constructor must agree
    # on every array, whatever order the file lists users and items in.
    ratings = generate_ratings(n_users=80, n_items=300, target_ratings=4000, seed=5)
    if "2**40" in layout:
        ratings = {2**40 + 977 * key: row for key, row in ratings.items()}
    path = tmp_path / "r.data"
    write_ratings_file(path, ratings)
    if layout != "sorted":
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        random.Random(7).shuffle(lines)
        path.write_text("".join(lines), encoding="utf-8")
    line_parsed = _parts(_line_parser(path))
    monkeypatch.setattr(harness, "_parse_lines", _refuse)
    assert _parts(load_ratings(path)) == line_parsed == _parts(RatingMatrix(ratings))


def _real_dataset():
    from conftest import _dataset_path

    return _dataset_path()


@pytest.mark.skipif(_real_dataset() is None, reason="real MovieLens file not present")
def test_real_movielens_shape():
    matrix = load_ratings(_real_dataset())
    assert matrix.n_users == 943
    assert matrix.n_items == 1682
    assert matrix.n_ratings == 100_000


@pytest.mark.skipif(_real_dataset() is None, reason="real MovieLens file not present")
def test_real_movielens_split_counts():
    matrix = load_ratings(_real_dataset())
    split = all_but_1_split(matrix, np.random.default_rng(0))
    assert len(split.hidden) == 943
    assert split.training.n_ratings == 99_057


# --- splits ------------------------------------------------------------------

def test_split_user_with_two_ratings_keeps_one():
    matrix = RatingMatrix({1: {10: 5, 11: 3}})
    split = all_but_1_split(matrix, np.random.default_rng(0))
    assert split.training.n_ratings == 1
    assert len(split.hidden) == 1
    # the hidden item was rated by no one else, so it drops out of the items
    assert split.training.item_ids.tolist() == split.training.items.tolist()


def test_split_hidden_size_equals_user_count(small_ratings):
    split = all_but_1_split(small_ratings, np.random.default_rng(1))
    assert split.hidden.shape == (small_ratings.n_users,)
    assert split.hidden.dtype == np.int64


def test_split_training_equals_a_matrix_of_the_kept_rows(small_ratings):
    # The training matrix must equal a matrix built from the rows less their
    # hidden items, share its user keys with the source matrix, and leave the
    # source's arrays untouched.
    before = _parts(small_ratings)
    split = all_but_1_split(small_ratings, np.random.default_rng(3))
    rows = rows_of(small_ratings)
    for row, item in zip(rows, split.hidden.tolist()):
        del row[item]
    want = RatingMatrix(dict(zip(small_ratings.user_keys, rows)))
    assert _parts(split.training) == _parts(want)
    assert _parts(small_ratings) == before
    assert split.training.user_keys is small_ratings.user_keys


@pytest.mark.parametrize("seed", range(5))
def test_split_matches_the_dict_reference(seed, small_ratings, full_scale_ratings):
    # Equal generator states after the call pin the draw order: one draw
    # per user, in peer order, over the user's ascending item ids.
    for ratings in (small_ratings, full_scale_ratings):
        ours = np.random.Generator(np.random.PCG64(split_seed(seed, 0)))
        theirs = np.random.Generator(np.random.PCG64(split_seed(seed, 0)))
        split = all_but_1_split(ratings, ours)
        hidden, rows = split_rows(ratings, theirs)
        assert np.array_equal(split.hidden, hidden)
        assert rows_of(split.training) == rows
        assert ours.bit_generator.state == theirs.bit_generator.state


def test_split_allocates_no_per_user_copies(full_scale_ratings):
    # The split's CSR arrays take ~1.6 MB; per-user dict copies took ~4 MB.
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        all_but_1_split(full_scale_ratings, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_500_000


def test_split_too_sparse_user_raises():
    matrix = RatingMatrix({1: {10: 5}})
    with pytest.raises(UserTooSparse):
        all_but_1_split(matrix, np.random.default_rng(0))


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_split_soundness(seed):
    matrix = RatingMatrix(
        {
            1: {10: 5, 11: 3, 12: 1},
            2: {10: 4, 13: 2},
            3: {11: 2, 13: 4, 14: 1, 15: 5},
        }
    )
    split = all_but_1_split(matrix, np.random.default_rng(seed))
    for peer, key in enumerate(matrix.user_keys):
        original = row_of(matrix, peer)
        kept = row_of(split.training, peer)
        item = int(split.hidden[peer])
        assert item not in kept
        merged = dict(kept)
        merged[item] = original[item]
        assert merged == original


def test_split_deterministic_per_seed(small_ratings):
    a = all_but_1_split(small_ratings, np.random.default_rng(42))
    b = all_but_1_split(small_ratings, np.random.default_rng(42))
    assert np.array_equal(a.hidden, b.hidden)


def test_a_hidden_item_no_training_row_holds_never_hits():
    # Peer 0's hidden item 99 had no other rater, so no training column
    # holds it: it takes the column past the last one, which is not the -1
    # padding and which no row lists, in the overlay and centralized paths.
    training = RatingMatrix(
        {1: {10: 5, 11: 3}, 2: {10: 4, 12: 2, 13: 5}, 3: {11: 2, 13: 4}, 4: {10: 5, 12: 3}}
    )
    hidden_ids = np.array([99, 11, 12, 13])
    arrays = build_training_arrays(training)
    m = arrays.item_ids.size
    hidden = hidden_columns(arrays, hidden_ids)
    assert hidden.tolist() == [m, 1, 2, 3]

    every_column = np.tile(np.arange(m), (4, 1))
    snap = make_snapshot([[1], [0], [3], [2]], rec_cols=every_column, top_n=m)
    assert hit_rates(snap, hidden) == (0.75, 0.75)
    assert hit_rates(make_snapshot([[1], [0], [3], [2]], top_n=m), hidden) == (0.0, 0.0)

    weighted = weighted_similarity_matrix(arrays, threshold=50)
    hoods = centralized_neighborhoods(weighted, k=3)
    rate = harness._centralized_hit_rate(arrays, hoods, hidden, top_n=5)
    peers = range(training.n_users)
    listed = [
        [item for item, _ in centralized_recommend(v, peers, training, k=3, n_top=5)]
        for v in peers
    ]
    assert [int(item in items) for item, items in zip(hidden_ids, listed)] == [0, 1, 1, 1]
    assert rate == 0.75


# --- trials and aggregation --------------------------------------------------

def test_t_multiplier_for_five_trials():
    assert harness.t975(4) == pytest.approx(2.776, abs=5e-4)


# The 0.975 quantiles correctly rounded from 60-digit values (mpmath).
# SciPy 1.17.1's stdtrit lands 6, 2, 4 and 2 ulps off for dof 1 to 4.
T975_REFERENCE = {
    1: 12.706204736174705,
    2: 4.302652729749464,
    3: 3.1824463052837095,
    4: 2.7764451051977943,
    9: 2.2621571627982053,
    29: 2.0452296421327043,
}


@pytest.mark.parametrize("dof", sorted(T975_REFERENCE))
def test_t975_is_within_four_ulps_of_the_rounded_quantile(dof):
    want = T975_REFERENCE[dof]
    assert abs(harness.t975(dof) - want) <= 4 * math.ulp(want)


def test_t975_agrees_with_scipy():
    dofs = np.arange(1, 201)
    got = np.array([harness.t975(int(dof)) for dof in dofs])
    np.testing.assert_allclose(got, stats.t.ppf(0.975, dofs), rtol=1e-14, atol=0)


def test_t975_falls_with_dof_and_stays_above_the_normal_quantile():
    quantiles = [harness.t975(dof) for dof in range(1, 201)]
    assert all(a > b for a, b in zip(quantiles, quantiles[1:]))
    assert quantiles[-1] > 1.959963984540054


@pytest.mark.parametrize("dof", [0, -1])
def test_t975_needs_a_degree_of_freedom(dof):
    with pytest.raises(InvalidConfig, match="degree of freedom"):
        harness.t975(dof)


def test_run_trial_series_lengths(small_ratings):
    config = SimConfig(n_peers=80, cache_size=8, cycles=6, seed=2)
    trial = run_trial(config, small_ratings, trial=0)
    assert len(trial.metrics) == config.cycles + 1
    assert trial.metrics[0].cycle == 0
    assert trial.metrics[-1].cycle == 6
    assert trial.first_full_cycle is not None


def test_run_trial_rejects_a_cache_of_every_peer(small_ratings):
    with pytest.raises(InvalidConfig, match="cache_size"):
        run_trial(SimConfig(n_peers=80, cache_size=80, cycles=2, seed=2), small_ratings, trial=0)


def test_run_trial_rejects_a_peer_count_other_than_the_data(small_ratings):
    with pytest.raises(InvalidConfig, match="config expects 81 peers, dataset has 80 users"):
        run_trial(SimConfig(n_peers=81, cache_size=8, cycles=2, seed=2), small_ratings, trial=0)


def test_experiment_requires_two_trials(small_ratings):
    config = SimConfig(n_peers=80, cache_size=8, cycles=3, seed=2)
    with pytest.raises(InvalidConfig):
        run_experiment(config, small_ratings, trials=1)


def test_experiment_mean_and_ci(small_ratings):
    config = SimConfig(n_peers=80, cache_size=8, cycles=5, seed=2)
    result = run_experiment(config, small_ratings, trials=3)
    series = np.array([[m.hit_rate for m in t.metrics] for t in result.trials])
    assert result.mean["hit_rate"] == pytest.approx(series.mean(axis=0))
    mult = stats.t.ppf(0.975, 2)
    want = mult * series.std(axis=0, ddof=1) / np.sqrt(3)
    assert result.ci_half["hit_rate"] == pytest.approx(want)


def test_trial_order_invariance(small_ratings):
    from gossipcf.harness import _aggregate

    config = SimConfig(n_peers=80, cache_size=8, cycles=4, seed=9)
    result = run_experiment(config, small_ratings, trials=3)
    permuted = [result.trials[i] for i in (2, 0, 1)]
    mean_p, ci_p = _aggregate(permuted)
    assert mean_p["avg_similarity"] == pytest.approx(result.mean["avg_similarity"])
    assert ci_p["avg_similarity"] == pytest.approx(result.ci_half["avg_similarity"])


def test_identical_trials_zero_ci(small_ratings):
    from gossipcf.harness import _aggregate

    config = SimConfig(n_peers=80, cache_size=8, cycles=4, seed=9)
    trial = run_trial(config, small_ratings, trial=0)
    clones = [trial, trial, trial]
    _, ci = _aggregate(clones)
    assert np.allclose(ci["hit_rate"], 0.0)


def test_reproducibility_same_master_seed(small_ratings):
    config = SimConfig(n_peers=80, cache_size=8, cycles=5, seed=77)
    a = run_trial(config, small_ratings, trial=1)
    b = run_trial(config, small_ratings, trial=1)
    assert a.metrics == b.metrics
    assert a.centralized_hit_rate == b.centralized_hit_rate


def test_adding_trials_never_perturbs_earlier_ones(small_ratings):
    config = SimConfig(n_peers=80, cache_size=8, cycles=4, seed=5)
    two = run_experiment(config, small_ratings, trials=2)
    three = run_experiment(config, small_ratings, trials=3)
    for t in range(2):
        assert two.trials[t].metrics == three.trials[t].metrics


def test_centralized_baseline_matches_run_trial(small_ratings):
    config = SimConfig(n_peers=80, cache_size=8, cycles=3, seed=4)
    baseline = centralized_baseline(config, small_ratings, trials=2)
    for t in range(2):
        trial = run_trial(config, small_ratings, trial=t, structural=False)
        assert baseline[t][0] == pytest.approx(trial.centralized_avg_similarity)
        assert baseline[t][1] == pytest.approx(trial.centralized_hit_rate)


@pytest.mark.parametrize("trials", [0, -1])
def test_centralized_baseline_needs_a_trial(small_ratings, trials):
    config = SimConfig(n_peers=80, cache_size=8, cycles=3, seed=4)
    with pytest.raises(InvalidConfig, match="trial"):
        centralized_baseline(config, small_ratings, trials=trials)


def test_centralized_dominates_overlay_every_cycle(small_ratings):
    # the strict checker inside run_trial raises on any violation; also spot
    # check the aggregate series here
    config = SimConfig(n_peers=80, cache_size=8, cycles=10, seed=6)
    trial = run_trial(config, small_ratings, trial=0)
    for row in trial.metrics:
        assert row.avg_similarity <= trial.centralized_avg_similarity + 1e-9


def _checked_arrays(ratings, config):
    """Trial 0's training arrays and global top-m table under ``config``."""
    split_rng = np.random.Generator(np.random.PCG64(split_seed(config.seed, 0)))
    arrays = build_training_arrays(all_but_1_split(ratings, split_rng).training)
    return arrays, top_m_mean_table(arrays.similarity, config.cache_size)


def _strict_setup(small_ratings):
    from gossipcf.engine import run_simulation
    from gossipcf.harness import sim_seed

    config = SimConfig(n_peers=80, cache_size=8, cycles=2, seed=2)
    arrays, top_m = _checked_arrays(small_ratings, config)
    checker = functools.partial(_check_snapshot, binary=arrays.binary, top_m=top_m)
    snaps = list(run_simulation(config, arrays, sim_seed(config.seed, 0)))
    return config, arrays, checker, snaps


def test_strict_checker_catches_corruption(small_ratings):
    _, arrays, checker, snaps = _strict_setup(small_ratings)
    good = snaps[-1]
    checker(good)  # sane snapshot passes

    # self in neighborhood
    bad = snaps[-2]
    start, stop = bad.indptr[3], bad.indptr[4]
    assert stop > start
    bad.neighbors[start] = 3
    with pytest.raises(AssertionError):
        checker(bad)

    # consumed item recommended
    bad2 = snaps[-3]
    bad2.rec_cols[5, 0] = arrays.rated_cols[5][0]
    with pytest.raises(AssertionError):
        checker(bad2)

    # similarity above the global top-m bound
    good.cache_sim_mean[7] = 1.5
    with pytest.raises(AssertionError):
        checker(good)


def test_strict_checker_is_sized_by_the_items_present(small_ratings):
    # Four users rate the largest item id the parser takes, so it stays a
    # training item; the checker reads columns and must not size a table by
    # that id.
    rows = rows_of(small_ratings)
    for row in rows[:4]:
        row[MAX_ITEM_ID] = 3
    config, arrays, _, snaps = _strict_setup(RatingMatrix(dict(zip(small_ratings.user_keys, rows))))
    assert arrays.item_ids[-1] == MAX_ITEM_ID
    top_m = top_m_mean_table(arrays.similarity, config.cache_size)
    snap = snaps[-1]
    tracemalloc.start()
    try:
        _check_snapshot(snap, arrays.binary, top_m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    peer = int(np.flatnonzero(arrays.binary[:, -1])[0])
    snap.rec_cols[peer, 0] = arrays.item_ids.size - 1
    with pytest.raises(AssertionError, match="consumed item"):
        _check_snapshot(snap, arrays.binary, top_m)


@pytest.mark.parametrize("protocol", ["swarmix", "newscast", "anti-entropy"])
def test_only_a_global_view_snapshot_drops_the_owner(small_ratings, protocol):
    # Only a global-view cache may keep its owner's entry, so only there does
    # the snapshot drop it.  A partial-view cache never holds its owner, and
    # one that does is a fault the checker must see.
    from gossipcf.engine import _take_snapshot, bootstrap

    config = SimConfig(n_peers=80, cache_size=8, cycles=2, seed=2, protocol=protocol)
    arrays, top_m = _checked_arrays(small_ratings, config)
    state = bootstrap(config, arrays, np.random.default_rng(4))
    v, sources = 3, state.gossip.sources
    sources[v] = (v,) + sources[v][1:]
    snap = _take_snapshot(state, np.zeros(config.n_peers, dtype=np.int32), 0)
    if protocol == "anti-entropy":
        assert snap.neighbor_ids[v].tolist() == list(sources[v][1:])
        _check_snapshot(snap, arrays.binary, top_m)
    else:
        with pytest.raises(AssertionError, match=f"cycle 0: self in neighborhood of {v}$"):
            _check_snapshot(snap, arrays.binary, top_m)


def _with_lists(snap, lists, alive=None):
    """A copy of ``snap`` whose neighborhoods are ``lists``."""
    counts = [len(ids) for ids in lists]
    return dataclasses.replace(
        snap,
        indptr=np.concatenate(([0], np.cumsum(counts))).astype(snap.indptr.dtype),
        neighbors=np.array([v for ids in lists for v in ids], dtype=snap.neighbors.dtype),
        alive=snap.alive.copy() if alive is None else alive,
    )


def test_strict_checker_reports_neighborhood_faults(small_ratings):
    config, _, checker, snaps = _strict_setup(small_ratings)
    snap = snaps[-1]
    lists = [ids.tolist() for ids in snap.neighbor_ids]
    checker(_with_lists(snap, lists))
    assert snap.alive.all()
    full = [v for v, ids in enumerate(lists) if len(ids) >= 3]
    assert len(full) >= 3

    def corrupt(edits):
        out = [list(ids) for ids in lists]
        for v, pos, value in edits:
            out[v][pos] = value
        return out

    over = [list(ids) for ids in lists]
    over[5] = [v for v in range(len(lists)) if v != 5][: config.cache_size + 1]
    with pytest.raises(AssertionError, match="cache over capacity"):
        checker(_with_lists(snap, over))

    a, b, c = full[:3]
    # Duplicates at two peers: the smaller id is reported.
    dups = corrupt([(b, 1, lists[b][0]), (a, 2, lists[a][1])])
    with pytest.raises(AssertionError, match=f"duplicate cache id at peer {a}$"):
        checker(_with_lists(snap, dups))

    with pytest.raises(AssertionError, match=f"self in neighborhood of {b}$"):
        checker(_with_lists(snap, corrupt([(b, 0, b)])))

    # A duplicate and a self entry at one peer: the duplicate is reported.
    both = corrupt([(b, 0, b), (b, 2, lists[b][1])])
    with pytest.raises(AssertionError, match=f"duplicate cache id at peer {b}$"):
        checker(_with_lists(snap, both))

    # A self entry at a smaller peer than a duplicate is reported first.
    self_first = corrupt([(a, 0, a), (c, 1, lists[c][0])])
    with pytest.raises(AssertionError, match=f"self in neighborhood of {a}$"):
        checker(_with_lists(snap, self_first))

    # A dead owner's duplicates are not checked.
    alive = snap.alive.copy()
    alive[b] = False
    checker(_with_lists(snap, corrupt([(b, 1, lists[b][0])]), alive=alive))


# --- churn sweep -------------------------------------------------------------

def test_churn_sweep_zero_pct_matches_churn_free(small_ratings):
    config = SimConfig(n_peers=80, cache_size=8, cycles=8, seed=3)
    rows = churn_sweep(config, small_ratings, [0.0], trials=2, at_cycle=4)
    clean = run_experiment(config, small_ratings, trials=2, structural=False)
    failures = next(r for r in rows if r.mode == "failures")
    assert failures.hit_rate_mean == pytest.approx(float(clean.mean["hit_rate"][-1]))


def test_churn_sweep_row_layout(small_ratings):
    config = SimConfig(n_peers=80, cache_size=8, cycles=6, seed=3)
    rows = churn_sweep(config, small_ratings, [10.0, 40.0], trials=2, at_cycle=3)
    assert len(rows) == 4
    assert [(r.pct, r.mode) for r in rows] == [
        (10.0, "failures"),
        (10.0, "leavings"),
        (40.0, "failures"),
        (40.0, "leavings"),
    ]
    for r in rows:
        assert r.ci_low <= r.hit_rate_mean <= r.ci_high


def test_churn_sweep_voluntary_dominates_failures(small_ratings):
    config = SimConfig(n_peers=80, cache_size=8, cycles=8, seed=3)
    rows = churn_sweep(config, small_ratings, [30.0], trials=2, at_cycle=4)
    by_mode = {r.mode: r.hit_rate_mean for r in rows}
    assert by_mode["leavings"] >= by_mode["failures"] - 1e-12


def test_churn_sweep_rejects_full_loss_before_any_split(small_ratings, monkeypatch):
    import gossipcf.harness as harness

    splits = []
    monkeypatch.setattr(
        harness, "all_but_1_split", lambda *args: splits.append(args) or all_but_1_split(*args)
    )
    config = SimConfig(n_peers=80, cache_size=8, cycles=6, seed=3)
    with pytest.raises(InvalidConfig, match="silence all"):
        churn_sweep(config, small_ratings, [10.0, 100.0], trials=2, at_cycle=3)
    assert splits == []


def test_churn_sweep_rejects_repeated_level_before_any_split(small_ratings, monkeypatch):
    import gossipcf.harness as harness

    splits = []
    monkeypatch.setattr(
        harness, "all_but_1_split", lambda *args: splits.append(args) or all_but_1_split(*args)
    )
    config = SimConfig(n_peers=80, cache_size=8, cycles=6, seed=3)
    with pytest.raises(InvalidConfig, match="repeated"):
        churn_sweep(config, small_ratings, [10, 20.0, 10.0], trials=2, at_cycle=3)
    assert splits == []


def test_churn_exact_denominator_identity(small_ratings):
    # failures value = voluntary value * survivors / n, same numerators
    config = SimConfig(
        n_peers=80, cache_size=8, cycles=8, seed=3,
        churn=ChurnSpec(mode="leavings", pct=40.0, at_cycle=4),
    )
    trial = run_trial(config, small_ratings, trial=0, structural=False)
    survivors = 80 - int(0.40 * 80)
    last = trial.metrics[-1]
    assert last.hit_rate == pytest.approx(last.hit_rate_voluntary * survivors / 80)
