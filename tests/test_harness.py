"""Dataset loading, split soundness, trial aggregation, churn sweeps."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from gossipcf.engine import ChurnSpec, InvalidConfig, SimConfig
from gossipcf.harness import (
    ParseError,
    RangeError,
    UserTooSparse,
    _StrictChecker,
    all_but_1_split,
    centralized_baseline,
    churn_sweep,
    load_ratings,
    run_experiment,
    run_trial,
    split_seed,
)
from gossipcf.recommend import RatingMatrix, build_training_arrays, top_m_mean_table


# --- loading -----------------------------------------------------------------

def test_load_ratings_roundtrip(tmp_path):
    path = tmp_path / "r.data"
    path.write_text("1\t10\t5\t0\n1\t11\t3\t0\n2\t10\t4\t99\n", encoding="utf-8")
    matrix = load_ratings(path)
    assert matrix.n_users == 2
    assert matrix.n_items == 2
    assert matrix.n_ratings == 3
    assert matrix.rows[0] == {10: 5, 11: 3}


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
    path.write_text("1\t10\t6\t0\n", encoding="utf-8")
    with pytest.raises(RangeError):
        load_ratings(path)


def test_load_ratings_duplicate_cell_raises(tmp_path):
    path = tmp_path / "dup.data"
    path.write_text("1\t10\t5\t0\n1\t10\t4\t0\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_ratings(path)


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
    assert len(split.training.rows[0]) == 1
    assert len(split.hidden) == 1
    # the hidden item was rated by no one else, so it drops out of the items
    assert split.training.item_ids == list(split.training.rows[0])


def test_split_hidden_size_equals_user_count(small_ratings):
    split = all_but_1_split(small_ratings, np.random.default_rng(1))
    assert len(split.hidden) == small_ratings.n_users


def test_split_training_equals_a_matrix_of_the_kept_rows(small_ratings):
    # The split copies each row once and the training matrix keeps those
    # copies: it must equal a matrix built from the rows less their hidden
    # items, share no row with the source matrix, and leave that untouched.
    rows = [dict(row) for row in small_ratings.rows]
    keys, items = list(small_ratings.user_keys), list(small_ratings.item_ids)
    split = all_but_1_split(small_ratings, np.random.default_rng(3))
    want = RatingMatrix({
        key: {item: r for item, r in rows[peer].items() if item != split.hidden[peer][0]}
        for peer, key in enumerate(keys)
    })
    training = split.training
    assert training.user_keys == want.user_keys
    assert training.rows == want.rows
    assert training.item_ids == want.item_ids
    assert small_ratings.rows == rows
    assert small_ratings.user_keys == keys and small_ratings.item_ids == items
    assert not any(ours is theirs for ours, theirs in zip(training.rows, small_ratings.rows))
    assert training.user_keys is not small_ratings.user_keys


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
        original = matrix.rows[peer]
        kept = split.training.rows[peer]
        item, rating = split.hidden[peer]
        assert item not in kept
        assert original[item] == rating
        merged = dict(kept)
        merged[item] = rating
        assert merged == original


def test_split_deterministic_per_seed(small_ratings):
    a = all_but_1_split(small_ratings, np.random.default_rng(42))
    b = all_but_1_split(small_ratings, np.random.default_rng(42))
    assert a.hidden == b.hidden


# --- trials and aggregation --------------------------------------------------

def test_t_multiplier_for_five_trials():
    assert stats.t.ppf(0.975, 4) == pytest.approx(2.776, abs=5e-4)


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


def _strict_setup(small_ratings):
    from gossipcf.engine import run_simulation
    from gossipcf.harness import sim_seed

    config = SimConfig(n_peers=80, cache_size=8, cycles=2, seed=2)
    split_rng = np.random.Generator(np.random.PCG64(split_seed(config.seed, 0)))
    split = all_but_1_split(small_ratings, split_rng)
    arrays = build_training_arrays(split.training)
    top_m = top_m_mean_table(arrays.similarity, config.cache_size)
    checker = _StrictChecker(config, arrays, top_m)
    snaps = list(run_simulation(config, arrays, sim_seed(config.seed, 0)))
    return config, arrays, checker, snaps


def test_strict_checker_catches_corruption(small_ratings):
    _, arrays, checker, snaps = _strict_setup(small_ratings)
    good = snaps[-1]
    checker.check(good)  # sane snapshot passes

    # self in neighborhood
    bad = snaps[-2]
    start, stop = bad.indptr[3], bad.indptr[4]
    assert stop > start
    bad.neighbors[start] = 3
    with pytest.raises(AssertionError):
        checker.check(bad)

    # consumed item recommended
    bad2 = snaps[-3]
    rated_col = arrays.rated_cols[5][0]
    bad2.rec_items[5, 0] = int(arrays.item_ids[rated_col])
    with pytest.raises(AssertionError):
        checker.check(bad2)

    # similarity above the global top-m bound
    good.cache_sim_mean[7] = 1.5
    with pytest.raises(AssertionError):
        checker.check(good)


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
    checker.check(_with_lists(snap, lists))
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
        checker.check(_with_lists(snap, over))

    a, b, c = full[:3]
    # Duplicates at two peers: the smaller id is reported.
    dups = corrupt([(b, 1, lists[b][0]), (a, 2, lists[a][1])])
    with pytest.raises(AssertionError, match=f"duplicate cache id at peer {a}$"):
        checker.check(_with_lists(snap, dups))

    with pytest.raises(AssertionError, match=f"self in neighborhood of {b}$"):
        checker.check(_with_lists(snap, corrupt([(b, 0, b)])))

    # A duplicate and a self entry at one peer: the duplicate is reported.
    both = corrupt([(b, 0, b), (b, 2, lists[b][1])])
    with pytest.raises(AssertionError, match=f"duplicate cache id at peer {b}$"):
        checker.check(_with_lists(snap, both))

    # A self entry at a smaller peer than a duplicate is reported first.
    self_first = corrupt([(a, 0, a), (c, 1, lists[c][0])])
    with pytest.raises(AssertionError, match=f"self in neighborhood of {a}$"):
        checker.check(_with_lists(snap, self_first))

    # A dead owner's duplicates are not checked.
    alive = snap.alive.copy()
    alive[b] = False
    checker.check(_with_lists(snap, corrupt([(b, 1, lists[b][0])]), alive=alive))


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
