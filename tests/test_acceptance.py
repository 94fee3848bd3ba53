"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 2-5, 8 and 9 read the shared flagship experiment (943 peers, k=20,
100 cycles, 5 trials, churn-free); criterion 6 runs the loss sweep, and 9b's
control a short anti-entropy experiment.  The
flagship fixture runs with strict per-snapshot checking, so cache laws and
per-peer dominance are enforced at every cycle of every trial while it
executes.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gossipcf
import test_metrics as metrics_oracles
import test_pushpull as pushpull_oracles
from gossipcf.engine import PROTOCOLS, SimConfig, run_simulation
from gossipcf.harness import all_but_1_split, churn_sweep, run_experiment, sim_seed, split_seed
from gossipcf.metrics import avg_path_length, clustering_coefficient, live_graph
from gossipcf.pushpull import ProtocolSpec, _cut, _freshest, _retain, rank_table
from gossipcf.recommend import build_training_arrays
from gossipcf.synth import generate_ratings, write_ratings_file
from conftest import ACCEPTANCE_SEED
from oracles import columns, merge_freshest, rows_of, select_top_k, sources_of

RANDOM_BASELINE_CLUSTERING = 0.02121  # k/n at 20/943
CASES = 1000


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


# --- criterion 1: oracle equivalence ------------------------------------------

def test_criterion_1_merge_select_neighbors_oracle_equivalence():
    # a partial-view cache is its neighborhood, so merge and select are the
    # whole neighborhood step.  The library's two sides of an exchange, the
    # rank-table ``_retain`` on source tuples and the freshest-first
    # ``_cut(_freshest(...))`` on (source, stamp) pairs, must keep what the
    # brute-force merge and select keep, as the reference ones do.
    oracle_select = pushpull_oracles.oracle_select
    freshest = lambda it: float(it.timestamp)
    rnd = random.Random(11)
    for _ in range(CASES):
        a = pushpull_oracles.random_cache(rnd)
        b = pushpull_oracles.random_cache(rnd)
        table = {s: rnd.choice([0.1, 0.3, 0.3, 0.7, 0.9]) for s in range(8)}
        u = lambda it: table[it.src]
        k = rnd.randint(1, 9)
        owner = rnd.randrange(8)
        merged = merge_freshest(a, b)
        brute = pushpull_oracles.oracle_merge(a, b, key=lambda it, side: (it.timestamp, side))
        assert set(merged) == brute
        assert select_top_k(merged, u, k) == oracle_select(merged, u, k)
        others = tuple(it for it in brute if it.src != owner)
        rank = rank_table(np.tile([table[s] for s in range(8)], (8, 1)))
        kept = _retain(owner, sources_of(a), sources_of(b), ProtocolSpec(k, rank=rank))
        assert kept == sources_of(oracle_select(others, u, k))
        for global_view, pool in ((False, others), (True, tuple(brute))):
            want = oracle_select(pool, freshest, k)
            got = _cut(_freshest(a, b), owner, ProtocolSpec(k, global_view=global_view))
            assert got == columns(want)
    report("1a", True, f"library and reference merge/select equal brute force on {CASES} cases")


def test_criterion_1_graph_metrics_oracle_equivalence():
    rnd = random.Random(23)
    checked_cc = 0
    for _ in range(CASES):
        n = rnd.randint(2, 8)
        lists = []
        for v in range(n):
            others = [u for u in range(n) if u != v]
            lists.append(rnd.sample(others, rnd.randint(0, len(others))))
        alive = [rnd.random() > 0.2 for _ in range(n)]
        if sum(alive) < 2:
            alive = [True] * n
        graph = live_graph(metrics_oracles.make_snapshot(lists, alive=alive))
        got = avg_path_length(graph)
        want = metrics_oracles.oracle_path_length(lists, alive)
        assert got == want
        try:
            want_cc = metrics_oracles.oracle_clustering(lists, alive)
        except Exception:
            continue
        assert clustering_coefficient(graph) == want_cc
        checked_cc += 1
    report(
        "1b",
        True,
        f"path length and clustering exactly equal brute force on {CASES} graphs "
        f"({checked_cc} with defined clustering)",
    )


# --- criteria 2-5 over the flagship experiment ---------------------------------

def test_criterion_2_convergence_to_centralized(flagship):
    overlay = float(flagship.mean["avg_similarity"][-1])
    central = float(flagship.mean["centralized_avg_similarity"][-1])
    ratio = overlay / central
    dominance_enforced = all(t.strict_checked for t in flagship.trials)
    ok = ratio >= 0.85 and dominance_enforced
    report(
        "2",
        ok,
        f"overlay/centralized similarity at cycle 100 = {ratio:.4f} (need >= 0.85); "
        f"per-peer top-m dominance held exactly at every cycle of every trial",
    )


def test_criterion_3_variance_decreases_after_fill(flagship):
    details = []
    ok = True
    for trial in flagship.trials:
        assert trial.first_full_cycle is not None
        v_full = trial.metrics[trial.first_full_cycle].similarity_variance
        v_end = trial.metrics[-1].similarity_variance
        details.append(f"t{trial.trial}: {v_end:.5f} < {v_full:.5f} (full at {trial.first_full_cycle})")
        ok = ok and v_end < v_full
    report("3", ok, "; ".join(details))


def test_criterion_4_hit_rate_near_centralized_and_improving(flagship):
    overlay = float(flagship.mean["hit_rate"][-1])
    central = float(flagship.mean["centralized_hit_rate"][-1])
    near = overlay >= central - 0.05
    improving = all(
        t.metrics[-1].hit_rate > t.metrics[1].hit_rate for t in flagship.trials
    )
    report(
        "4",
        near and improving,
        f"overlay {overlay:.4f} vs centralized {central:.4f} (gap {central - overlay:+.4f}, "
        f"allow 0.05); cycle-100 beats cycle-1 in every trial: {improving}",
    )


def test_criterion_5_small_world(flagship):
    details = []
    ok = True
    threshold_cc = 5 * RANDOM_BASELINE_CLUSTERING
    for trial in flagship.trials:
        last = trial.metrics[-1]
        t_ok = (
            last.clustering_coefficient >= threshold_cc
            and last.avg_path_length <= 3.4
            and last.path_coverage >= 0.99
        )
        details.append(
            f"t{trial.trial}: cc={last.clustering_coefficient:.3f} "
            f"apl={last.avg_path_length:.3f} cov={last.path_coverage:.3f}"
        )
        ok = ok and t_ok
    report("5", ok, f"need cc>={threshold_cc:.4f}, apl<=3.4, coverage>=0.99; " + "; ".join(details))


# --- criterion 6: churn sweep ---------------------------------------------------

@pytest.fixture(scope="module")
def churn_rows(full_scale_ratings):
    config = SimConfig(
        n_peers=full_scale_ratings.n_users,
        cache_size=20,
        cycles=100,
        seed=ACCEPTANCE_SEED,
    )
    return churn_sweep(
        config, full_scale_ratings,
        percentages=[5.0, 10.0, 20.0, 40.0, 60.0, 80.0],
        trials=5, at_cycle=50,
    )


def test_criterion_6_churn_monotonicity(churn_rows):
    assert len(churn_rows) == 12  # 6 percentages x 2 accounting modes
    failures = [r for r in churn_rows if r.mode == "failures"]
    leavings = [r for r in churn_rows if r.mode == "leavings"]
    inversions = 0
    for prev, cur in zip(failures, failures[1:]):
        if cur.hit_rate_mean > prev.hit_rate_mean:
            overlap = cur.ci_low <= prev.ci_high and prev.ci_low <= cur.ci_high
            if not overlap:
                inversions = 99
                break
            inversions += 1
    dominance = all(
        l.hit_rate_mean >= f.hit_rate_mean - 1e-12
        for f, l in zip(failures, leavings)
    )
    series = ", ".join(f"{r.pct:.0f}%={r.hit_rate_mean:.4f}" for r in failures)
    report(
        "6",
        inversions <= 1 and dominance,
        f"failures-mode series [{series}] non-increasing with {inversions} "
        f"CI-overlapping inversion(s); voluntary >= failures at every pct: {dominance}",
    )


# --- criterion 7: determinism ----------------------------------------------------

def test_criterion_7_byte_identical_outputs(tmp_path):
    data = tmp_path / "ratings.data"
    write_ratings_file(
        data, generate_ratings(n_users=60, n_items=200, target_ratings=2400, seed=9)
    )
    base = [sys.executable, "-m", "gossipcf"]
    # the child imports gossipcf from where this process did, installed or not
    src = str(Path(gossipcf.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    run_args = ["--data", str(data), "--trials", "2", "--cycles", "6",
                "--cache-size", "8", "--seed", "31"]
    for out in ("r1", "r2"):
        subprocess.run(
            base + ["run"] + run_args + ["--out", str(tmp_path / out)],
            check=True, capture_output=True, env=env,
        )
    for out in ("s1", "s2"):
        subprocess.run(
            base + ["sweep-churn"] + run_args
            + ["--churn-cycle", "3", "--churn-pcts", "10,40", "--out", str(tmp_path / out)],
            check=True, capture_output=True, env=env,
        )
    metrics_same = (tmp_path / "r1/metrics.csv").read_bytes() == (tmp_path / "r2/metrics.csv").read_bytes()
    churn_same = (tmp_path / "s1/churn.csv").read_bytes() == (tmp_path / "s2/churn.csv").read_bytes()
    report(
        "7",
        metrics_same and churn_same,
        f"metrics.csv byte-identical: {metrics_same}; churn.csv byte-identical: {churn_same}",
    )


# --- criterion 8: protocol laws ---------------------------------------------------

def test_criterion_8_protocol_laws(flagship, small_ratings):
    # asymmetry witness and anti-entropy symmetry are unit-level constructions
    pushpull_oracles.test_anti_entropy_exchange_is_symmetric()
    from test_swarmix import test_swarmix_asymmetry_witness

    test_swarmix_asymmetry_witness()

    # cache laws at every cycle of every trial: enforced by the strict checker
    # during the flagship run; re-verify here explicitly on a fresh small run
    # of every protocol, the global-view one included
    split_rng = np.random.Generator(np.random.PCG64(split_seed(ACCEPTANCE_SEED, 0)))
    split = all_but_1_split(small_ratings, split_rng)
    arrays = build_training_arrays(split.training)
    training = rows_of(split.training)
    consumed_checked = 0
    for protocol in PROTOCOLS:
        config = SimConfig(
            n_peers=80, cache_size=8, cycles=30, seed=ACCEPTANCE_SEED, protocol=protocol
        )
        for snap in run_simulation(config, arrays, sim_seed(config.seed, 0)):
            for v in range(config.n_peers):
                ids = snap.neighbor_ids[v]
                assert ids.size <= config.cache_size
                assert np.unique(ids).size == ids.size
                assert not (ids == v).any(), (protocol, snap.cycle, v)
                row = snap.rec_items[v]
                for item in row[row >= 0].tolist():
                    assert item not in training[v]
                    consumed_checked += 1
    strict = all(t.strict_checked for t in flagship.trials)
    report(
        "8",
        strict,
        "asymmetry witness found; anti-entropy exchange symmetric; capacity, "
        f"id-uniqueness, self-exclusion and no-consumed-item verified per cycle for "
        f"{', '.join(PROTOCOLS)} ({consumed_checked} recommendations checked) and "
        "enforced across the flagship run",
    )


# --- criterion 9: in-degree diagnostic --------------------------------------------

def test_criterion_9_in_degree_mean_exact(flagship):
    ok = True
    for trial in flagship.trials:
        for cycle in range(1, 6):
            ok = ok and trial.metrics[cycle].in_degree_mean == 1.0
    report(
        "9a",
        ok,
        "per-cycle reception mean over cycles 1-5 equals 1.0 exactly in every trial "
        "(no skipped turns in the churn-free run)",
    )


def test_criterion_9_in_degree_variance_band(flagship):
    """Asserted as specified: variance within [0.7, 1.3] over cycles 1-5.

    The band encodes the incoming-connection claim for uniform random pickup
    over unbiased cache content.  Once caches fill (cycle 4-6 at this scale)
    their content is similarity-biased, so later-cycle variance escapes the
    band; see the per-cycle values in the failure detail.
    """
    per_cycle: dict[int, list[float]] = {c: [] for c in range(1, 6)}
    for trial in flagship.trials:
        for cycle in range(1, 6):
            per_cycle[cycle].append(trial.metrics[cycle].in_degree_variance)
    window_mean = float(np.mean([v for vals in per_cycle.values() for v in vals]))
    converged = float(np.mean([t.metrics[-1].in_degree_variance for t in flagship.trials]))
    detail = ", ".join(
        f"cycle {c}: {np.mean(vals):.3f}" for c, vals in per_cycle.items()
    )
    ok = all(0.7 <= v <= 1.3 for vals in per_cycle.values() for v in vals)
    print(f"[acceptance] criterion 9 window variance {window_mean:.3f}; "
          f"converged-state variance (logged, not asserted): {converged:.3f}")
    report("9b", ok, f"variance in [0.7, 1.3] over cycles 1-5; measured {detail}")


def test_criterion_9_anti_entropy_variance_control(full_scale_ratings):
    """The control for 9b: without similarity-biased caches, receptions stay
    in the band.  Anti-entropy draws each partner uniformly from every live
    peer, so its per-cycle reception variance over cycles 1-5 must stay in
    [0.7, 1.3], the band 9b asserts for the similarity-driven protocol."""
    config = SimConfig(
        n_peers=full_scale_ratings.n_users,
        cache_size=20,
        cycles=5,
        seed=ACCEPTANCE_SEED,
        protocol="anti-entropy",
    )
    result = run_experiment(config, full_scale_ratings, trials=2, structural=False)
    values = [
        trial.metrics[cycle].in_degree_variance
        for trial in result.trials
        for cycle in range(1, 6)
    ]
    report(
        "9b control",
        all(0.7 <= v <= 1.3 for v in values),
        "anti-entropy variance in [0.7, 1.3] over cycles 1-5 of 2 trials; measured "
        + ", ".join(f"{v:.3f}" for v in values),
    )
