#!/usr/bin/env python3
"""Show that every benchmark check passes on real output and fails on a perturbed copy.

    python3 bench/selftest.py

Runs scaled-down copies of the three workloads (80 synthetic users) in this
process with tracing on, checks their payloads, then perturbs one result per
check and requires that check to raise.  Exits 0 when every check both
passes and fails as it should.
"""

from __future__ import annotations

import copy
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
from workloads import UNCHECKED_PROTOCOLS, WORKLOADS  # noqa: E402
from worker import measure  # noqa: E402

SMALL = {
    "flagship": dict(cycles=12),
    "churn-sweep": dict(cycles=12, churn_at=6),
    "timestamp-protocols": dict(cycles=8),
}
N_SMALL = 80


def _raise_votes(trial):
    trial["final"]["rec_votes"][:, 0] += 1


def _bust_bound(trial):
    final = trial["final"]
    v = next(v for v, ids in enumerate(final["neighbor_ids"]) if final["alive"][v] and ids.size)
    final["cache_sim_mean"][v] = 1.5


def _repeat_an_entry(trial):
    final = trial["final"]
    v = int(final["alive"].argmax())
    final["neighbor_ids"][v] = final["neighbor_ids"][v][[0, *range(final["neighbor_ids"][v].size)]]


def _hold_self(trial):
    final = trial["final"]
    v = int(final["alive"].argmax())
    final["neighbor_ids"][v][0] = v


def _silence_one_more(trial):
    alive = trial["final"]["alive"]
    alive[alive.argmax()] = False


# check -> (which trial, perturbation)
TRIAL_CASES: dict[Callable, tuple[Callable[[dict], bool], Callable[[dict], None]]] = {
    checks.check_top_n: (lambda t: True, _raise_votes),
    checks.check_hit_rate: (
        lambda t: True, lambda t: t["rows"][-1].update(hit_rate=t["rows"][-1]["hit_rate"] + 0.1)
    ),
    checks.check_structure: (
        lambda t: t["structural"],
        lambda t: t["rows"][-1].update(avg_path_length=t["rows"][-1]["avg_path_length"] + 0.01),
    ),
    checks.check_cache_laws: (lambda t: True, _repeat_an_entry),
    checks.check_self_entries: (lambda t: t["protocol"] not in UNCHECKED_PROTOCOLS, _hold_self),
    checks.check_similarity: (lambda t: True, _bust_bound),
    checks.check_in_degree: (lambda t: True, lambda t: t["rows"][1].update(in_degree_mean=0.999)),
    checks.check_similarity_rises: (
        lambda t: t["protocol"] == "swarmix",
        lambda t: t["rows"][-1].update(avg_similarity=t["rows"][0]["avg_similarity"]),
    ),
    checks.check_churn_count: (lambda t: t["churn"] is not None, _silence_one_more),
    checks.check_failures_vs_voluntary: (
        lambda t: True,
        lambda t: t["rows"][-1].update(hit_rate=t["rows"][-1]["hit_rate_voluntary"] + 0.01),
    ),
    checks.check_centralized: (
        lambda t: True, lambda t: t.update(neighborhoods=t["neighborhoods"][::-1].copy())
    ),
}


def expect_failure(name: str, run: Callable[[], None]) -> bool:
    try:
        run()
    except (checks.CheckFailed, checks.KnownFault) as exc:
        print(f"  fails as it should: {name}: {exc}"[:160])
        return True
    print(f"  DID NOT FAIL: {name}")
    return False


def main() -> int:
    from gossipcf.synth import generate_ratings, write_ratings_file

    ok = True
    covered: set[Callable] = set()
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "ratings.data"
        write_ratings_file(
            data, generate_ratings(n_users=N_SMALL, n_items=300, target_ratings=4000, seed=5)
        )
        ratings = checks.read_ratings(str(data))
        for name, workload in WORKLOADS.items():
            small = replace(workload, n_peers=N_SMALL, **SMALL[name])
            payload = measure(small, str(data), 3, 3.0, True, Path(tmp))
            faults = checks.run_checks(payload, ratings)
            print(f"{name}: {len(payload['round_s'])} rounds, every check passes")
            for fault in faults.values():
                print(f"  known fault: {fault}"[:160])
            for check, (where, perturb) in TRIAL_CASES.items():
                if not any(where(t) for t in payload["trials"]):
                    continue
                bad = copy.deepcopy(payload)
                trial = next(t for t in bad["trials"] if where(t))
                perturb(trial)
                split = checks.Split(ratings, trial["seed"], trial["trial"])
                ok &= expect_failure(check.__name__, lambda: check(trial, split))
                covered.add(check)
            if payload["churn_rows"] is not None:
                bad = copy.deepcopy(payload["churn_rows"])
                failures = next(r for r in bad if r["mode"] == "failures")
                failures["hit_rate_mean"] = 1.0
                ok &= expect_failure("check_churn_rows", lambda: checks.check_churn_rows(bad))
            ok &= expect_failure(
                "check_rounds_identical",
                lambda: checks.check_rounds_identical(payload["digests"] + ["0" * 64]),
            )
            wall = payload["round_s"][0]
            ok &= expect_failure(
                "check_trace_accounting",
                lambda: checks.check_trace_accounting(wall, 0.9 * wall),
            )
    missing = set(checks.TRIAL_CHECKS) - covered
    if missing:
        print(f"never perturbed: {sorted(c.__name__ for c in missing)}")
        ok = False
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
