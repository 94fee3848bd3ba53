#!/usr/bin/env python3
"""Benchmark of the gossipcf simulator: one workload, one seed, one result.

    python3 bench/run.py --workload flagship --seed 1 --seconds 20 --trace 0

Writes the synthetic ratings file (untimed), times set-up in fresh
processes, runs the workload in a child process that does nothing else,
checks the outputs apart from the library, and prints the metrics.  The last
line of stdout is one JSON object: end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``.  A failed check prints
``"correct": false`` and exits with code 1.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import checks
from workloads import DATA_SEED, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 5  # four set-up-only processes plus the workload process
SETUP_TIMEOUT_S = 30
RUN_MARGIN_S = 110  # beyond --seconds: set-up, the round that crosses it, the pickle

UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peer_turns_per_s": "1/s",
    "peak_rss_mb": "MB",
    "hit_rate": "fraction",
    "avg_similarity": "cosine",
}
LAYER_UNITS = {
    "harness.split_s": "s",
    "harness.self_s": "s",
    "recommend.arrays_s": "s",
    "recommend.reference_s": "s",
    "recommend.rank_s": "s",
    "recommend.rank_calls": "count",
    "recommend.needed_ratio": "ratio",
    "pushpull.exchange_s": "s",
    "pushpull.exchanges": "count",
    "pushpull.exchange_us": "us",
    "pushpull.effective_ratio": "ratio",
    "engine.cycle_s": "s",
    "engine.self_s": "s",
    "engine.setup_s": "s",
    "engine.skipped": "count",
    "engine.dead_entries": "count",
    "metrics.path_length_s": "s",
    "metrics.clustering_s": "s",
    "metrics.row_s": "s",
    "trace.bookkeeping_s": "s",
    "trace.wall_s": "s",
}


def write_ratings() -> Path:
    """The synthetic 943-user ratings file, written atomically."""
    from gossipcf.synth import generate_ratings, write_ratings_file

    path = OUT / f"ratings-{DATA_SEED}.data"
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    write_ratings_file(tmp, generate_ratings(seed=DATA_SEED))
    os.replace(tmp, path)
    return path


def child(args: list[str], timeout: float) -> bytes:
    """Run bench/worker.py with the checkout's ``src`` first on the path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    ))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        stdout=subprocess.PIPE, env=env, timeout=timeout, check=True,
    )
    return proc.stdout


def setup_seconds(data: Path) -> float:
    """Seconds from spawning a process to ratings loaded, for one fresh
    process, at the reference speed of the host (``calibrate.scaled``)."""
    start = time.perf_counter()
    out = json.loads(child(["setup", "--data", str(data)], SETUP_TIMEOUT_S))
    return calibrate.scaled(out["ready"] - start, out["kernel_s"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="master seed of the simulations")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring budget; whole rounds, at least one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "gossipcf" / "__init__.py").is_file():
        print(f"bench: no gossipcf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]

    data = write_ratings()
    setups = [setup_seconds(data) for _ in range(SETUP_SAMPLES - 1)]
    start = time.perf_counter()
    payload = pickle.loads(child(
        ["run", "--data", str(data), "--workload", workload.name, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(OUT)],
        args.seconds + RUN_MARGIN_S,
    ))
    setups.append(calibrate.scaled(payload["ready"] - start, payload["setup_kernel_s"]))

    correct, faults = True, {}
    try:
        faults = checks.run_checks(payload, checks.read_ratings(str(data)))
    except checks.CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        correct = False
    for fault in faults.values():
        print(f"failed, known fault: {fault}")

    # Rounds repeat the same calls.  Each round's time is scaled to the
    # reference speed by the readings taken all through it (calibrate.py);
    # the run reports the median round (the lower one of an even count).
    rounds = len(payload["round_s"])
    scaled = payload["scaled_s"]
    middle = sorted(range(rounds), key=scaled.__getitem__)[(rounds - 1) // 2]
    wall = scaled[middle]
    if args.trace:
        factor = wall / payload["round_s"][middle]
        measured = {
            name: value * factor if LAYER_UNITS[name] in ("s", "us") else value
            for name, value in payload["layers"][middle].items()
        }
        measured["engine.skipped"] = payload["skipped"]
        measured["engine.dead_entries"] = payload["dead_entries"]
        measured["trace.wall_s"] = wall
        metrics = {name: measured[name] for name in LAYER_UNITS}
        units = LAYER_UNITS
    else:
        # Quality over the simulations that did not fail.
        finals = [t["rows"][-1] for i, t in enumerate(payload["trials"]) if i not in faults]
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "peer_turns_per_s": workload.peer_turns() / wall,
            "peak_rss_mb": payload["peak_rss_mb"],
            "hit_rate": statistics.fmean(row["hit_rate"] for row in finals),
            "avg_similarity": statistics.fmean(row["avg_similarity"] for row in finals),
        }
        units = UNITS

    # Every round repeats the first, which the checks saw, so each fails alike.
    attempted, failed = rounds * workload.simulations, rounds * len(faults)
    print(f"workload {workload.name}  seed {args.seed}  rounds {rounds}  "
          f"round_s {[round(s, 3) for s in payload['round_s']]}  "
          f"scaled {[round(s, 3) for s in scaled]}  "
          f"kernel_ms {[round(1e3 * statistics.median(k), 3) for k in payload['kernels']]}  "
          f"setup_s {[round(s, 3) for s in setups]}")
    print(f"rows_sha256 {payload['digests'][0]}  ({payload['rows_csv']})")
    for name, value in metrics.items():
        print(f"{name:28s} {value:>14.6f} {units[name]}")
    print(f"attempted {attempted}  failed {failed}  correct {correct}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
