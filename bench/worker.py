"""Benchmark child process: import, load the ratings, run one workload.

``setup`` mode stops after ``harness.load_ratings`` and prints the
``time.perf_counter()`` reading at that point (the clock is system-wide on
Linux, so the parent subtracts its own reading taken before the spawn),
with the host's speed (``calibrate``) read before the import and after the
load.
``run`` mode then repeats whole rounds of the workload until the next round
would end past ``--seconds`` (at least one round), reading the host's speed
all through each round, and writes a pickle of plain Python and NumPy data
to stdout for the parent's checks.  Only the library calls are timed; peak
RSS is read after the first round.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import pickle
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any

from calibrate import Sampler, kernel_seconds
from instrument import Capture, Tracer, patched
from workloads import UNCHECKED_PROTOCOLS, WORKLOADS

SETUP_REPEATS = 15  # kernel runs in each of the two readings that scale a set-up time


def setup(data: str):
    """Import the library and load the ratings, reading the host's speed
    before and after.  Returns the ratings, the ``time.perf_counter()``
    reading at the end less the first reading's own time, and the mean of
    the two readings."""
    start = time.perf_counter()
    first = kernel_seconds(SETUP_REPEATS)
    reading_s = time.perf_counter() - start
    from gossipcf import engine, harness, metrics, recommend  # noqa: F401

    ratings = harness.load_ratings(data)
    ready = time.perf_counter() - reading_s
    return ratings, ready, (first + kernel_seconds(SETUP_REPEATS)) / 2


def run_round(workload, harness, SimConfig, ratings, seed: int):
    """One round of library calls; returns the churn rows of a sweep."""
    if workload.churn_pcts:
        base = SimConfig(
            n_peers=workload.n_peers, cycles=workload.cycles, seed=seed,
            protocol=workload.protocols[0],
        )
        return harness.churn_sweep(
            base, ratings, [float(p) for p in workload.churn_pcts],
            workload.trials, at_cycle=workload.churn_at,
        )
    protocols = [p for p in workload.protocols for _ in range(workload.trials)]
    for trial, protocol in enumerate(protocols):
        config = SimConfig(
            n_peers=workload.n_peers, cycles=workload.cycles, seed=seed, protocol=protocol
        )
        harness.run_trial(
            config, ratings, trial, structural=workload.structural,
            strict=protocol not in UNCHECKED_PROTOCOLS,
        )
    return None


def metric_rows(trials: list[dict[str, Any]], columns) -> list[list[Any]]:
    """Per-cycle rows of every captured trial, laid out as ``gossipcf run``."""
    rows = []
    for record in trials:
        result = record["result"]
        for row in result.metrics:
            rows.append([
                result.trial if col == "trial"
                else getattr(row, col) if hasattr(row, col)
                else getattr(result, col)
                for col in columns
            ])
    return rows


def rows_digest(trials, cli, path: Path) -> str:
    """sha256 of the rows as ``cli._write_csv`` writes them, file kept at ``path``."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    cli._write_csv(tmp, cli.METRICS_COLUMNS, metric_rows(trials, cli.METRICS_COLUMNS))
    digest = hashlib.sha256(tmp.read_bytes()).hexdigest()
    os.replace(tmp, path)
    return digest


def snapshot_record(snap) -> dict[str, Any]:
    """The fields of one ``CycleSnapshot`` that the checks read."""
    return {
        "cycle": snap.cycle,
        "neighbor_ids": snap.neighbor_ids,
        "cache_sim_mean": snap.cache_sim_mean,
        "rec_items": snap.rec_items,
        "rec_votes": snap.rec_votes,
        "alive": snap.alive,
        "left": snap.left,
        "receptions": snap.receptions,
    }


def trial_record(record: dict[str, Any]) -> dict[str, Any]:
    """The parts of one captured trial that the checks read, as plain data.

    ``snapshots`` holds every snapshot of a trial run without the library's
    strict checker, and only the final one otherwise; ``final`` is its last.
    """
    result = record["result"]
    snapshots = [snapshot_record(s) for s in record["every"] or [record["final"]]]
    config = result.config
    churn = config.churn
    return {
        "protocol": config.protocol,
        "n": config.n_peers,
        "k": config.cache_size,
        "top_n": config.top_n,
        "cycles": config.cycles,
        "seed": config.seed,
        "threshold": config.significance_threshold,
        "trial": result.trial,
        "churn": None if churn is None else (churn.mode, churn.pct, churn.at_cycle),
        "structural": record["structural"],
        "rows": [dataclasses.asdict(row) for row in result.metrics],
        "neighborhoods": record["neighborhoods"],
        "snapshots": snapshots,
        "final": snapshots[-1],
    }


def dead_entries(record: dict[str, Any]) -> int:
    """Cache entries naming a silenced peer, held by live peers at the end."""
    snap = record["final"]
    return int(sum(
        (~snap.alive[ids]).sum() for v, ids in enumerate(snap.neighbor_ids) if snap.alive[v]
    ))


def measure(workload, data: str, seed: int, seconds: float, trace: bool, out_dir: Path):
    """Set up, then run whole rounds of ``workload`` within ``seconds``."""
    ratings, ready, setup_kernel_s = setup(data)
    from gossipcf import cli, engine, harness, metrics
    from gossipcf.engine import SimConfig

    capture = Capture(harness)
    tracer = Tracer(harness, engine, metrics) if trace else None
    sampler = Sampler(tracer.untraced if tracer else None)
    out_csv = out_dir / f"{workload.name}-seed{seed}-rows.csv"
    round_s: list[float] = []
    scaled_s: list[float] = []
    kernels: list[list[float]] = []
    layers: list[dict[str, float]] = []
    accounted: list[float] = []
    digests: list[str] = []
    kept: list[dict[str, Any]] = []
    churn_rows = None
    with patched(capture.patches()), patched(tracer.patches() if tracer else []), \
            patched(sampler.patches(harness)):
        while True:
            capture.trials.clear()
            if tracer:
                tracer.reset()
            gc.collect()
            sampler.reset()
            sampler.read()
            rows = run_round(workload, harness, SimConfig, ratings, seed)
            sampler.read()
            round_s.append(sum(sampler.segments))
            scaled_s.append(sampler.scaled_s())
            kernels.append(sampler.kernels)
            if tracer:
                layers.append(tracer.layer_metrics())
                accounted.append(tracer.accounted_s())
            digests.append(rows_digest(capture.trials, cli, out_csv))
            if not kept:
                # Rounds repeat the same work; later ones only add the kept results.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                kept = list(capture.trials)
                churn_rows = rows
            if sum(round_s) + statistics.median(round_s) > seconds:
                break
    return {
        "ready": ready,
        "setup_kernel_s": setup_kernel_s,
        "round_s": round_s,
        "scaled_s": scaled_s,
        "kernels": kernels,
        "peak_rss_mb": peak_rss_mb,
        "digests": digests,
        "rows_csv": str(out_csv),
        "trials": [trial_record(record) for record in kept],
        "churn_rows": None if churn_rows is None else [dataclasses.asdict(r) for r in churn_rows],
        "skipped": sum(record["skipped"] for record in kept),
        "dead_entries": sum(dead_entries(record) for record in kept),
        "layers": layers,
        "accounted_s": accounted,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--data", required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    if args.mode == "setup":
        _, ready, kernel_s = setup(args.data)
        print(json.dumps({"ready": ready, "kernel_s": kernel_s}))
        return 0
    payload = measure(
        WORKLOADS[args.workload], args.data, args.seed, args.seconds, bool(args.trace),
        Path(args.out),
    )
    sys.stdout.flush()
    sys.stdout.buffer.write(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
