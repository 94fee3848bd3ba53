"""Dataset ingestion, all-but-1 splits and multi-trial experiments.

Each trial hides one uniformly random rating per user, trains every component
on the remainder, runs the centralized reference (global top-k neighborhoods
over significance-weighted similarity) and the overlay simulation on the same
split, and folds the snapshot stream into per-cycle metric rows.  Trials use
independent seed streams derived from the master seed and the trial index, so
adding trials never perturbs earlier ones.  Per-cycle means come with
Student-t 95% confidence intervals over trials.

While folding, every snapshot of every protocol passes a strict invariant
check: capacity and uniqueness of each neighborhood, self-exclusion (no
neighborhood holds its owner, even where a global-view cache keeps the
owner's entry), no recommended item the peer already rated, and per-peer
dominance of the size-matched global top-m similarity mean over the
neighborhood mean (the global top-m maximizes the mean over every m-subset,
so a violation can only be an implementation bug).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .engine import ChurnSpec, CycleSnapshot, InvalidConfig, SimConfig, run_simulation
from .metrics import CycleMetrics, compute_cycle_metrics
from .recommend import (
    RatingMatrix,
    TrainingArrays,
    build_training_arrays,
    centralized_neighborhoods,
    tally_votes,
    top_m_mean_table,
    top_n_from_votes,
    weighted_similarity_matrix,
)

DOMINANCE_EPS = 1e-9


class ParseError(Exception):
    """A ratings file line could not be parsed."""


class RangeError(Exception):
    """A parsed rating falls outside the 1..5 scale."""


class UserTooSparse(Exception):
    """A user has too few ratings to split."""


def load_ratings(path: str | Path) -> RatingMatrix:
    """Parse a tab-separated user/item/rating[/timestamp] file.

    The trailing timestamp field is ignored.  Duplicate (user, item) pairs
    and malformed lines raise ParseError with the offending line number;
    ratings outside 1..5 raise RangeError.
    """
    path = Path(path)
    by_user: dict[int, dict[int, int]] = {}
    count = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) not in (3, 4):
                raise ParseError(f"{path}:{lineno}: expected 3 or 4 tab-separated fields")
            try:
                user, item, rating = int(fields[0]), int(fields[1]), int(fields[2])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: non-integer field") from exc
            if not 1 <= rating <= 5:
                raise RangeError(f"{path}:{lineno}: rating {rating} outside 1..5")
            row = by_user.setdefault(user, {})
            if item in row:
                raise ParseError(f"{path}:{lineno}: duplicate rating for user {user}, item {item}")
            row[item] = rating
            count += 1
    if count == 0:
        raise ParseError(f"{path}: no ratings found")
    return RatingMatrix(by_user)


@dataclass
class SplitSpec:
    """One all-but-1 partition: training matrix plus the hidden cell per peer."""

    training: RatingMatrix
    hidden: dict[int, tuple[int, int]]  # peer -> (item id, rating)

    def hidden_items(self) -> dict[int, int]:
        return {peer: item for peer, (item, _) in self.hidden.items()}


def all_but_1_split(ratings: RatingMatrix, rng: np.random.Generator) -> SplitSpec:
    """Move exactly one uniformly random rating per user into the hidden set.

    Peer indices are preserved: every user keeps at least one training rating,
    so the training matrix has the same users in the same order.
    """
    hidden: dict[int, tuple[int, int]] = {}
    rows: list[dict[int, int]] = []
    for peer, key in enumerate(ratings.user_keys):
        row = ratings.rows[peer]
        if len(row) < 2:
            raise UserTooSparse(f"user {key} has {len(row)} ratings, need at least 2")
        items = sorted(row)
        pick = items[int(rng.integers(len(items)))]
        hidden[peer] = (pick, row[pick])
        rows.append(kept := dict(row))
        del kept[pick]
    return SplitSpec(training=RatingMatrix._adopt(list(ratings.user_keys), rows), hidden=hidden)


@dataclass
class TrialResult:
    """Everything one (split, simulation) pair produced.

    ``strict_checked`` records that every snapshot passed the protocol-law
    and dominance assertions while the trial ran.
    """

    trial: int
    config: SimConfig
    metrics: list[CycleMetrics]
    centralized_avg_similarity: float
    centralized_hit_rate: float
    first_full_cycle: int | None
    strict_checked: bool = False


class _StrictChecker:
    """Per-snapshot protocol-law assertions, cheap enough to always run."""

    def __init__(self, config: SimConfig, arrays: TrainingArrays, top_m_means: np.ndarray):
        self.config = config
        self.arrays = arrays
        self.top_m_means = top_m_means
        max_id = int(arrays.item_ids.max())
        self.col_of_id = np.full(max_id + 2, -1, dtype=np.int64)
        self.col_of_id[arrays.item_ids] = np.arange(arrays.item_ids.size)

    def check(self, snap: CycleSnapshot) -> None:
        k = self.config.cache_size
        counts = np.diff(snap.indptr)
        if (counts > k).any():
            raise AssertionError(f"cycle {snap.cycle}: cache over capacity")
        alive_ids = np.flatnonzero(snap.alive)
        live = np.repeat(snap.alive, counts)
        n = counts.size
        owners = np.repeat(np.arange(n), counts)[live]
        ids = snap.neighbors[live]
        # One int64 key per entry sorts by owner, then id, as a lexsort would.
        keys = np.sort(owners * n + ids)
        duplicated = keys[1:][keys[1:] == keys[:-1]] // n
        holds_self = owners[ids == owners]
        # Peers are checked in id order, a peer's duplicates before its self entry.
        first_dup = duplicated[0] if duplicated.size else None
        first_self = holds_self[0] if holds_self.size else None
        if first_dup is not None and (first_self is None or first_dup <= first_self):
            raise AssertionError(f"cycle {snap.cycle}: duplicate cache id at peer {first_dup}")
        if first_self is not None:
            raise AssertionError(f"cycle {snap.cycle}: self in neighborhood of {first_self}")
        rows = snap.rec_items[alive_ids]
        listed = rows >= 0
        listed_by = np.repeat(alive_ids, listed.sum(axis=1))
        consumed = self.arrays.binary[listed_by, self.col_of_id[rows[listed]]] != 0
        if consumed.any():
            raise AssertionError(
                f"cycle {snap.cycle}: peer {listed_by[consumed.argmax()]} "
                "was recommended a consumed item"
            )
        eligible = snap.alive & (counts > 0)
        if eligible.any():
            m = np.minimum(counts[eligible], self.top_m_means.shape[1]) - 1
            bound = self.top_m_means[np.flatnonzero(eligible), m]
            observed = snap.cache_sim_mean[eligible]
            if (observed > bound + DOMINANCE_EPS).any():
                raise AssertionError(
                    f"cycle {snap.cycle}: overlay similarity exceeded the global top-m bound"
                )


def _centralized_hit_rate(
    arrays: TrainingArrays,
    neighborhoods: np.ndarray,
    hidden: dict[int, int],
    top_n: int,
) -> float:
    hits = 0
    for peer in range(arrays.binary.shape[0]):
        votes = tally_votes(arrays, neighborhoods[peer])
        ranked = top_n_from_votes(votes, arrays.rated_cols[peer], top_n, arrays.item_ids)
        if any(item == hidden[peer] for item, _ in ranked):
            hits += 1
    return hits / arrays.binary.shape[0]


def split_seed(master_seed: int, trial: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(trial, 0))


def sim_seed(master_seed: int, trial: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(trial, 1))


@dataclass
class _Reference:
    """One trial's split, its training arrays and the centralized reference."""

    hidden: dict[int, int]
    arrays: TrainingArrays
    top_m: np.ndarray
    avg_similarity: float
    hit_rate: float


def _reference(config: SimConfig, ratings: RatingMatrix, trial: int) -> _Reference:
    """Draw trial ``trial``'s split and score the centralized reference on it."""
    split_rng = np.random.Generator(np.random.PCG64(split_seed(config.seed, trial)))
    split = all_but_1_split(ratings, split_rng)
    hidden = split.hidden_items()
    arrays = build_training_arrays(split.training)
    top_m = top_m_mean_table(arrays.similarity, config.cache_size)
    weighted = weighted_similarity_matrix(arrays, config.significance_threshold)
    neighborhoods = centralized_neighborhoods(weighted, config.cache_size)
    return _Reference(
        hidden=hidden,
        arrays=arrays,
        top_m=top_m,
        avg_similarity=float(top_m[:, -1].mean()),
        hit_rate=_centralized_hit_rate(arrays, neighborhoods, hidden, config.top_n),
    )


def run_trial(
    config: SimConfig,
    ratings: RatingMatrix,
    trial: int,
    structural: bool = True,
    strict: bool = True,
) -> TrialResult:
    """One split plus one simulation, folded into metric rows."""
    if config.n_peers != ratings.n_users:
        raise InvalidConfig(
            f"config expects {config.n_peers} peers, dataset has {ratings.n_users} users"
        )
    ref = _reference(config, ratings, trial)
    arrays, hidden = ref.arrays, ref.hidden
    checker = _StrictChecker(config, arrays, ref.top_m) if strict else None
    rows: list[CycleMetrics] = []
    first_full: int | None = None
    k = config.cache_size
    for snap in run_simulation(config, arrays, sim_seed(config.seed, trial)):
        if checker is not None:
            checker.check(snap)
        if first_full is None:
            counts = np.diff(snap.indptr)[snap.alive]
            if counts.size and counts.min() >= k:
                first_full = snap.cycle
        rows.append(compute_cycle_metrics(snap, hidden, structural))
    return TrialResult(
        trial=trial,
        config=config,
        metrics=rows,
        centralized_avg_similarity=ref.avg_similarity,
        centralized_hit_rate=ref.hit_rate,
        first_full_cycle=first_full,
        strict_checked=checker is not None,
    )


AGGREGATED_FIELDS = tuple(f.name for f in fields(CycleMetrics) if f.name != "cycle")


@dataclass
class ExperimentResult:
    """Per-trial series plus across-trial mean and 95% CI series."""

    config: SimConfig
    trials: list[TrialResult]
    mean: dict[str, np.ndarray]
    ci_half: dict[str, np.ndarray]


def ci95_half_width(samples: np.ndarray) -> np.ndarray:
    """Student-t 95% confidence half-width of the mean over axis 0.

    ``stdtrit`` gives the same quantile as ``scipy.stats.t.ppf`` without
    importing ``scipy.stats``.  It is imported on first use: importing SciPy
    took much of the library's set-up time, and a single trial needs none.
    """
    from scipy.special import stdtrit

    n = samples.shape[0]
    return float(stdtrit(n - 1, 0.975)) * samples.std(axis=0, ddof=1) / np.sqrt(n)


def _aggregate(trials: list[TrialResult]) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    mean: dict[str, np.ndarray] = {}
    ci: dict[str, np.ndarray] = {}
    for name in AGGREGATED_FIELDS:
        # a structural field skipped by the run is None, which becomes NaN
        series = np.array(
            [[getattr(row, name) for row in trial.metrics] for trial in trials],
            dtype=np.float64,
        )
        mean[name] = series.mean(axis=0)
        ci[name] = ci95_half_width(series)
    for name in ("centralized_avg_similarity", "centralized_hit_rate"):
        values = np.array([getattr(trial, name) for trial in trials], dtype=np.float64)
        mean[name] = np.full_like(mean["hit_rate"], values.mean())
        ci[name] = np.full_like(mean["hit_rate"], ci95_half_width(values))
    return mean, ci


def run_experiment(
    config: SimConfig,
    ratings: RatingMatrix,
    trials: int,
    structural: bool = True,
) -> ExperimentResult:
    """Independent trials with derived seeds, aggregated per cycle."""
    if trials < 2:
        raise InvalidConfig("need at least 2 trials for confidence intervals")
    results = [
        run_trial(config, ratings, trial, structural=structural)
        for trial in range(trials)
    ]
    mean, ci_half = _aggregate(results)
    return ExperimentResult(config=config, trials=results, mean=mean, ci_half=ci_half)


def centralized_baseline(
    config: SimConfig, ratings: RatingMatrix, trials: int
) -> list[tuple[float, float]]:
    """Per-trial (avg similarity, hit rate) of the centralized reference only.

    Uses the same per-trial splits as the full experiment, so numbers line up
    with run_experiment output for the same master seed.
    """
    if trials < 1:
        raise InvalidConfig("need at least 1 trial")
    refs = (_reference(config, ratings, trial) for trial in range(trials))
    return [(ref.avg_similarity, ref.hit_rate) for ref in refs]


@dataclass(frozen=True)
class ChurnRow:
    """Final-cycle hit rate for one loss percentage under one accounting."""

    pct: float
    mode: str
    hit_rate_mean: float
    ci_low: float
    ci_high: float


def churn_sweep(
    base_config: SimConfig,
    ratings: RatingMatrix,
    percentages: Sequence[float],
    trials: int,
    at_cycle: int,
) -> list[ChurnRow]:
    """Disturb the overlay at ``at_cycle`` and read end-of-run hit rates.

    One simulation per percentage serves both accountings: the silenced peer
    set is identical, only the denominator differs.  Structural metrics are
    skipped, the sweep output does not use them.  Every level's config is
    validated before the first trial runs; an empty list of levels, or a
    level given twice, is a config error.
    """
    if not percentages:
        raise InvalidConfig("no churn percentages to sweep")
    if len({float(p) for p in percentages}) < len(percentages):
        raise InvalidConfig(f"repeated churn percentage in {list(percentages)}")
    configs = [
        replace(base_config, churn=ChurnSpec(mode="leavings", pct=float(pct), at_cycle=at_cycle))
        for pct in percentages
    ]
    rows: list[ChurnRow] = []
    for cfg in configs:
        result = run_experiment(cfg, ratings, trials, structural=False)
        for mode, field in (
            ("failures", "hit_rate"),
            ("leavings", "hit_rate_voluntary"),
        ):
            m = float(result.mean[field][-1])
            h = float(result.ci_half[field][-1])
            rows.append(
                ChurnRow(
                    pct=cfg.churn.pct, mode=mode, hit_rate_mean=m, ci_low=m - h, ci_high=m + h
                )
            )
    return rows
