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

import io
import math
import warnings
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .engine import ChurnSpec, CycleSnapshot, InvalidConfig, SimConfig, run_simulation
from .metrics import CycleMetrics, compute_cycle_metrics
from .recommend import (
    MAX_ITEM_ID,
    RatingMatrix,
    TrainingArrays,
    _csr,
    build_training_arrays,
    centralized_neighborhoods,
    hidden_columns,
    tally_votes,
    top_m_mean_table,
    top_n_from_votes,
    weighted_similarity_matrix,
)

DOMINANCE_EPS = 1e-9


class ParseError(Exception):
    """A ratings file line could not be parsed."""


class RangeError(Exception):
    """A parsed rating falls outside 1..5, or an item id outside 0..MAX_ITEM_ID."""


class UserTooSparse(Exception):
    """A user has too few ratings to split."""


def load_ratings(path: str | Path) -> RatingMatrix:
    """Parse a tab-separated user/item/rating[/timestamp] file.

    The trailing timestamp field is ignored.  Duplicate (user, item) pairs
    and malformed lines raise ParseError with the offending line number;
    ratings outside 1..5 and item ids outside 0..MAX_ITEM_ID raise
    RangeError.  A plain ASCII file of integer fields is read by NumPy's
    parser; anything else goes through the line parser (``_parse_lines``),
    with the same results and errors.
    """
    return parse_ratings(Path(path).read_bytes(), path)


def parse_ratings(data: bytes, path: str | Path) -> RatingMatrix:
    """``load_ratings`` over ``data``, the bytes read from ``path``.

    The bytes are decoded as UTF-8 with universal newlines, as a text-mode
    read gives them; bytes that are not UTF-8 raise ParseError.
    """
    path = Path(path)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: byte {exc.start}: not UTF-8 ({exc.reason})") from exc
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return _numpy_parse(text) or _parse_lines(path, io.StringIO(text))


def _numpy_parse(text: str) -> RatingMatrix | None:
    """The matrix NumPy's parser reads from ``text``, or None where the line
    parser must read it: anything but int64 rows of 3 or 4 fields with ratings
    in 1..5, item ids in 0..MAX_ITEM_ID and no repeated (user, item) pair."""
    # Plain ASCII only: NumPy's parser has crashed on some code points
    # beyond the BMP, and it skips \x1c-\x1f around a number; int() does not.
    if not text.isascii() or any(sep in text for sep in "\x1c\x1d\x1e\x1f"):
        return None
    try:
        with warnings.catch_warnings():
            # An empty file warns, and so does a float-as-int on older NumPy.
            warnings.simplefilter("error")
            table = np.loadtxt(io.StringIO(text), np.int64, delimiter="\t", comments=None, ndmin=2)
    except (ValueError, Warning):
        return None
    if not len(table) or table.shape[1] not in (3, 4):
        return None
    items, ratings = table[:, 1], table[:, 2]
    if not 1 <= ratings.min() <= ratings.max() <= 5:
        return None
    if not 0 <= items.min() <= items.max() <= MAX_ITEM_ID:
        return None
    keys, users = np.unique(table[:, 0], return_inverse=True)
    cells = _csr(keys.size, users, items, ratings.astype(np.float64))
    return None if cells is None else RatingMatrix._adopt(keys.tolist(), *cells)


def _parse_lines(path: Path, lines: Iterable[str]) -> RatingMatrix:
    """The line parser over the lines of the file at ``path``: the reference
    reading, and the only source of ParseError and RangeError."""
    by_user: dict[int, dict[int, int]] = {}
    for lineno, line in enumerate(lines, start=1):
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
        if not 0 <= item <= MAX_ITEM_ID:
            raise RangeError(f"{path}:{lineno}: item id {item} outside 0..{MAX_ITEM_ID}")
        row = by_user.setdefault(user, {})
        if item in row:
            raise ParseError(f"{path}:{lineno}: duplicate rating for user {user}, item {item}")
        row[item] = rating
    if not by_user:
        raise ParseError(f"{path}: no ratings found")
    return RatingMatrix(by_user)


@dataclass
class SplitSpec:
    """One all-but-1 partition: the training matrix, and ``hidden[v]``, the
    item id of peer v's hidden rating (int64, one per peer)."""

    training: RatingMatrix
    hidden: np.ndarray


def all_but_1_split(ratings: RatingMatrix, rng: np.random.Generator) -> SplitSpec:
    """Move exactly one uniformly random rating per user into the hidden set.

    Peer v hides the ``rng.integers(count)``-th of its ``count`` item ids,
    ascending.  One batched draw gives the values and generator state of one
    scalar draw per peer in peer order.  Every user keeps at least one
    training rating, so the training matrix has the same users in the same
    order; it shares ``user_keys`` with ``ratings``.
    """
    counts = np.diff(ratings.indptr)
    sparse = np.flatnonzero(counts < 2)
    if sparse.size:
        key, count = ratings.user_keys[sparse[0]], counts[sparse[0]]
        raise UserTooSparse(f"user {key} has {count} ratings, need at least 2")
    picks = ratings.indptr[:-1] + rng.integers(counts)
    indptr = ratings.indptr - np.arange(counts.size + 1)
    items, values = np.delete(ratings.items, picks), np.delete(ratings.ratings, picks)
    training = RatingMatrix._adopt(ratings.user_keys, indptr, items, values)
    return SplitSpec(training=training, hidden=ratings.items[picks])


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


def _check_snapshot(snap: CycleSnapshot, binary: np.ndarray, top_m: np.ndarray) -> None:
    """Per-snapshot protocol-law assertions, cheap enough to always run.

    ``binary`` is the training matrix's rated flags and ``top_m`` the global
    top-m mean table, one column per neighborhood size up to the cache size.
    """
    k = top_m.shape[1]
    counts = np.diff(snap.indptr)
    if (counts > k).any():
        raise AssertionError(f"cycle {snap.cycle}: cache over capacity")
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
    listed = (snap.rec_cols >= 0) & snap.alive[:, None]
    listed_by = np.nonzero(listed)[0]
    consumed = binary[listed_by, snap.rec_cols[listed]] != 0
    if consumed.any():
        raise AssertionError(
            f"cycle {snap.cycle}: peer {listed_by[consumed.argmax()]} "
            "was recommended a consumed item"
        )
    eligible = snap.alive & (counts > 0)
    if eligible.any():
        m = np.minimum(counts[eligible], k) - 1
        bound = top_m[np.flatnonzero(eligible), m]
        observed = snap.cache_sim_mean[eligible]
        if (observed > bound + DOMINANCE_EPS).any():
            raise AssertionError(
                f"cycle {snap.cycle}: overlay similarity exceeded the global top-m bound"
            )


def _centralized_hit_rate(
    arrays: TrainingArrays,
    neighborhoods: np.ndarray,
    hidden: np.ndarray,
    top_n: int,
) -> float:
    """The fraction of peers whose hidden column (``hidden_columns``) makes
    the top-N of their global neighborhood."""
    hits = 0
    size = neighborhoods.shape[1]  # a neighbor casts at most one vote per column
    for peer, held_out in enumerate(hidden.tolist()):
        votes = tally_votes(arrays, neighborhoods[peer])
        cols, _ = top_n_from_votes(votes, arrays.rated_cols[peer], top_n, size)
        hits += held_out in cols
    return hits / hidden.size


def split_seed(master_seed: int, trial: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(trial, 0))


def sim_seed(master_seed: int, trial: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(trial, 1))


@dataclass
class _Reference:
    """One trial's split, its training arrays and the centralized reference.

    ``hidden`` holds each peer's hidden column (``hidden_columns``).
    """

    hidden: np.ndarray
    arrays: TrainingArrays
    top_m: np.ndarray
    avg_similarity: float
    hit_rate: float


def _reference(config: SimConfig, ratings: RatingMatrix, trial: int) -> _Reference:
    """Draw trial ``trial``'s split and score the centralized reference on it."""
    split_rng = np.random.Generator(np.random.PCG64(split_seed(config.seed, trial)))
    split = all_but_1_split(ratings, split_rng)
    arrays = build_training_arrays(split.training)
    top_m = top_m_mean_table(arrays.similarity, config.cache_size)
    weighted = weighted_similarity_matrix(arrays, config.significance_threshold)  # row blocks
    neighborhoods = centralized_neighborhoods(weighted, config.cache_size)
    hidden = hidden_columns(arrays, split.hidden)
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
    rows: list[CycleMetrics] = []
    first_full: int | None = None
    k = config.cache_size
    for snap in run_simulation(config, arrays, sim_seed(config.seed, trial)):
        if strict:
            _check_snapshot(snap, arrays.binary, ref.top_m)
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
        strict_checked=strict,
    )


AGGREGATED_FIELDS = tuple(f.name for f in fields(CycleMetrics) if f.name != "cycle")
# The per-trial constants of a ``TrialResult``, aggregated after the series.
CENTRALIZED_FIELDS = ("centralized_avg_similarity", "centralized_hit_rate")


@dataclass
class ExperimentResult:
    """Per-trial series plus across-trial mean and 95% CI series."""

    trials: list[TrialResult]
    mean: dict[str, np.ndarray]
    ci_half: dict[str, np.ndarray]


def _t_upper_tail(t: float, dof: int) -> float:
    """P(T > t) for Student's t with ``dof`` >= 1 degrees of freedom, t > 0.

    With theta = atan(t / sqrt(dof)), the CDF of an integer dof is a finite
    series in sin(theta) and cos(theta), and 1 - CDF cancels near the 0.975
    quantile.  The complement is summed instead: sin(theta) / (pi if dof is
    odd else 2) times the sum of c_r cos(theta)^r over r = dof, dof + 2, ...,
    with c_dof = (dof - 1)!! / dof!! and c_{r+2} = c_r (r + 1) / (r + 2).
    Every term is positive, so nothing cancels; the sum stops once the rest
    is below 2^-60 of it.
    """
    if dof == 1:  # Cauchy: the series sums to atan(1 / t) / pi
        return math.atan2(1.0, t) / math.pi
    t2 = t * t
    sin2 = t2 / (dof + t2)
    log_cos = -math.log1p(t2 / dof) / 2
    coef = math.prod(range(dof - 1, 0, -2)) / math.prod(range(dof, 0, -2))
    terms, r = [], dof
    while True:
        terms.append(coef * math.exp(r * log_cos))
        # the rest is below the last term over 1 - cos^2 = sin^2
        if terms[-1] < terms[0] * sin2 * 2.0**-60:
            break
        coef *= (r + 1) / (r + 2)
        r += 2
    return math.sqrt(sin2) / (math.pi if dof % 2 else 2) * math.fsum(terms)


def t975(dof: int) -> float:
    """The 0.975 quantile of Student's t with ``dof`` degrees of freedom.

    Newton's method on ``_t_upper_tail(t) = 0.025``, from the normal
    quantile up, until the step stops moving t up.  The tail is convex
    above 0, so every step lands short of the root and the iterates rise to
    it; the last one is within an ulp or two of the correctly rounded
    quantile.  The cost grows linearly with ``dof``.
    """
    if dof < 1:
        raise InvalidConfig(f"a t quantile needs at least 1 degree of freedom, got {dof}")
    log_norm = math.lgamma((dof + 1) / 2) - math.lgamma(dof / 2) - math.log(dof * math.pi) / 2
    t = 1.9599639845400543  # the normal quantile, the limit as dof grows
    while True:
        density = math.exp(log_norm - (dof + 1) / 2 * math.log1p(t * t / dof))
        above = t + (_t_upper_tail(t, dof) - 0.025) / density
        if above <= t:
            return t
        t = above


def ci95_half_width(samples: np.ndarray) -> np.ndarray:
    """Student-t 95% confidence half-width of the mean over axis 0.

    The multiplier is ``t975(n - 1)``, computed with ``math`` alone from the
    closed form of the t distribution for integer degrees of freedom.
    """
    n = samples.shape[0]
    return t975(n - 1) * samples.std(axis=0, ddof=1) / np.sqrt(n)


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
    for name in CENTRALIZED_FIELDS:
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
    return ExperimentResult(trials=results, mean=mean, ci_half=ci_half)


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
