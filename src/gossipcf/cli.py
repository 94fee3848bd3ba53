"""Command-line surface: configuration, experiment orchestration, CSV output.

Subcommands:

* ``run``           one experiment (per-cycle metrics over several trials)
* ``sweep-churn``   disturbance sweep, end-of-run hit rates per loss level
* ``baseline``      centralized reference numbers only
* ``validate-data`` parse a ratings file and report its shape

Settings resolve in precedence order: command-line flags, then environment
variables prefixed ``GOSSIPCF_`` (e.g. ``GOSSIPCF_CACHE_SIZE``), then a flat
``key=value`` config file given via ``--config``, then defaults matching the
evaluated setup.  Every emitted number is reproducible from the manifest
written next to the CSVs: same config plus master seed gives byte-identical
files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .engine import (
    CHURN_MODES, DEFAULT_CHURN_PERCENTAGES, PROTOCOLS, ChurnSpec, InvalidConfig, SimConfig,
)
from .harness import (
    ChurnRow,
    ExperimentResult,
    ParseError,
    RangeError,
    UserTooSparse,
    centralized_baseline,
    churn_sweep,
    ci95_half_width,
    load_ratings,
    run_experiment,
)
from .metrics import NoEligiblePeers
from .recommend import RatingMatrix
from . import __version__

ENV_PREFIX = "GOSSIPCF_"

_INT_KEYS = {"seed", "trials", "cycles", "cache_size", "top_n", "churn_cycle",
             "significance_threshold"}
_FLOAT_KEYS = {"churn_pct", "bootstrap_degree"}
_STR_KEYS = {"data", "protocol", "churn_mode", "out", "churn_pcts"}
KNOWN_KEYS = _INT_KEYS | _FLOAT_KEYS | _STR_KEYS

DEFAULTS: dict[str, Any] = {
    "data": None,
    "seed": 0,
    "trials": 5,
    "cycles": 100,
    "cache_size": 20,
    "top_n": 10,
    "protocol": "swarmix",
    "churn_pct": None,
    "churn_mode": "failures",
    "churn_cycle": 50,
    "significance_threshold": 50,
    "bootstrap_degree": 2.494,
    "out": "results",
    "churn_pcts": ",".join(str(p) for p in DEFAULT_CHURN_PERCENTAGES),
}

METRICS_COLUMNS = (
    "trial",
    "cycle",
    "avg_similarity",
    "similarity_variance",
    "hit_rate",
    "hit_rate_voluntary",
    "avg_path_length",
    "path_coverage",
    "clustering_coefficient",
    "in_degree_mean",
    "in_degree_variance",
    "centralized_avg_similarity",
    "centralized_hit_rate",
)

CHURN_COLUMNS = ("pct", "mode", "hit_rate_mean", "ci_low", "ci_high")
BASELINE_COLUMNS = ("trial", "centralized_avg_similarity", "centralized_hit_rate")


class IoError(Exception):
    """Result files could not be written."""


@dataclass(frozen=True)
class Settings:
    """Fully resolved run settings (flags over env over file over defaults)."""

    data: str | None
    seed: int
    trials: int
    cycles: int
    cache_size: int
    top_n: int
    protocol: str
    churn_pct: float | None
    churn_mode: str
    churn_cycle: int
    significance_threshold: int
    bootstrap_degree: float
    out: str
    churn_pcts: str

    def sim_config(self, n_peers: int) -> SimConfig:
        churn = None
        if self.churn_pct is not None:
            churn = ChurnSpec(
                mode=self.churn_mode, pct=self.churn_pct, at_cycle=self.churn_cycle
            )
        return SimConfig(
            n_peers=n_peers,
            cache_size=self.cache_size,
            cycles=self.cycles,
            seed=self.seed,
            protocol=self.protocol,
            churn=churn,
            top_n=self.top_n,
            significance_threshold=self.significance_threshold,
            bootstrap_degree=self.bootstrap_degree,
        )

    def sweep_percentages(self) -> list[float]:
        try:
            return [float(p) for p in self.churn_pcts.split(",") if p.strip() != ""]
        except ValueError as exc:
            raise InvalidConfig(f"bad churn_pcts list: {self.churn_pcts!r}") from exc


def _coerce(key: str, raw: Any) -> Any:
    if raw is None or not isinstance(raw, str):
        return raw
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
    except ValueError as exc:
        raise InvalidConfig(f"config key {key!r}: cannot parse {raw!r}") from exc
    return raw


def read_config_file(path: str | Path) -> dict[str, Any]:
    """Flat key=value lines; blank lines and # comments allowed."""
    values: dict[str, Any] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise InvalidConfig(f"{path}:{lineno}: expected key=value")
            key, _, value = stripped.partition("=")
            key = key.strip()
            if key not in KNOWN_KEYS:
                raise InvalidConfig(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = _coerce(key, value.strip())
    return values


def read_env(environ: Mapping[str, str] | None = None) -> dict[str, Any]:
    env = os.environ if environ is None else environ
    values: dict[str, Any] = {}
    for key in KNOWN_KEYS:
        raw = env.get(ENV_PREFIX + key.upper())
        if raw is not None:
            values[key] = _coerce(key, raw)
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gossipcf",
        description="Epidemic overlay simulation with a distributed recommender.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, churn: bool = False) -> None:
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--data", help="ratings file (tab-separated user/item/rating)")
        p.add_argument("--seed", type=int, help="master seed")
        p.add_argument("--trials", type=int, help="independent trials")
        p.add_argument("--cycles", type=int, help="protocol cycles per trial")
        p.add_argument("--cache-size", dest="cache_size", type=int, help="cache capacity k")
        p.add_argument("--top-n", dest="top_n", type=int, help="recommendation list length")
        p.add_argument("--protocol", choices=PROTOCOLS)
        p.add_argument("--significance-threshold", dest="significance_threshold", type=int)
        p.add_argument("--bootstrap-degree", dest="bootstrap_degree", type=float)
        p.add_argument("--out", help="output directory")
        if churn:
            p.add_argument("--churn-pct", dest="churn_pct", type=float)
            p.add_argument("--churn-mode", dest="churn_mode", choices=CHURN_MODES)
            p.add_argument("--churn-cycle", dest="churn_cycle", type=int)

    run_p = sub.add_parser("run", help="run one experiment and emit metrics.csv")
    add_common(run_p, churn=True)
    sweep_p = sub.add_parser("sweep-churn", help="loss sweep, emits churn.csv")
    add_common(sweep_p, churn=True)
    sweep_p.add_argument("--churn-pcts", dest="churn_pcts",
                         help="comma-separated loss percentages")
    base_p = sub.add_parser("baseline", help="centralized reference only")
    add_common(base_p)
    val_p = sub.add_parser("validate-data", help="parse and describe a ratings file")
    val_p.add_argument("--config", help="flat key=value config file")
    val_p.add_argument("--data", help="ratings file")
    return parser


def parse_config(argv: Sequence[str], environ=None) -> tuple[str, Settings]:
    """Resolve the command and settings with flags > env > file > defaults."""
    parser = _build_parser()
    ns = parser.parse_args(argv)
    resolved = dict(DEFAULTS)
    if getattr(ns, "config", None):
        resolved.update(read_config_file(ns.config))
    resolved.update(read_env(environ))
    for key in KNOWN_KEYS:
        value = getattr(ns, key, None)
        if value is not None:
            resolved[key] = value
    settings = Settings(**resolved)
    if settings.churn_mode not in CHURN_MODES:
        raise InvalidConfig(f"unknown churn mode: {settings.churn_mode!r}")
    # Surface bound violations now rather than mid-run.  The peer count is
    # known only once the data is loaded, so probe with the fewest peers the
    # cache size allows.
    probe = settings.sim_config(n_peers=max(2, settings.cache_size + 1))
    probe.validate()
    return ns.command, settings


def _fmt(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header: Sequence[str], rows: list[Sequence[Any]]) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(cell) for cell in row) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to bit-reproduce the emitted numbers."""

    tool: str
    version: str
    command: str
    config: dict[str, Any]
    trials: int
    data_path: str
    data_sha256: str
    seed_scheme: str
    per_trial: list[dict[str, Any]]
    outputs: list[str]

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


def build_manifest(
    command: str,
    config: SimConfig,
    trials: int,
    data_path: str,
    outputs: list[str],
) -> RunManifest:
    cfg = asdict(config)
    return RunManifest(
        tool="gossipcf",
        version=__version__,
        command=command,
        config=cfg,
        trials=trials,
        data_path=str(data_path),
        data_sha256=_sha256(data_path),
        seed_scheme="numpy SeedSequence(master_seed, spawn_key=(trial, role)); role 0=split, 1=sim",
        per_trial=[
            {"trial": t, "split_spawn_key": [t, 0], "sim_spawn_key": [t, 1]}
            for t in range(trials)
        ],
        outputs=outputs,
    )


def emit_metrics_csv(result: ExperimentResult, out_dir: Path) -> Path:
    """Per-trial per-cycle rows, then mean and ci95 aggregate rows.

    A trial row takes each column from the cycle's ``CycleMetrics`` field of
    that name, else from the ``TrialResult``; an aggregate row is its label,
    the cycle, then each column's entry in the mean or ci95 table.
    """
    rows: list[Sequence[Any]] = []
    for trial in result.trials:
        for row in trial.metrics:
            rows.append([
                getattr(row, col) if hasattr(row, col) else getattr(trial, col)
                for col in METRICS_COLUMNS
            ])
    cycles = [row.cycle for row in result.trials[0].metrics]
    for label, table in (("mean", result.mean), ("ci95", result.ci_half)):
        for i, cycle in enumerate(cycles):
            rows.append([label, cycle, *(table[col][i] for col in METRICS_COLUMNS[2:])])
    path = out_dir / "metrics.csv"
    _write_csv(path, METRICS_COLUMNS, rows)
    return path


def emit_churn_csv(rows: list[ChurnRow], out_dir: Path) -> Path:
    path = out_dir / "churn.csv"
    _write_csv(
        path,
        CHURN_COLUMNS,
        [(r.pct, r.mode, r.hit_rate_mean, r.ci_low, r.ci_high) for r in rows],
    )
    return path


def emit_baseline_csv(
    baselines: list[tuple[float, float]], out_dir: Path
) -> Path:
    rows: list[Sequence[Any]] = [
        (t, sim, hit) for t, (sim, hit) in enumerate(baselines)
    ]
    sims = np.array([s for s, _ in baselines])
    hits = np.array([h for _, h in baselines])
    rows.append(("mean", float(sims.mean()), float(hits.mean())))
    if len(baselines) > 1:
        rows.append(("ci95", float(ci95_half_width(sims)), float(ci95_half_width(hits))))
    path = out_dir / "baseline.csv"
    _write_csv(path, BASELINE_COLUMNS, rows)
    return path


def _require_data(settings: Settings) -> str:
    if not settings.data:
        raise InvalidConfig("a ratings file is required: pass --data PATH")
    return settings.data


def _cmd_validate(settings: Settings) -> int:
    path = _require_data(settings)
    matrix = load_ratings(path)
    per_user = [len(r) for r in matrix.rows]
    print(f"{path}: {matrix.n_users} users, {matrix.n_items} items, "
          f"{matrix.n_ratings} ratings")
    print(f"ratings per user: min={min(per_user)} "
          f"mean={matrix.n_ratings / matrix.n_users:.1f} max={max(per_user)}")
    return 0


def _run_and_write(
    settings: Settings,
    command: str,
    compute: Callable[[SimConfig, RatingMatrix], Any],
    emit: Callable[[Any, Path], Path],
) -> tuple[Any, Path]:
    """Load the ratings, compute, then write the CSV and ``manifest.json``.

    Nothing is written unless ``compute`` returns.
    """
    path = _require_data(settings)
    matrix = load_ratings(path)
    config = settings.sim_config(matrix.n_users)
    result = compute(config, matrix)
    out_dir = Path(settings.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = emit(result, out_dir)
    manifest = build_manifest(command, config, settings.trials, path, [written.name])
    (out_dir / "manifest.json").write_text(manifest.to_json(), encoding="utf-8")
    return result, written


def _cmd_run(settings: Settings) -> int:
    result, metrics_path = _run_and_write(
        settings, "run", lambda c, m: run_experiment(c, m, settings.trials), emit_metrics_csv
    )
    final_hit = result.mean["hit_rate"][-1]
    print(f"wrote {metrics_path} ({settings.trials} trials x {settings.cycles} cycles); "
          f"final mean hit rate {final_hit:.4f}")
    return 0


def _cmd_sweep(settings: Settings) -> int:
    rows, churn_path = _run_and_write(
        settings,
        "sweep-churn",
        lambda c, m: churn_sweep(
            c, m, settings.sweep_percentages(), settings.trials, at_cycle=settings.churn_cycle
        ),
        emit_churn_csv,
    )
    print(f"wrote {churn_path} ({len(rows)} rows)")
    return 0


def _cmd_baseline(settings: Settings) -> int:
    _, base_path = _run_and_write(
        settings, "baseline", lambda c, m: centralized_baseline(c, m, settings.trials),
        emit_baseline_csv,
    )
    print(f"wrote {base_path}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        command, settings = parse_config(argv)
        if command == "validate-data":
            return _cmd_validate(settings)
        if command == "run":
            return _cmd_run(settings)
        if command == "sweep-churn":
            return _cmd_sweep(settings)
        if command == "baseline":
            return _cmd_baseline(settings)
        raise InvalidConfig(f"unknown command {command!r}")
    except (
        InvalidConfig, NoEligiblePeers, ParseError, RangeError, UserTooSparse, IoError,
        FileNotFoundError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
