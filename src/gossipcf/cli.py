"""Command-line surface: configuration, experiment orchestration, CSV output.

Subcommands:

* ``run``           one experiment (per-cycle metrics over several trials)
* ``sweep-churn``   disturbance sweep, end-of-run hit rates per loss level
* ``baseline``      centralized reference only
* ``validate-data`` parse a ratings file and report its shape

Each setting is one field of :class:`Settings`, and resolves in precedence
order: command-line flags, then environment variables prefixed ``GOSSIPCF_``
(e.g. ``GOSSIPCF_CACHE_SIZE``), then a flat ``key=value`` config file given
via ``--config``, then defaults matching the evaluated setup.  Every emitted
number is reproducible from the manifest written next to the CSVs: same
config plus master seed gives byte-identical files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence, get_args, get_type_hints

import numpy as np

from .engine import CHURN_MODES, PROTOCOLS, ChurnSpec, InvalidConfig, SimConfig
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

COMMANDS = {
    "run": "run one experiment and emit metrics.csv",
    "sweep-churn": "loss sweep, emits churn.csv",
    "baseline": "centralized reference only",
    "validate-data": "parse and describe a ratings file",
}
_SIMULATING = ("run", "sweep-churn", "baseline")

DEFAULT_CHURN_PERCENTAGES = (5.0, 10.0, 20.0, 40.0, 60.0, 80.0)

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


def _setting(
    default: Any,
    doc: str | None = None,
    commands: Sequence[str] = _SIMULATING,
    choices: Sequence[str] | None = None,
) -> Any:
    """One :class:`Settings` field, taken as a flag by each of ``commands``."""
    return field(default=default, metadata={"doc": doc, "commands": commands, "choices": choices})


@dataclass(frozen=True)
class Settings:
    """Fully resolved run settings (flags over env over file over defaults).

    Each field is one setting.  Its name is the config-file key, the name
    upper-cased after ``GOSSIPCF_`` is its environment variable, and the
    name dashed is its flag on the commands listed for it.  Its annotation
    parses a raw value (``float | None`` as ``float``) and its default is the
    default.  A command reads only the settings it takes a flag for; the
    others keep their defaults.
    """

    data: str | None = _setting(None, "ratings file (tab-separated user/item/rating)", COMMANDS)
    seed: int = _setting(SimConfig.seed, "master seed")
    trials: int = _setting(5, "independent trials")
    cycles: int = _setting(SimConfig.cycles, "protocol cycles per trial")
    cache_size: int = _setting(SimConfig.cache_size, "cache capacity k")
    top_n: int = _setting(SimConfig.top_n, "recommendation list length")
    protocol: str = _setting(SimConfig.protocol, None, _SIMULATING, PROTOCOLS)
    significance_threshold: int = _setting(SimConfig.significance_threshold)
    bootstrap_degree: float = _setting(SimConfig.bootstrap_degree)
    out: str = _setting("results", "output directory")
    churn_pct: float | None = _setting(None, "loss percentage", ("run",))
    churn_mode: str = _setting(ChurnSpec.mode, None, ("run",), CHURN_MODES)
    churn_cycle: int = _setting(
        ChurnSpec.at_cycle, "cycle the loss strikes at", ("run", "sweep-churn")
    )
    churn_pcts: str = _setting(
        ",".join(map(str, DEFAULT_CHURN_PERCENTAGES)), "loss percentages, comma-separated",
        ("sweep-churn",),
    )

    def sim_config(self, n_peers: int) -> SimConfig:
        churn = None
        if self.churn_pct is not None:
            churn = ChurnSpec(self.churn_mode, self.churn_pct, self.churn_cycle)
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


_FIELDS = {f.name: f for f in fields(Settings)}
# The type a raw string parses to: ``float`` for ``float | None``.
_PARSERS = {
    name: next((t for t in get_args(hint) if t is not type(None)), hint)
    for name, hint in get_type_hints(Settings).items()
}
KNOWN_KEYS = frozenset(_FIELDS)


def _coerce(key: str, raw: str) -> Any:
    try:
        return _PARSERS[key](raw)
    except ValueError as exc:
        raise InvalidConfig(f"config key {key!r}: cannot parse {raw!r}") from exc


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
    names = {key: ENV_PREFIX + key.upper() for key in KNOWN_KEYS}
    return {key: _coerce(key, env[name]) for key, name in names.items() if name in env}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gossipcf",
        description="Epidemic overlay simulation with a distributed recommender.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    # No abbreviations: on sweep-churn, --churn-pct would abbreviate --churn-pcts.
    commands = {
        name: sub.add_parser(name, help=doc, allow_abbrev=False) for name, doc in COMMANDS.items()
    }
    for command in commands.values():
        command.add_argument("--config", help="flat key=value config file")
    for name, f in _FIELDS.items():
        for command in f.metadata["commands"]:
            commands[command].add_argument(
                "--" + name.replace("_", "-"),
                type=_PARSERS[name],
                choices=f.metadata["choices"],
                help=f.metadata["doc"],
            )
    return parser


def parse_config(argv: Sequence[str], environ=None) -> tuple[str, Settings]:
    """Resolve the command and settings with flags > env > file > defaults."""
    ns = _build_parser().parse_args(argv)
    takes = [name for name, f in _FIELDS.items() if ns.command in f.metadata["commands"]]
    flags = {key: value for key, value in vars(ns).items() if value is not None}
    layers = (read_config_file(ns.config) if ns.config else {}, read_env(environ), flags)
    settings = Settings(**{key: layer[key] for layer in layers for key in takes if key in layer})
    for name in takes:
        choices, value = _FIELDS[name].metadata["choices"], getattr(settings, name)
        if choices is not None and value not in choices:
            raise InvalidConfig(f"unknown {name.replace('_', ' ')}: {value!r}")
    # Surface bound violations now rather than mid-run.  The peer count is
    # known only once the data is loaded, so probe with the fewest peers the
    # cache size allows: the config validates itself on construction.
    settings.sim_config(n_peers=max(2, settings.cache_size + 1))
    return ns.command, settings


def _fmt(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header: Sequence[str], rows: list[Sequence[Any]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(cell) for cell in row) + "\n")


def _sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to bit-reproduce the emitted numbers.

    ``sweep`` is None except for ``sweep-churn``, whose base config has no
    churn: there it records the loss levels (``churn_pcts``) and the cycle
    they strike at (``churn_cycle``).
    """

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
    sweep: dict[str, Any] | None

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


def build_manifest(
    command: str,
    config: SimConfig,
    trials: int,
    data_path: str,
    outputs: list[str],
    sweep: dict[str, Any] | None = None,
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
        sweep=sweep,
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
    sweep: dict[str, Any] | None = None,
) -> tuple[Any, Path]:
    """Load the ratings, compute, then write the CSV and ``manifest.json``.

    Nothing is written unless ``compute`` returns.  ``sweep`` is what the
    manifest records of a loss sweep beyond its base config.
    """
    path = _require_data(settings)
    matrix = load_ratings(path)
    config = settings.sim_config(matrix.n_users)
    result = compute(config, matrix)
    out_dir = Path(settings.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = emit(result, out_dir)
    manifest = build_manifest(command, config, settings.trials, path, [written.name], sweep)
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
    levels, at_cycle = settings.sweep_percentages(), settings.churn_cycle
    rows, churn_path = _run_and_write(
        settings,
        "sweep-churn",
        lambda c, m: churn_sweep(c, m, levels, settings.trials, at_cycle=at_cycle),
        emit_churn_csv,
        sweep={"churn_pcts": levels, "churn_cycle": at_cycle},
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


_HANDLERS = {
    "run": _cmd_run,
    "sweep-churn": _cmd_sweep,
    "baseline": _cmd_baseline,
    "validate-data": _cmd_validate,
}


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        command, settings = parse_config(argv)
        return _HANDLERS[command](settings)
    # An OSError's message names the path it failed on.
    except (InvalidConfig, NoEligiblePeers, ParseError, RangeError, UserTooSparse, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
