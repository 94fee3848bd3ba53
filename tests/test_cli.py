"""Settings resolution, CSV schemas, manifests, byte-level determinism."""

import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import threading
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from gossipcf.cli import (
    CHURN_COLUMNS,
    METRICS_COLUMNS,
    Settings,
    build_manifest,
    emit_baseline_csv,
    emit_churn_csv,
    emit_metrics_csv,
    main,
    parse_config,
)
from gossipcf.engine import ChurnSpec, InvalidConfig, SimConfig
from gossipcf.harness import centralized_baseline, churn_sweep, load_ratings, run_experiment
from gossipcf.synth import generate_ratings, write_ratings_file

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def data_file(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("data") / "ratings.data"
    write_ratings_file(
        path, generate_ratings(n_users=60, n_items=200, target_ratings=2400, seed=9)
    )
    return path


def test_defaults_follow_evaluated_setup():
    _, settings = parse_config(["run"], environ={})
    assert settings.cache_size == 20
    assert settings.top_n == 10
    assert settings.cycles == 100
    assert settings.trials == 5
    assert settings.bootstrap_degree == 2.494
    assert settings.protocol == "swarmix"


# Per setting: a raw value other than the default, and what it parses to.
SETTING_SAMPLES = {
    "data": ("ratings.data", "ratings.data"),
    "seed": ("7", 7),
    "trials": ("3", 3),
    "cycles": ("9", 9),
    "cache_size": ("7", 7),
    "top_n": ("4", 4),
    "protocol": ("newscast", "newscast"),
    "significance_threshold": ("25", 25),
    "bootstrap_degree": ("3.5", 3.5),
    "out": ("elsewhere", "elsewhere"),
    "churn_pct": ("20", 20.0),
    "churn_mode": ("leavings", "leavings"),
    "churn_cycle": ("4", 4),
    "churn_pcts": ("10,40", "10,40"),
}


@pytest.mark.parametrize("setting", fields(Settings), ids=lambda f: f.name)
def test_every_setting_is_settable_from_file_env_and_flag(setting, tmp_path):
    raw, parsed = SETTING_SAMPLES[setting.name]
    assert parsed != setting.default
    command = next(iter(setting.metadata["commands"]))  # run, but for churn_pcts
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{setting.name}={raw}\n", encoding="utf-8")
    flag = "--" + setting.name.replace("_", "-")
    for argv, environ in (
        ([command, "--config", str(cfg)], {}),
        ([command], {"GOSSIPCF_" + setting.name.upper(): raw}),
        ([command, flag, raw], {}),
    ):
        _, settings = parse_config(argv, environ=environ)
        assert getattr(settings, setting.name) == parsed, (argv, environ)


def test_setting_defaults_are_the_library_defaults():
    library = {f.name: f.default for f in fields(SimConfig)}
    library.update(churn_mode=ChurnSpec.mode, churn_cycle=ChurnSpec.at_cycle)
    shared = [f for f in fields(Settings) if f.name in library]
    assert len(shared) == 9
    for setting in shared:
        assert setting.default == library[setting.name], setting.name


def test_a_command_ignores_settings_it_takes_no_flag_for(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("churn_pct=20\nchurn_mode=leavings\n", encoding="utf-8")
    env = {"GOSSIPCF_CHURN_PCT": "30", "GOSSIPCF_CHURN_MODE": "bogus"}
    _, settings = parse_config(["sweep-churn", "--config", str(cfg)], environ=env)
    assert settings.churn_pct is None and settings.churn_mode == ChurnSpec.mode
    assert settings.sim_config(n_peers=60).churn is None
    with pytest.raises(SystemExit):
        parse_config(["sweep-churn", "--churn-pct", "20"], environ={})


def test_flags_override_env_override_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("cycles=7\ncache_size=9\nseed=1\n", encoding="utf-8")
    env = {"GOSSIPCF_CYCLES": "13", "GOSSIPCF_TOP_N": "4"}
    _, settings = parse_config(
        ["run", "--config", str(cfg), "--cycles", "21"], environ=env
    )
    assert settings.cycles == 21       # flag wins
    assert settings.top_n == 4         # env beats default
    assert settings.cache_size == 9    # file beats default
    assert settings.seed == 1


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("cache_sise=9\n", encoding="utf-8")
    with pytest.raises(InvalidConfig, match="cache_sise"):
        parse_config(["run", "--config", str(cfg)], environ={})


def test_bad_config_value_named(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("cycles=ten\n", encoding="utf-8")
    with pytest.raises(InvalidConfig, match="cycles"):
        parse_config(["run", "--config", str(cfg)], environ={})


def test_config_file_skips_comments_and_blank_lines(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a comment\n\n   \ncycles = 9\n", encoding="utf-8")
    _, settings = parse_config(["run", "--config", str(cfg)], environ={})
    assert settings.cycles == 9


def test_config_line_without_equals_rejected(tmp_path):
    cfg = tmp_path / "run.cfg"
    for newline in ("\n", "\r\n", "\r"):
        cfg.write_bytes(f"cycles=9{newline}cycles 9{newline}".encode())
        with pytest.raises(InvalidConfig, match=re.escape(f"{cfg}:2: expected key=value")):
            parse_config(["run", "--config", str(cfg)], environ={})


def test_config_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"seed=\xff\n")
    assert main(["run", "--config", str(cfg), "--data", "x"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: byte 5: not UTF-8 (invalid start byte)")
    assert "Traceback" not in err


def test_unknown_protocol_from_env_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("GOSSIPCF_PROTOCOL", "bogus")
    assert main(["run"]) == 2
    assert "unknown protocol" in capsys.readouterr().err


def test_unknown_churn_mode_from_file_exits_2(tmp_path, capsys):
    # Without churn_pct no ChurnSpec is built, so only the choices check sees it.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("churn_mode=bogus\n", encoding="utf-8")
    assert main(["run", "--config", str(cfg)]) == 2
    assert "unknown churn mode" in capsys.readouterr().err


def test_zero_cache_size_rejected():
    with pytest.raises(InvalidConfig):
        parse_config(["run", "--cache-size", "0"], environ={})


def test_protocol_variant_switch():
    _, settings = parse_config(["run", "--protocol", "newscast"], environ={})
    assert settings.protocol == "newscast"
    config = settings.sim_config(n_peers=21)
    assert config.protocol == "newscast"


def sim_config_from_mapping(cfg: dict) -> SimConfig:
    """Rebuild a SimConfig from a manifest's config echo."""
    churn = cfg.get("churn")
    return SimConfig(
        n_peers=cfg["n_peers"],
        cache_size=cfg["cache_size"],
        cycles=cfg["cycles"],
        seed=cfg["seed"],
        protocol=cfg["protocol"],
        churn=None if churn is None else ChurnSpec(**churn),
        top_n=cfg["top_n"],
        significance_threshold=cfg["significance_threshold"],
        bootstrap_degree=cfg["bootstrap_degree"],
    )


def test_manifest_config_roundtrip(data_file):
    _, settings = parse_config(
        ["run", "--data", str(data_file), "--seed", "5", "--churn-pct", "20",
         "--churn-mode", "leavings", "--churn-cycle", "30"],
        environ={},
    )
    config = settings.sim_config(n_peers=60)
    manifest = build_manifest("run", config, settings.trials, str(data_file), "0" * 64, [])
    recorded = json.loads(manifest.to_json())
    assert sim_config_from_mapping(recorded["config"]) == config
    # NumPy keeps no random stream stable across versions
    assert recorded["numpy_version"] == np.__version__
    assert recorded["python_version"] == platform.python_version()
    assert recorded["per_trial"][4] == {"trial": 4, "split_spawn_key": [4, 0], "sim_spawn_key": [4, 1]}


def test_metrics_csv_schema_and_determinism(data_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    argv = ["run", "--data", str(data_file), "--trials", "2", "--cycles", "5",
            "--seed", "3", "--cache-size", "8"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    m1 = (out1 / "metrics.csv").read_bytes()
    m2 = (out2 / "metrics.csv").read_bytes()
    assert m1 == m2
    header = m1.decode().splitlines()[0]
    assert header == ",".join(METRICS_COLUMNS)
    lines = m1.decode().splitlines()
    # 2 trials x 6 snapshot rows + mean + ci95 blocks
    assert len(lines) == 1 + 2 * 6 + 2 * 6
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 3
    assert manifest["data_sha256"] == json.loads((out2 / "manifest.json").read_text())["data_sha256"]


def test_sweep_manifest_reproduces_churn_csv(data_file, tmp_path, monkeypatch):
    # churn values from the environment are no part of a sweep
    monkeypatch.setenv("GOSSIPCF_CHURN_PCT", "20")
    out = tmp_path / "sweep"
    assert main(
        ["sweep-churn", "--data", str(data_file), "--trials", "2", "--cycles", "6",
         "--seed", "3", "--cache-size", "8", "--churn-cycle", "3",
         "--churn-pcts", "10,40", "--out", str(out)]
    ) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["churn"] is None
    assert manifest["sweep"] == {"churn_pcts": [10.0, 40.0], "churn_cycle": 3}
    rows = churn_sweep(
        sim_config_from_mapping(manifest["config"]),
        load_ratings(manifest["data_path"]),
        manifest["sweep"]["churn_pcts"],
        manifest["trials"],
        at_cycle=manifest["sweep"]["churn_cycle"],
    )
    rebuilt = emit_churn_csv(rows, tmp_path)
    assert rebuilt.read_bytes() == (out / "churn.csv").read_bytes()


def test_sweep_churn_csv_rows(data_file, tmp_path):
    out = tmp_path / "sweep"
    code = main(
        ["sweep-churn", "--data", str(data_file), "--trials", "2", "--cycles", "6",
         "--seed", "3", "--cache-size", "8", "--churn-cycle", "3",
         "--churn-pcts", "5,10", "--out", str(out)]
    )
    assert code == 0
    lines = (out / "churn.csv").read_text().splitlines()
    assert lines[0] == ",".join(CHURN_COLUMNS)
    assert len(lines) == 1 + 2 * 2  # 2 pcts x 2 modes
    modes = [line.split(",")[1] for line in lines[1:]]
    assert modes == ["failures", "leavings", "failures", "leavings"]


def test_run_rejects_churn_that_silences_every_peer(data_file, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        ["run", "--data", str(data_file), "--trials", "2", "--cycles", "6",
         "--churn-pct", "100", "--churn-cycle", "3", "--out", str(out)]
    )
    assert code == 2
    assert "silence all" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_churn_that_silences_every_peer(data_file, tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(
        ["sweep-churn", "--data", str(data_file), "--trials", "2", "--cycles", "6",
         "--churn-cycle", "3", "--churn-pcts", "10,100", "--out", str(out)]
    )
    assert code == 2
    assert "silence all" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("pcts", ["", " , "])
def test_sweep_rejects_empty_churn_list(data_file, tmp_path, capsys, pcts):
    out = tmp_path / "sweep"
    code = main(
        ["sweep-churn", "--data", str(data_file), "--trials", "2", "--cycles", "6",
         "--churn-cycle", "3", "--churn-pcts", pcts, "--out", str(out)]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_sweep_rejects_a_bad_churn_list(data_file, tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(
        ["sweep-churn", "--data", str(data_file), "--trials", "2", "--cycles", "6",
         "--churn-cycle", "3", "--churn-pcts", "10,x", "--out", str(out)]
    )
    assert code == 2
    assert "bad churn_pcts list" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_repeated_churn_level(data_file, tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(
        ["sweep-churn", "--data", str(data_file), "--trials", "2", "--cycles", "6",
         "--churn-cycle", "3", "--churn-pcts", "10,10", "--out", str(out)]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_run_reports_undefined_structural_metric(data_file, tmp_path, capsys):
    # A 99% loss leaves one live peer, so the clustering coefficient of the
    # live graph is undefined from the disturbance on.
    out = tmp_path / "run"
    code = main(
        ["run", "--data", str(data_file), "--cycles", "10", "--trials", "2",
         "--churn-pct", "99", "--churn-cycle", "5", "--out", str(out)]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "neighbors" in err
    assert "Traceback" not in err
    assert not out.exists()


# sha256 of metrics.csv for 2 trials of the 80-user dataset, 12 cycles, k=8,
# master seed 31, a 25% loss at cycle 6.  The swarmix and newscast hashes
# were recorded before the rank-table exchange and the ranking memo replaced
# the per-item utility path: both must leave every output byte unchanged.
# The anti-entropy hash was recorded when neighborhoods stopped holding their
# owner's entry.  All three were re-recorded when the t multiplier of the
# ci95 rows became the correctly rounded quantile, which moved only those
# rows, each field by a few ulps.
GOLDEN_METRICS_SHA256 = {
    "swarmix": "990d19abd1455c8763d20d3e7b983221acdf923abf02b0095c9277988a11b687",
    "newscast": "26bbb7f0fb2f1e31b4f7d2334e36e6187f1079860004148477e0c87b0f9090d9",
    "anti-entropy": "d6b5e4399feae1610e70d64daf65b3e1146684e7ab96ace7a2d87a451c147be0",
}


@pytest.mark.parametrize("protocol", sorted(GOLDEN_METRICS_SHA256))
def test_metrics_csv_golden_bytes(protocol, small_ratings, tmp_path):
    config = SimConfig(
        n_peers=80, cache_size=8, cycles=12, seed=31, protocol=protocol,
        churn=ChurnSpec(mode="leavings", pct=25.0, at_cycle=6),
    )
    result = run_experiment(config, small_ratings, 2)
    path = emit_metrics_csv(result, tmp_path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_METRICS_SHA256[protocol]


# sha256 of churn.csv (a 10% and a 40% loss at cycle 6 of 12) and of
# baseline.csv (3 trials) for the 80-user dataset, k=8, master seed 31.
# Both were recorded before snapshots became flat arrays and before the
# centralized reference ranked all rows with one stable argsort, then again
# when the t multiplier became the correctly rounded quantile: that moved
# the ci_low and ci_high fields and the ci95 row, and no other byte.
GOLDEN_CHURN_SHA256 = "1facb3cd43d7c2dbe885c438f6d47025cf2dd9410e1dfa8fe9d054d3ebe86f5a"
GOLDEN_BASELINE_SHA256 = "1d68338f0704c821b8b319897374b4be3832d05d75ce64c05cd8c02abb4bc0bc"


def test_churn_csv_golden_bytes(small_ratings, tmp_path):
    config = SimConfig(n_peers=80, cache_size=8, cycles=12, seed=31)
    rows = churn_sweep(config, small_ratings, [10.0, 40.0], 2, at_cycle=6)
    path = emit_churn_csv(rows, tmp_path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_CHURN_SHA256


def test_baseline_csv_golden_bytes(small_ratings, tmp_path):
    config = SimConfig(n_peers=80, cache_size=8, cycles=12, seed=31)
    path = emit_baseline_csv(centralized_baseline(config, small_ratings, 3), tmp_path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_BASELINE_SHA256


def test_structural_off_rows_leave_topology_cells_empty(small_ratings, tmp_path):
    # The churn-sweep benchmark hashes rows written in this format.
    config = SimConfig(n_peers=80, cache_size=8, cycles=3, seed=31)
    path = emit_metrics_csv(run_experiment(config, small_ratings, 2, structural=False), tmp_path)
    header, *rows = [line.split(",") for line in path.read_text().splitlines()]
    topology = [header.index(name) for name in
                ("avg_path_length", "path_coverage", "clustering_coefficient")]
    assert [row[0] for row in rows] == ["0"] * 4 + ["1"] * 4 + ["mean"] * 4 + ["ci95"] * 4
    for row in rows:
        skipped = "nan" if row[0] in ("mean", "ci95") else ""
        assert [row[i] for i in topology] == [skipped] * 3
        assert all(cell not in ("", "nan", "None") for i, cell in enumerate(row)
                   if i not in topology)


def test_anti_entropy_run_passes_strict_checks(tmp_path):
    # Seed 102 once stopped at cycle 1: a global-view cache kept its owner's
    # entry, and the self-similarity of 1.0 broke the top-m bound.
    data = tmp_path / "twin.data"
    write_ratings_file(data, generate_ratings())
    code = main(
        ["run", "--data", str(data), "--protocol", "anti-entropy", "--seed", "102",
         "--cycles", "2", "--trials", "2", "--out", str(tmp_path / "run")]
    )
    assert code == 0


def test_sweep_default_percentages():
    _, settings = parse_config(["sweep-churn"], environ={})
    assert settings.sweep_percentages() == [5.0, 10.0, 20.0, 40.0, 60.0, 80.0]


def test_baseline_command(data_file, tmp_path):
    out = tmp_path / "base"
    code = main(
        ["baseline", "--data", str(data_file), "--trials", "2", "--cache-size", "8",
         "--out", str(out)]
    )
    assert code == 0
    lines = (out / "baseline.csv").read_text().splitlines()
    assert lines[0] == "trial,centralized_avg_similarity,centralized_hit_rate"
    assert len(lines) == 1 + 2 + 2  # trials + mean + ci95


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_baseline_without_trials_is_a_config_error(data_file, tmp_path, capsys, trials):
    out = tmp_path / "base"
    code = main(["baseline", "--data", str(data_file), "--trials", trials, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "baseline", "sweep-churn"])
@pytest.mark.parametrize("cache_size", ["60", "70"])
def test_cache_size_of_all_peers_is_a_config_error(
    data_file, tmp_path, capsys, command, cache_size
):
    # data_file has 60 users: a neighborhood holds at most 59 of them
    out = tmp_path / "out"
    code = main([command, "--data", str(data_file), "--cache-size", cache_size,
                 "--trials", "2", "--cycles", "2", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "cache_size" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_bootstrap_tree_over_cache_size_is_a_config_error(data_file, tmp_path, capsys):
    # With k=3 the bootstrap tree gives some peer of these 60 more than 3 sources.
    out = tmp_path / "run"
    code = main(["run", "--data", str(data_file), "--cache-size", "3",
                 "--bootstrap-degree", "2", "--trials", "2", "--cycles", "2",
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bootstrap tree" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_validate_data_command(data_file, capsys):
    assert main(["validate-data", "--data", str(data_file)]) == 0
    out = capsys.readouterr().out
    assert "60 users" in out


def test_missing_data_is_a_config_error(capsys):
    assert main(["run"]) == 2
    assert "ratings file" in capsys.readouterr().err


def test_malformed_data_file_reported(tmp_path, capsys):
    bad = tmp_path / "bad.data"
    bad.write_text("1\t10\t9\t0\n", encoding="utf-8")
    assert main(["validate-data", "--data", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate-data", "run"])
def test_data_file_that_is_not_utf8_reported(command, data_file, tmp_path, capsys):
    data = bytearray(data_file.read_bytes())
    data[20000] = 0xFF
    bad = tmp_path / "bad.data"
    bad.write_bytes(data)
    argv = [command, "--data", str(bad)]
    if command == "run":
        argv += ["--trials", "2", "--cycles", "2", "--cache-size", "8",
                 "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: byte 20000: not UTF-8")
    assert "Traceback" not in err


@pytest.mark.parametrize("item", [-1, 2**62])
@pytest.mark.parametrize("command", ["validate-data", "run"])
def test_item_id_the_pipeline_cannot_hold_reported(command, item, data_file, tmp_path, capsys):
    # -1 is the padding of a recommendation list, and the strict checker
    # would size a table by 2**62.
    data = data_file.read_bytes() + f"1\t{item}\t5\t0\n".encode()
    bad = tmp_path / "bad.data"
    bad.write_bytes(data)
    argv = [command, "--data", str(bad)]
    if command == "run":
        argv += ["--trials", "2", "--cycles", "2", "--cache-size", "8",
                 "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    lineno = data.count(b"\n")
    assert err.startswith(f"error: {bad}:{lineno}: item id {item} outside 0..{2**24 - 1}")
    assert not (tmp_path / "out").exists()


def _write_and_close(fd: int, content: bytes) -> None:
    with os.fdopen(fd, "wb") as fh:
        fh.write(content)


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="no /dev/fd")
def test_manifest_hashes_the_bytes_read_from_a_pipe(data_file, tmp_path):
    # As with --data <(cat file): a drained pipe reopened reads as empty, so
    # the hash must come from the bytes that were parsed.
    content = data_file.read_bytes()
    read_end, write_end = os.pipe()
    writer = threading.Thread(target=_write_and_close, args=(write_end, content))
    writer.start()
    out = tmp_path / "out"
    try:
        code = main(["run", "--data", f"/dev/fd/{read_end}", "--trials", "2", "--cycles", "2",
                     "--cache-size", "8", "--out", str(out)])
    finally:
        writer.join()
        os.close(read_end)
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["data_sha256"] == hashlib.sha256(content).hexdigest()


OS_ERROR_CASES = (
    "out is a regular file",
    "out below a regular file",
    "run data is a directory",
    "validate data is a directory",
    "config is a directory",
    "manifest is a directory",
)


@pytest.mark.parametrize("case", OS_ERROR_CASES)
def test_os_errors_are_reported_without_a_traceback(case, data_file, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    (tmp_path / "out" / "manifest.json").mkdir(parents=True)
    run = ["run", "--trials", "2", "--cycles", "2", "--cache-size", "8", "--out"]
    data = ["--data", str(data_file)]
    # per case: the path the system refuses, and the command line
    named, argv = {
        "out is a regular file": (taken, [*run, str(taken), *data]),
        "out below a regular file": (taken / "sub", [*run, str(taken / "sub"), *data]),
        "run data is a directory": (
            tmp_path, [*run, str(tmp_path / "out"), "--data", str(tmp_path)]
        ),
        "validate data is a directory": (tmp_path, ["validate-data", "--data", str(tmp_path)]),
        "config is a directory": (
            tmp_path, [*run, str(tmp_path), *data, "--config", str(tmp_path)]
        ),
        "manifest is a directory": (
            tmp_path / "out" / "manifest.json", [*run, str(tmp_path / "out"), *data]
        ),
    }[case]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and str(named) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "sweep-churn", "baseline"])
def test_unwritable_manifest_leaves_no_csv(command, data_file, tmp_path, capsys):
    # A CSV without the manifest that reproduces it is no result.
    out = tmp_path / "out"
    (out / "manifest.json").mkdir(parents=True)
    extra = {
        "run": ["--cycles", "2"],
        "sweep-churn": ["--cycles", "4", "--churn-cycle", "2", "--churn-pcts", "10"],
        "baseline": [],
    }[command]
    argv = [command, "--data", str(data_file), "--trials", "2", "--cache-size", "8",
            "--out", str(out), *extra]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert [path.name for path in out.iterdir()] == ["manifest.json"]


def test_empty_rows_write_header_only_csv(tmp_path):
    path = emit_churn_csv([], tmp_path)
    assert path.read_text() == ",".join(CHURN_COLUMNS) + "\n"


def _run_module(*args: str) -> subprocess.CompletedProcess:
    """Run ``python -m gossipcf`` with the library on its path."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, "-m", "gossipcf", *args], capture_output=True, text=True, env=env
    )


def test_module_entry_point_prints_the_version():
    done = _run_module("--version")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0.1.0"


def test_module_entry_point_reports_a_missing_file_without_a_traceback(tmp_path):
    done = _run_module("validate-data", "--data", str(tmp_path / "missing.data"))
    assert done.returncode == 2
    assert done.stderr.startswith("error:")
    assert "Traceback" not in done.stderr


def test_env_prefix_documented_keys(monkeypatch):
    _, settings = parse_config(
        ["run"], environ={"GOSSIPCF_PROTOCOL": "anti-entropy", "GOSSIPCF_SEED": "11"}
    )
    assert settings.protocol == "anti-entropy"
    assert settings.seed == 11
