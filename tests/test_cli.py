"""Settings resolution, CSV schemas, manifests, byte-level determinism."""

import hashlib
import json
from pathlib import Path

import pytest

from gossipcf.cli import (
    CHURN_COLUMNS,
    METRICS_COLUMNS,
    Settings,
    build_manifest,
    emit_churn_csv,
    emit_metrics_csv,
    main,
    parse_config,
    read_config_file,
    sim_config_from_mapping,
)
from gossipcf.engine import ChurnSpec, InvalidConfig, SimConfig
from gossipcf.harness import run_experiment
from gossipcf.synth import generate_ratings, write_ratings_file


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


def test_zero_cache_size_rejected():
    with pytest.raises(InvalidConfig):
        parse_config(["run", "--cache-size", "0"], environ={})


def test_protocol_variant_switch():
    _, settings = parse_config(["run", "--protocol", "newscast"], environ={})
    assert settings.protocol == "newscast"
    config = settings.sim_config(n_peers=10)
    assert config.protocol == "newscast"


def test_manifest_config_roundtrip(data_file):
    _, settings = parse_config(
        ["run", "--data", str(data_file), "--seed", "5", "--churn-pct", "20",
         "--churn-mode", "leavings", "--churn-cycle", "30"],
        environ={},
    )
    config = settings.sim_config(n_peers=60)
    manifest = build_manifest("run", config, settings.trials, str(data_file), [])
    echoed = json.loads(manifest.to_json())["config"]
    assert sim_config_from_mapping(echoed) == config


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
# master seed 31, a 25% loss at cycle 6.  Recorded before the rank-table
# exchange and the ranking memo replaced the per-item utility path: both
# must leave every output byte unchanged.
GOLDEN_METRICS_SHA256 = {
    "swarmix": "fc67b166b5fef9ba2661d85770d585d867e2a5d9ae255497c73c4fdf5ba9a0b3",
    "newscast": "a3215f5fd0fbdfc804d5957a6a1a79ea7081f72783d5bd2fe2c26e7b48122459",
    "anti-entropy": "e41687162bfe64b28f5230fd05d0052b916604ae08486cc01b7d227809a232ff",
}


@pytest.mark.parametrize("protocol", sorted(GOLDEN_METRICS_SHA256))
def test_metrics_csv_golden_bytes(protocol, small_ratings, tmp_path):
    config = SimConfig(
        n_peers=80, cache_size=8, cycles=12, seed=31, protocol=protocol,
        churn=ChurnSpec(mode="leavings", pct=25.0, at_cycle=6),
    )
    # Anti-entropy runs unchecked: its peers may hold their own entry, which
    # the strict checker's dominance bound rejects (a recorded fault).
    result = run_experiment(config, small_ratings, 2, strict=protocol != "anti-entropy")
    path = emit_metrics_csv(result, tmp_path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_METRICS_SHA256[protocol]


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


def test_empty_rows_write_header_only_csv(tmp_path):
    path = emit_churn_csv([], tmp_path)
    assert path.read_text() == ",".join(CHURN_COLUMNS) + "\n"


def test_env_prefix_documented_keys(monkeypatch):
    _, settings = parse_config(
        ["run"], environ={"GOSSIPCF_PROTOCOL": "anti-entropy", "GOSSIPCF_SEED": "11"}
    )
    assert settings.protocol == "anti-entropy"
    assert settings.seed == 11
