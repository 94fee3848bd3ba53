"""Synthetic ratings generator: determinism, marginals, file round-trip."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gossipcf.harness import load_ratings
from gossipcf.recommend import RatingMatrix
from gossipcf.synth import generate_ratings, write_ratings_file
from oracles import row_of

ROOT = Path(__file__).resolve().parent.parent


def test_generator_deterministic():
    a = generate_ratings(n_users=50, n_items=120, target_ratings=1500, seed=4)
    b = generate_ratings(n_users=50, n_items=120, target_ratings=1500, seed=4)
    assert a == b


def test_generator_marginals():
    ratings = generate_ratings(n_users=120, n_items=300, target_ratings=6000, seed=8)
    assert len(ratings) == 120
    totals = [len(r) for r in ratings.values()]
    assert min(totals) >= 15
    assert sum(totals) == 6000
    values = [v for row in ratings.values() for v in row.values()]
    assert set(values) <= {1, 2, 3, 4, 5}
    assert 2.8 <= np.mean(values) <= 4.2


def test_target_beyond_one_rating_per_cell_raises():
    with pytest.raises(ValueError):
        generate_ratings(n_users=40, n_items=60, target_ratings=3000, seed=3)
    # items too few for the per-user minimum leave no reachable target
    with pytest.raises(ValueError):
        generate_ratings(n_users=40, n_items=12, target_ratings=600, seed=3)
    for shape in ({"n_users": 1}, {"n_items": 9}):
        with pytest.raises(ValueError, match="at least 2 users and 10 items"):
            generate_ratings(**shape)


def test_full_scale_shape():
    ratings = generate_ratings()
    assert len(ratings) == 943
    assert sum(len(r) for r in ratings.values()) == 100_000
    items = {i for row in ratings.values() for i in row}
    assert max(items) <= 1682


def test_file_round_trip(tmp_path):
    ratings = generate_ratings(n_users=30, n_items=80, target_ratings=900, seed=2)
    path = tmp_path / "synthetic.data"
    write_ratings_file(path, ratings)
    matrix = load_ratings(path)
    assert matrix.n_users == 30
    assert matrix.n_ratings == 900
    assert row_of(matrix, 0) == ratings[min(ratings)]


def _generate(*args):
    """Run ``scripts/generate_synthetic_ratings.py`` with the library on its path."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    script = ROOT / "scripts" / "generate_synthetic_ratings.py"
    return subprocess.run(
        [sys.executable, str(script), *args], capture_output=True, text=True, env=env
    )


def test_generator_script_writes_the_library_ratings(tmp_path):
    out = tmp_path / "synthetic.data"
    done = _generate("--users", "30", "--items", "120", "--ratings", "900", "--seed", "7",
                     "--out", str(out))
    assert done.returncode == 0, done.stderr
    assert "30 users, 900 ratings" in done.stdout
    written, expected = load_ratings(out), RatingMatrix(generate_ratings(30, 120, 900, 7))
    assert written.user_keys == expected.user_keys
    for name in ("indptr", "items", "ratings"):
        assert np.array_equal(getattr(written, name), getattr(expected, name)), name


def test_generator_script_rejects_a_target_below_the_per_user_minimum(tmp_path):
    out = tmp_path / "synthetic.data"
    done = _generate("--users", "30", "--items", "120", "--ratings", "100", "--out", str(out))
    assert done.returncode == 2
    assert "target_ratings too small" in done.stderr
    assert not out.exists()
