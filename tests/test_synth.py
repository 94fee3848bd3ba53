"""Synthetic ratings generator: determinism, marginals, file round-trip."""

import numpy as np
import pytest

from gossipcf.harness import load_ratings
from gossipcf.synth import generate_ratings, write_ratings_file
from oracles import row_of


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
