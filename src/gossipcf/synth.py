"""Deterministic synthetic ratings with collaborative-filtering structure.

Stand-in for the MovieLens-100k ratings file when the real dataset is not
available locally.  Users draw items with popularity bias plus a genre-taste
affinity term, and rate them around their affinity, which yields the
ingredients user-based filtering relies on: clustered tastes, a popularity
skew, and rating noise.  Same shape as the real file: 943 users, up to 1,682
items, about 100k ratings on a 1..5 scale, at least 15 ratings per user.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

N_GENRES = 12  # genres behind item vectors and user tastes


def generate_ratings(
    n_users: int = 943,
    n_items: int = 1682,
    target_ratings: int = 100_000,
    seed: int = 20240101,
) -> dict[int, dict[int, int]]:
    """Ratings keyed by 1-based user id, then 1-based item id."""
    if n_users < 2 or n_items < 10:
        raise ValueError("need at least 2 users and 10 items")
    min_per_user = 15
    if target_ratings < n_users * min_per_user:
        raise ValueError("target_ratings too small for the per-user minimum")
    if target_ratings > n_users * n_items:
        raise ValueError("target_ratings exceeds one rating per user and item")
    rng = np.random.default_rng(seed)

    genre_pop = 1.0 / (np.arange(N_GENRES) + 1.5)
    genre_pop /= genre_pop.sum()

    item_genre = rng.choice(N_GENRES, size=n_items, p=genre_pop)
    item_vec = rng.dirichlet(np.full(N_GENRES, 0.25), size=n_items)
    item_vec = 0.25 * item_vec
    item_vec[np.arange(n_items), item_genre] += 0.75

    popularity = rng.lognormal(mean=0.0, sigma=1.1, size=n_items)
    popularity *= 1.0 + 3.0 * genre_pop[item_genre]
    log_pop = np.log(popularity)

    # User taste: a personal mix over a few favorite genres blended with the
    # global genre popularity (the "mainstream" component).
    fav_counts = rng.integers(1, 4, size=n_users)
    mainstream = rng.beta(2.0, 2.5, size=n_users) * 0.85
    taste = np.empty((n_users, N_GENRES))
    for u in range(n_users):
        favorites = rng.choice(N_GENRES, size=fav_counts[u], replace=False, p=genre_pop)
        personal = np.zeros(N_GENRES)
        personal[favorites] = rng.dirichlet(np.full(fav_counts[u], 1.0))
        taste[u] = mainstream[u] * genre_pop + (1.0 - mainstream[u]) * personal

    counts = np.rint(rng.lognormal(mean=np.log(78.0), sigma=0.62, size=n_users))
    counts = np.clip(counts, min_per_user, 600).astype(np.int64)
    scale = target_ratings / counts.sum()
    counts = np.maximum(min_per_user, np.rint(counts * scale).astype(np.int64))
    counts = np.minimum(counts, n_items)
    # Nudge the largest raters until the total matches the target exactly.
    diff = target_ratings - int(counts.sum())
    order = np.argsort(-counts, kind="stable")
    i = 0
    while diff != 0:
        u = order[i % n_users]
        step = 1 if diff > 0 else -1
        nudged = counts[u] + step
        if min_per_user <= nudged <= n_items:
            counts[u] = nudged
            diff -= step
        i += 1

    affinity = taste @ item_vec.T
    beta = 7.0
    ratings: dict[int, dict[int, int]] = {}
    for u in range(n_users):
        score = log_pop + beta * affinity[u] + rng.gumbel(size=n_items)
        chosen = np.argpartition(-score, counts[u] - 1)[: counts[u]]
        a = affinity[u, chosen]
        spread = a.std()
        z = (a - a.mean()) / spread if spread > 1e-12 else np.zeros_like(a)
        raw = 3.55 + 0.95 * z + rng.normal(0.0, 0.85, size=chosen.size)
        values = np.clip(np.rint(raw), 1, 5).astype(np.int64)
        row = {int(item) + 1: int(val) for item, val in zip(chosen, values)}
        ratings[u + 1] = dict(sorted(row.items()))
    return ratings


def write_ratings_file(path: str | Path, ratings: dict[int, dict[int, int]]) -> None:
    """Write ratings in the tab-separated user/item/rating/timestamp layout."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for user in sorted(ratings):
            for item, value in sorted(ratings[user].items()):
                fh.write(f"{user}\t{item}\t{value}\t0\n")
