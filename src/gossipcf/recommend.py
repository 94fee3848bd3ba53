"""User-based collaborative filtering over overlay or global neighborhoods.

Recommendation is majority voting: every neighbor casts one vote per
training item it has rated, items the active user already rated are removed,
and the N items with most votes win.  The same aggregation runs in two
architectures: over a peer's current overlay neighborhood (local knowledge
only) and over the global top-k most similar users, which serves as the
centralized reference.

Everything here is matrix-backed.  The test suite cross-checks these batch
paths against reference implementations over sparse per-user dicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

# Ordered (item id, vote count) pairs, votes descending, item id ascending.
RecommendationList = list[tuple[int, int]]


class RatingMatrix:
    """Sparse users-by-items rating matrix with integer ratings in 1..5.

    Peers are row indices 0..n-1, assigned in ascending order of the original
    user keys.  Cells are immutable once constructed.
    """

    def __init__(self, by_user: Mapping[int, Mapping[int, int]]):
        if not by_user:
            raise ValueError("rating matrix needs at least one user")
        self.user_keys: list[int] = sorted(by_user)
        self.rows: list[dict[int, int]] = []
        items: set[int] = set()
        for key in self.user_keys:
            row = dict(by_user[key])
            if not row:
                raise ValueError(f"user {key!r} has no ratings")
            for item, value in row.items():
                if not 1 <= value <= 5:
                    raise ValueError(f"rating {value!r} outside 1..5")
            self.rows.append(row)
            items.update(row)
        self.item_ids: list[int] = sorted(items)

    @property
    def n_users(self) -> int:
        return len(self.rows)

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    @property
    def n_ratings(self) -> int:
        return sum(len(r) for r in self.rows)


@dataclass
class TrainingArrays:
    """Dense working arrays derived from a training matrix.

    ``similarity[v, w]`` is the plain cosine between full rating rows (self
    similarity on the diagonal).  ``binary`` is the rated/unrated indicator
    used for vote tallies, ``rated_cols[v]`` the column indices peer v rated.
    """

    matrix: RatingMatrix
    item_ids: np.ndarray
    binary: np.ndarray
    rated_cols: list[np.ndarray]
    similarity: np.ndarray


def _dense_ratings(matrix: RatingMatrix, item_ids: np.ndarray) -> np.ndarray:
    """Users-by-items float ratings, zero where unrated."""
    users = np.repeat(np.arange(matrix.n_users), [len(row) for row in matrix.rows])
    total = users.size
    items = np.fromiter(chain.from_iterable(matrix.rows), dtype=np.int64, count=total)
    ratings = np.fromiter(
        chain.from_iterable(row.values() for row in matrix.rows), dtype=np.float64, count=total
    )
    values = np.zeros((matrix.n_users, matrix.n_items), dtype=np.float64)
    values[users, np.searchsorted(item_ids, items)] = ratings
    return values


def build_training_arrays(matrix: RatingMatrix) -> TrainingArrays:
    n = matrix.n_users
    item_ids = np.asarray(matrix.item_ids, dtype=np.int64)
    values = _dense_ratings(matrix, item_ids)
    binary = (values > 0).astype(np.uint8)
    rated_cols = [np.flatnonzero(binary[v]).astype(np.int32) for v in range(n)]
    norms = np.sqrt((values * values).sum(axis=1))
    values /= norms[:, None]  # in place: no second users-by-items matrix
    similarity = values @ values.T
    np.clip(similarity, 0.0, 1.0, out=similarity)
    return TrainingArrays(
        matrix=matrix,
        item_ids=item_ids,
        binary=binary,
        rated_cols=rated_cols,
        similarity=similarity,
    )


def overlap_matrix(arrays: TrainingArrays) -> np.ndarray:
    b = arrays.binary.astype(np.float32)
    return np.rint(b @ b.T).astype(np.int32)


def weighted_similarity_matrix(arrays: TrainingArrays, threshold: int) -> np.ndarray:
    """Significance-weighted similarity for every user pair."""
    if threshold < 1:
        raise ValueError("threshold must be positive")
    counts = overlap_matrix(arrays)
    weight = np.minimum(counts, threshold) / float(threshold)
    weight *= arrays.similarity
    return weight


def top_m_mean_table(similarity: np.ndarray, k: int) -> np.ndarray:
    """Per peer, mean similarity of its m globally most similar peers.

    Column m-1 holds the top-m mean (self excluded), for m = 1..k.  Because
    the global top-m maximizes the mean over every m-subset of candidates,
    these values bound any overlay neighborhood of matching size.
    """
    # One n-by-n temporary, sorted in place: -similarity ascending is
    # similarity descending, and the +inf diagonal sorts last.
    s = -similarity
    np.fill_diagonal(s, np.inf)
    s.sort(axis=1)
    top = -s[:, :k]
    return np.cumsum(top, axis=1) / np.arange(1, k + 1, dtype=np.float64)


def centralized_neighborhoods(weighted: np.ndarray, k: int) -> np.ndarray:
    """Global top-k neighbors per peer by (weighted similarity desc, id asc)."""
    n = weighted.shape[0]
    k = min(k, n - 1)
    out = np.empty((n, k), dtype=np.int32)
    # Blocks of 64 rows keep the negated keys and the sort indices small.
    for start in range(0, n, 64):
        key = -weighted[start : start + 64]
        rows = np.arange(key.shape[0])
        key[rows, start + rows] = np.inf
        # A stable sort keeps equal keys in ascending id order.
        out[start : start + 64] = np.argsort(key, axis=1, kind="stable")[:, :k]
    return out


def tally_votes(arrays: TrainingArrays, neighbor_rows: Sequence[int]) -> np.ndarray:
    """One vote per neighbor per training item it rated."""
    cols = [arrays.rated_cols[v] for v in neighbor_rows]
    flat = np.concatenate(cols) if cols else np.empty(0, dtype=np.int32)
    return np.bincount(flat, minlength=arrays.item_ids.shape[0])


def top_n_from_votes(
    votes: np.ndarray,
    exclude_cols: np.ndarray,
    n_top: int,
    item_ids: np.ndarray,
) -> RecommendationList:
    """Top-N voted items, ties to the smaller item id, zero-vote items dropped."""
    most = int(votes.max())
    # Ascending key = descending votes; a stable sort keeps ties in column
    # order.  Keys fit in the fewest bits that hold ``most``, and NumPy's
    # stable sort of 8- and 16-bit keys is a radix sort.
    key = (most - votes).astype(np.min_scalar_type(most))
    key[exclude_cols] = most
    order = np.argsort(key, kind="stable")[:n_top]
    order = order[key[order] < most]
    return list(zip(item_ids[order].tolist(), votes[order].tolist()))
