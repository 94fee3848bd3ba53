"""User-based collaborative filtering over overlay or global neighborhoods.

Recommendation is majority voting: every neighbor casts one vote per
training item it has rated, items the active user already rated are removed,
and the N items with most votes win.  The same aggregation runs in two
architectures: over a peer's current overlay neighborhood (local knowledge
only) and over the global top-k most similar users, which serves as the
centralized reference.

Everything here is matrix-backed.  The centralized reference runs over
blocks of 64 rows: apart from ``similarity`` it makes one n-by-n array, the
float32 co-rated product, so no n-by-n float64 temporary is left for the
allocator to keep.  The test suite cross-checks these batch paths against
reference implementations over sparse per-user dicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

# Ids are non-negative (-1 pads top-N rows); the bound keeps (row, item) keys in int64.
MAX_ITEM_ID = 2**24 - 1


def _csr(n_users: int, users: np.ndarray, items: np.ndarray, ratings: np.ndarray):
    """Cells in rows ``users`` (below ``n_users``) as CSR arrays (indptr,
    items, ratings) sorted by row, then item; None if a (row, item) repeats."""
    key = users * (MAX_ITEM_ID + 1) + items  # a row is below the cell count: no overflow
    order = np.argsort(key)
    key = key[order]
    if (key[1:] == key[:-1]).any():
        return None
    indptr = np.searchsorted(key, np.arange(n_users + 1) * (MAX_ITEM_ID + 1))
    return indptr, items[order], ratings[order]


class RatingMatrix:
    """Sparse users-by-items rating matrix with ratings in 1..5 and item ids
    in 0..MAX_ITEM_ID, stored once as CSR arrays sorted by peer, then item.

    Peers are row indices 0..n-1, in ascending order of ``user_keys``.  Peer
    v rated ``items[indptr[v]:indptr[v + 1]]`` (int64, ascending) with the
    same slice of ``ratings`` (float64); ``item_ids`` lists the rated items
    once, ascending.  The arrays are never written once constructed.
    """

    def __init__(self, by_user: Mapping[int, Mapping[int, float]]):
        if not by_user:
            raise ValueError("rating matrix needs at least one user")
        keys = sorted(by_user)
        rows = [by_user[key] for key in keys]
        for key, row in zip(keys, rows):
            if not row:
                raise ValueError(f"user {key!r} has no ratings")
            values = row.values()
            # min and max pass over a NaN that is not first; it makes the sum NaN
            if not 1 <= min(values) <= max(values) <= 5 or math.isnan(sum(values)):
                bad = next(value for value in values if not 1 <= value <= 5)
                raise ValueError(f"rating {bad!r} outside 1..5")
        low, high = min(map(min, rows)), max(map(max, rows))
        if not 0 <= low <= high <= MAX_ITEM_ID:
            raise ValueError(f"item id {low if low < 0 else high!r} outside 0..{MAX_ITEM_ID}")
        users = np.repeat(np.arange(len(rows)), [len(row) for row in rows])
        items = np.fromiter(chain.from_iterable(rows), np.int64, users.size)
        ratings = np.fromiter(chain.from_iterable(r.values() for r in rows), np.float64, users.size)
        self._keep(keys, *_csr(len(keys), users, items, ratings))

    @classmethod
    def _adopt(cls, user_keys: list[int], indptr, items, ratings) -> RatingMatrix:
        """A matrix over sorted keys and checked CSR arrays, kept without a copy."""
        matrix = cls.__new__(cls)
        matrix._keep(user_keys, indptr, items, ratings)
        return matrix

    def _keep(self, user_keys: list[int], indptr, items, ratings) -> None:
        self.user_keys, self.indptr, self.items, self.ratings = user_keys, indptr, items, ratings
        # A sort: NumPy 2.4's hashing np.unique is ~8x slower; int32 halves the memory.
        ids = items.astype(np.int32)
        ids.sort()
        self.item_ids = ids[np.concatenate(([True], ids[1:] != ids[:-1]))].astype(np.int64)

    @property
    def n_users(self) -> int:
        return len(self.user_keys)

    @property
    def n_items(self) -> int:
        return self.item_ids.size

    @property
    def n_ratings(self) -> int:
        return self.items.size


@dataclass
class TrainingArrays:
    """Dense working arrays derived from a training matrix.

    ``similarity[v, w]`` is the plain cosine between full rating rows (self
    similarity on the diagonal).  ``binary`` is the rated/unrated indicator
    used for vote tallies, ``rated_cols[v]`` the column indices peer v rated,
    as a contiguous int32 slice of one array (``tally_votes`` joins them).
    """

    item_ids: np.ndarray
    binary: np.ndarray
    rated_cols: list[np.ndarray]
    similarity: np.ndarray


def build_training_arrays(matrix: RatingMatrix) -> TrainingArrays:
    n, item_ids, indptr = matrix.n_users, matrix.item_ids, matrix.indptr
    cols = np.searchsorted(item_ids, matrix.items).astype(np.int32)
    values = np.zeros((n, item_ids.size), dtype=np.float64)
    values[np.repeat(np.arange(n), np.diff(indptr)), cols] = matrix.ratings
    binary = (values > 0).astype(np.uint8)
    rated_cols = np.split(cols, indptr[1:-1])
    norms = np.sqrt(np.einsum("ij,ij->i", values, values))
    values /= norms[:, None]  # in place: no second users-by-items matrix
    similarity = values @ values.T
    np.clip(similarity, 0.0, 1.0, out=similarity)
    return TrainingArrays(
        item_ids=item_ids,
        binary=binary,
        rated_cols=rated_cols,
        similarity=similarity,
    )


def overlap_matrix(arrays: TrainingArrays) -> np.ndarray:
    """Co-rated item counts for every user pair, as one float32 product.

    It is exact: each entry sums 0/1 terms, at most 2**24 of them.  The
    float32 copy of ``binary`` is freed when this returns.
    """
    b = arrays.binary.astype(np.float32)
    return b @ b.T


def weighted_similarity_matrix(arrays: TrainingArrays, threshold: int) -> Iterator[np.ndarray]:
    """Significance-weighted similarity for every user pair (``threshold`` >= 1),
    as float64 blocks of up to 64 rows, from top to bottom.

    The co-rated product is the only n-by-n array made here; each block of
    it is rounded, capped at ``threshold`` and weighted on its own.
    """
    counts = overlap_matrix(arrays)
    for start in range(0, counts.shape[0], 64):
        rows = slice(start, start + 64)
        weight = np.minimum(np.rint(counts[rows]).astype(np.int32), threshold) / float(threshold)
        weight *= arrays.similarity[rows]
        yield weight


def top_m_mean_table(similarity: np.ndarray, k: int) -> np.ndarray:
    """Per peer, mean similarity of its m globally most similar peers.

    Column m-1 holds the top-m mean (self excluded), for m = 1..k.  Because
    the global top-m maximizes the mean over every m-subset of candidates,
    these values bound any overlay neighborhood of matching size.
    """
    n = similarity.shape[0]
    top = np.empty((n, k))
    # Blocks of 64 rows, sorted in place: -similarity ascending is
    # similarity descending, and the +inf self entry sorts last.
    for start in range(0, n, 64):
        s = -similarity[start : start + 64]
        rows = np.arange(s.shape[0])
        s[rows, start + rows] = np.inf
        s.sort(axis=1)
        top[start : start + 64] = s[:, :k]
    return np.cumsum(-top, axis=1) / np.arange(1, k + 1, dtype=np.float64)


def centralized_neighborhoods(weighted: Iterable[np.ndarray], k: int) -> np.ndarray:
    """Global top-k neighbors per peer by (weighted similarity desc, id asc).

    ``weighted`` gives the square weighted-similarity matrix as row blocks,
    read top to bottom (``weighted_similarity_matrix`` yields them).
    """
    found, start = [], 0
    for block in weighted:
        k = min(k, block.shape[1] - 1)
        found.append(_top_k(block, start, k))
        start += block.shape[0]
    return np.concatenate(found, dtype=np.int32)


def _top_k(block: np.ndarray, start: int, k: int) -> np.ndarray:
    """The top k columns of each row of ``block`` (rows ``start`` on of a
    square matrix) by (value desc, column asc), the row's own column excluded.
    Its temporaries are freed before the next block is made."""
    key = -block
    rows = np.arange(key.shape[0])
    key[rows, start + rows] = np.inf
    # Every entry at or above a row's k-th key is a candidate, ties with it
    # included; sorting the candidates by (row, key, id) puts each row's top
    # k first.
    kth = np.partition(key, k - 1, axis=1)[:, k - 1 : k]
    row, col = np.nonzero(key <= kth)
    col = col[np.lexsort((col, key[row, col], row))]
    first = np.searchsorted(row, rows)
    return col[first[:, None] + np.arange(k)]


def tally_votes(arrays: TrainingArrays, neighbor_rows: Sequence[int]) -> np.ndarray:
    """One vote per neighbor per training item it rated."""
    flat = np.frombuffer(b"".join([arrays.rated_cols[v] for v in neighbor_rows]), dtype=np.int32)
    return np.bincount(flat, minlength=arrays.item_ids.shape[0])


def top_n_from_votes(
    votes: np.ndarray,
    exclude_cols: np.ndarray,
    n_top: int,
    most: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The top-N columns by votes and their votes, ties to the smaller column,
    excluded and zero-vote columns dropped, as two rows of ``n_top`` padded
    with column -1 and vote 0.

    ``most`` bounds the votes from above (a neighborhood's size does); any
    bound at or above ``votes.max()`` gives the same rows.
    """
    # Ascending key = descending votes; a stable sort keeps ties in column
    # order.  Keys fit in the fewest bits that hold ``most``, and NumPy's
    # stable sort of 8- and 16-bit keys is a radix sort.
    key = np.subtract(most, votes, dtype=np.min_scalar_type(most), casting="unsafe")
    key[exclude_cols] = most
    cols = key.argsort(kind="stable")[:n_top]
    kept = key[cols]
    # An excluded or zero-vote column has the key ``most``: column -1, vote 0.
    cols[kept == most] = -1
    top = most - kept
    if cols.size < n_top:  # fewer columns than places
        cols = np.pad(cols, (0, n_top - cols.size), constant_values=-1)
        top = np.pad(top, (0, n_top - top.size))
    return cols, top


def hidden_columns(arrays: TrainingArrays, hidden: np.ndarray) -> np.ndarray:
    """The training column of each hidden item id; an item no training row
    holds gets ``arrays.item_ids.size``, a column no top-N row lists."""
    item_ids = arrays.item_ids
    cols = np.searchsorted(item_ids, hidden)
    held = item_ids[np.minimum(cols, item_ids.size - 1)] == hidden
    return np.where(held, cols, item_ids.size)
