"""Reference implementations the test suite compares the simulator against.

Each function spells out one step on plain Python values, with no concern
for speed: the protocol's merge and select steps over source-keyed
:class:`~gossipcf.pushpull.DataItem` caches (and their conversion to and
from the state's source and stamp tuples), cosine and significance-weighted
similarity over sparse rating profiles, per-user rating dicts read from a
rating matrix's CSR arrays, an all-but-1 split that draws once per user over
those dicts, majority-vote recommendation over them, a top-N by a full
sort of a vote array, a simulation cycle whose every turn draws its own
partner, and a linear-time pointer-walk Pruefer decode.  The package's fast
paths (the rank-table exchange, the batched split draw, the similarity
matrices, the vote tally, the radix-sorted top-N, the cycle-level partner
draw) and its heap-of-leaves tree decode must agree with them.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from gossipcf.engine import CycleSnapshot, SimState, _rank, _take_snapshot
from gossipcf.harness import UserTooSparse
from gossipcf.pushpull import Cache, DataItem, GossipState, PeerId, Sources, Stamps, run_exchange
from gossipcf.recommend import RatingMatrix

# Ordered (item id, vote count) pairs, votes descending, item id ascending.
RecommendationList = list[tuple[int, int]]
# Utility of a single entry, evaluated from one peer's perspective.
Utility = Callable[[DataItem], float]


# --- push-pull steps ---------------------------------------------------------

def sources_of(cache: Cache) -> Sources:
    """The sources of ``cache``'s entries, in cache order."""
    return tuple(item.src for item in cache)


def columns(cache: Cache) -> tuple[Sources, Stamps]:
    """``cache`` as the state keeps it: its sources and, in step, its stamps."""
    return sources_of(cache), tuple(item.timestamp for item in cache)


def state_of(caches: Iterable[Cache], stamped: bool = True) -> GossipState:
    """A protocol state holding ``caches``: their sources, and their stamps if
    ``stamped``, as the engine keeps them without a rank table."""
    sources, stamps = zip(*map(columns, caches))
    return GossipState(list(sources), list(stamps) if stamped else None)


def cache_of(state: GossipState, peer: PeerId) -> Cache:
    """``peer``'s cache as entries; needs the state's stamps."""
    return tuple(map(DataItem, state.sources[peer], state.stamps[peer]))


def merge_freshest(cache_a: Cache, cache_b: Cache) -> Cache:
    """Union of both caches keeping, per source, the most recent entry.

    Timestamp ties prefer ``cache_a``'s copy, so a merging peer keeps its own
    entry when entries are equally fresh.
    """
    best: dict[int, tuple[int, int, DataItem]] = {}
    for side, cache in ((0, cache_b), (1, cache_a)):
        for item in cache:
            key = (item.timestamp, side, item)
            cur = best.get(item.src)
            if cur is None or key[:2] > cur[:2]:
                best[item.src] = key
    return tuple(entry[2] for entry in best.values())


def select_top_k(cache: Cache, u: Utility, k: int) -> Cache:
    """The k most useful entries, in descending utility order.

    Expects a source-unique (merged) cache.  Utility ties are broken by the
    smaller source peer id.
    """
    if k < 1:
        raise ValueError("k must be positive")
    ranked = sorted(cache, key=lambda it: (-u(it), it.src))
    return tuple(ranked[:k])


# --- rating rows and the all-but-1 split -------------------------------------

def row_of(ratings: RatingMatrix, peer: PeerId) -> dict[int, float]:
    """Peer ``peer``'s ratings as an item-to-rating dict, items ascending."""
    start, stop = ratings.indptr[peer], ratings.indptr[peer + 1]
    return dict(zip(ratings.items[start:stop].tolist(), ratings.ratings[start:stop].tolist()))


def rows_of(ratings: RatingMatrix) -> list[dict[int, float]]:
    """Every peer's ratings as dicts, in peer order."""
    return [row_of(ratings, peer) for peer in range(ratings.n_users)]


def split_rows(
    ratings: RatingMatrix, rng: np.random.Generator
) -> tuple[np.ndarray, list[dict[int, float]]]:
    """Reference all-but-1 split: the hidden item ids and the training rows.

    Each user in peer order draws one scalar ``rng.integers`` over its sorted
    item ids and hides the item drawn.
    """
    hidden = np.empty(ratings.n_users, dtype=np.int64)
    rows: list[dict[int, float]] = []
    for peer, (key, row) in enumerate(zip(ratings.user_keys, rows_of(ratings))):
        if len(row) < 2:
            raise UserTooSparse(f"user {key} has {len(row)} ratings, need at least 2")
        items = sorted(row)
        pick = items[int(rng.integers(len(items)))]
        hidden[peer] = pick
        del row[pick]
        rows.append(row)
    return hidden, rows


# --- rating profiles and similarity ------------------------------------------

class EmptyProfile(Exception):
    """A rating profile with no ratings cannot be normalized."""


class RatingProfile:
    """Immutable sparse map from item id to a rating in 1..5.

    The constructor copies the input mapping, so later mutation of the source
    does not leak into the profile.
    """

    __slots__ = ("_ratings", "_norm")

    def __init__(self, ratings: Mapping[int, int]):
        for item, value in ratings.items():
            if not 1 <= value <= 5:
                raise ValueError(f"rating {value!r} for item {item!r} outside 1..5")
        self._ratings = dict(ratings)
        self._norm = math.sqrt(sum(v * v for v in self._ratings.values()))

    @property
    def norm(self) -> float:
        return self._norm

    def items(self):
        return self._ratings.items()

    def __getitem__(self, item: int) -> int:
        return self._ratings[item]

    def __contains__(self, item: int) -> bool:
        return item in self._ratings

    def __len__(self) -> int:
        return len(self._ratings)

    def __bool__(self) -> bool:
        return bool(self._ratings)

    def __repr__(self) -> str:
        return f"RatingProfile({self._ratings!r})"


def profile(ratings: RatingMatrix, peer: PeerId) -> RatingProfile:
    """Peer ``peer``'s row of ``ratings`` as a profile."""
    return RatingProfile(row_of(ratings, peer))


def profiles(ratings: RatingMatrix) -> list[RatingProfile]:
    """Every row of ``ratings`` as a profile, in peer order."""
    return [RatingProfile(row) for row in rows_of(ratings)]


def cosine_similarity(profile_v: RatingProfile, profile_w: RatingProfile) -> float:
    """Cosine of the two rating vectors over the union of rated items.

    Unrated items count as zero, so profiles sharing no items score 0.0.
    Symmetric, and in [0, 1] for the non-negative rating scale.
    """
    if not profile_v or not profile_w:
        raise EmptyProfile("cannot compute similarity of an empty profile")
    if len(profile_v) > len(profile_w):
        profile_v, profile_w = profile_w, profile_v
    dot = 0.0
    for item, value in profile_v.items():
        if item in profile_w:
            dot += value * profile_w[item]
    return dot / (profile_v.norm * profile_w.norm)


def overlap(profile_v: RatingProfile, profile_w: RatingProfile) -> int:
    """Number of co-rated items."""
    if len(profile_v) > len(profile_w):
        profile_v, profile_w = profile_w, profile_v
    return sum(1 for item, _ in profile_v.items() if item in profile_w)


def significance_weighted_similarity(
    profile_v: RatingProfile,
    profile_w: RatingProfile,
    threshold: int = 50,
) -> float:
    """Cosine similarity devalued when few items were co-rated.

    Multiplies the cosine by min(overlap, threshold) / threshold, the
    standard devaluation scheme; equals the plain cosine once the number of
    co-rated items reaches the threshold.
    """
    if threshold < 1:
        raise ValueError("threshold must be positive")
    cos = cosine_similarity(profile_v, profile_w)
    n = overlap(profile_v, profile_w)
    return cos * min(n, threshold) / threshold


# --- recommendation ----------------------------------------------------------

def sorted_top_n(
    votes: Sequence[int], exclude_cols: Iterable[int], n_top: int, item_ids: Sequence[int]
) -> RecommendationList:
    """Reference top-N: sort by (votes desc, column asc), drop excluded and
    zero-vote columns, and name the kept columns by their item ids."""
    excluded = set(int(c) for c in exclude_cols)
    cols = sorted(range(len(votes)), key=lambda c: (-int(votes[c]), c))
    kept = [c for c in cols if c not in excluded and votes[c] > 0]
    return [(int(item_ids[c]), int(votes[c])) for c in kept[:n_top]]


def ranked_pairs(cols: np.ndarray, votes: np.ndarray, item_ids: np.ndarray) -> RecommendationList:
    """A padded top-N row of columns and votes as (item id, votes) pairs, padding dropped."""
    listed = cols >= 0
    return list(zip(item_ids[cols[listed]].tolist(), votes[listed].tolist()))


class DeadPeer(Exception):
    """Recommendations were requested for a failed peer."""


def most_frequent_items(
    active: PeerId,
    neighbors: Iterable[PeerId],
    ratings: RatingMatrix,
    n_top: int,
) -> RecommendationList:
    """Reference majority-vote aggregation over per-user rating dicts."""
    if n_top < 1:
        raise ValueError("n_top must be positive")
    votes: Counter[int] = Counter()
    for w in neighbors:
        if w == active:
            raise ValueError("active user cannot vote for itself")
        votes.update(row_of(ratings, w).keys())
    seen = row_of(ratings, active).keys()
    ranked = sorted(
        ((item, count) for item, count in votes.items() if item not in seen),
        key=lambda pair: (-pair[1], pair[0]),
    )
    return ranked[:n_top]


def centralized_recommend(
    active: PeerId,
    all_peers: Iterable[PeerId],
    ratings: RatingMatrix,
    k: int,
    n_top: int,
    threshold: int = 50,
) -> RecommendationList:
    """Reference oracle: global top-k neighborhood, then majority voting.

    Similarities are significance weighted; neighbor ties fall back to the
    smaller peer id.  Pure function of its inputs.
    """
    if k < 1:
        raise ValueError("k must be positive")
    own = profile(ratings, active)
    scored = []
    for w in all_peers:
        if w == active:
            continue
        sim = significance_weighted_similarity(own, profile(ratings, w), threshold)
        scored.append((-sim, w))
    scored.sort()
    neighborhood = [w for _, w in scored[:k]]
    return most_frequent_items(active, neighborhood, ratings, n_top)


def overlay_recommend(
    active: PeerId, state: GossipState, alive: Sequence[bool], ratings: RatingMatrix, n_top: int
) -> RecommendationList:
    """Recommendations from the peer's current cache, local knowledge only."""
    if not alive[active]:
        raise DeadPeer(f"peer {active} is not alive")
    return most_frequent_items(active, state.sources[active], ratings, n_top)


# --- simulation cycle --------------------------------------------------------

def run_cycle(state: SimState) -> CycleSnapshot:
    """Reference cycle: each turn builds its candidate list and draws its partner."""
    state.cycle += 1
    n = state.n
    gossip = state.gossip
    sources = gossip.sources
    alive = state.alive
    rng = state.rng
    global_view = state.protocol.global_view
    receptions = np.zeros(n, dtype=np.int32)
    skipped = 0

    participants = np.flatnonzero(np.asarray(alive, dtype=bool))
    if global_view:
        # Nobody joins or leaves mid-cycle, so the live set is fixed.
        live = participants.tolist()
        position = {p: j for j, p in enumerate(live)}
    order = rng.permutation(participants).tolist()
    for p in order:
        if global_view:
            # Every live peer but p: index j skips p's own slot.
            count = len(live) - 1
            if count:
                j = int(rng.integers(count))
                w = live[j + (j >= position[p])]
        else:
            candidates = [src for src in sources[p] if alive[src]]
            count = len(candidates)
            if count:
                w = candidates[int(rng.integers(count))]
        if count:
            run_exchange(gossip, p, w, state.protocol, now=state.cycle)
            receptions[w] += 1
        else:
            skipped += 1
        _rank(state, p)
    return _take_snapshot(state, receptions, skipped)


# --- bootstrap tree ----------------------------------------------------------

def pruefer_tree_edges(n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Reference Pruefer decode: a pointer walks up to the next leaf, and a
    node that becomes a leaf below the pointer is taken at once."""
    if n == 2:
        return [(0, 1)]
    seq = rng.integers(0, n, size=n - 2)
    degree = np.ones(n, dtype=np.int64)
    for x in seq:
        degree[x] += 1
    edges: list[tuple[int, int]] = []
    ptr = 0
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    for x in seq:
        x = int(x)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append((leaf, n - 1))
    return edges
