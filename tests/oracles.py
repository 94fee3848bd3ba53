"""Reference implementations the test suite compares the simulator against.

Each function spells out one step on plain Python values, with no concern
for speed: the protocol's merge and select steps over source-keyed
:class:`~gossipcf.pushpull.DataItem` caches, cosine and significance-weighted
similarity over sparse rating profiles, and majority-vote recommendation over
per-user rating dicts.  The package's fast paths (the rank-table exchange,
the similarity matrices, the vote tally) must agree with them.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable, Iterable, Mapping

from gossipcf.pushpull import Cache, DataItem, GossipState, PeerId
from gossipcf.recommend import RatingMatrix, RecommendationList

# Utility of a single entry, evaluated from one peer's perspective.
Utility = Callable[[DataItem], float]


# --- push-pull steps ---------------------------------------------------------

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


# --- rating profiles and similarity ------------------------------------------

class EmptyProfile(Exception):
    """A rating profile with no ratings cannot be normalized."""


class RatingProfile:
    """Immutable sparse map from item id to an integer rating in 1..5.

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
    return RatingProfile(ratings.rows[peer])


def profiles(ratings: RatingMatrix) -> list[RatingProfile]:
    """Every row of ``ratings`` as a profile, in peer order."""
    return [RatingProfile(row) for row in ratings.rows]


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
        votes.update(ratings.rows[w].keys())
    seen = ratings.rows[active].keys()
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
    active: PeerId, state: GossipState, ratings: RatingMatrix, n_top: int
) -> RecommendationList:
    """Recommendations from the peer's current cache, local knowledge only."""
    if not state.alive[active]:
        raise DeadPeer(f"peer {active} is not alive")
    neighbors = [item.src for item in state.caches[active]]
    return most_frequent_items(active, neighbors, ratings, n_top)
