"""Similarity-driven neighborhood formation on top of the push-pull engine.

Here the disseminated items are snapshots of peer rating profiles: one item
per peer (``id == src``), timestamped at creation.  A peer scores every item
by the cosine similarity between its own profile and the profile inside the
item, so merge and selection keep the most useful (most similar) peers and
the cache doubles as the peer's neighborhood.  Profiles never change during
a run, so those scores reduce to a rank table built once per split.

In this in-process simulation a cache entry's contact address is the peer id
itself, so cache entries collapse to the items they carry.
"""

from __future__ import annotations

import math
from array import array
from typing import Mapping

import numpy as np

from .pushpull import DataItem, GossipState, PeerId, ProtocolSpec, Timestamp


class EmptyProfile(Exception):
    """A rating profile with no ratings cannot be normalized or snapshot."""


class BuddyUnreachable(Exception):
    """The bootstrap contact of a joining peer is not alive."""


class RatingProfile:
    """Immutable sparse map from item id to an integer rating in 1..5.

    The constructor copies the input mapping, so later mutation of the source
    does not leak into snapshots that share this profile.
    """

    __slots__ = ("_ratings", "_norm", "_hash")

    def __init__(self, ratings: Mapping[int, int]):
        for item, value in ratings.items():
            if not 1 <= value <= 5:
                raise ValueError(f"rating {value!r} for item {item!r} outside 1..5")
        self._ratings = dict(ratings)
        self._norm = math.sqrt(sum(v * v for v in self._ratings.values()))
        self._hash: int | None = None

    @property
    def norm(self) -> float:
        return self._norm

    def items(self):
        return self._ratings.items()

    def rated_items(self) -> set[int]:
        return set(self._ratings)

    def __getitem__(self, item: int) -> int:
        return self._ratings[item]

    def __contains__(self, item: int) -> bool:
        return item in self._ratings

    def __len__(self) -> int:
        return len(self._ratings)

    def __bool__(self) -> bool:
        return bool(self._ratings)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatingProfile):
            return NotImplemented
        return self._ratings == other._ratings

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._ratings.items()))
        return self._hash

    def __repr__(self) -> str:
        return f"RatingProfile({self._ratings!r})"


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


def make_self_item(peer: PeerId, profile: RatingProfile, now: Timestamp) -> DataItem:
    """Fresh dissemination item snapshotting ``peer``'s current profile.

    The item id coincides with the source peer: one item per peer.  Profiles
    are immutable, so sharing the profile object is a faithful snapshot.
    """
    if not profile:
        raise EmptyProfile(f"peer {peer} has an empty profile")
    return DataItem(id=peer, src=peer, timestamp=now, payload=profile)


def item_profile(item: DataItem) -> RatingProfile:
    """The profile snapshot carried by a dissemination item."""
    return item.payload


def item_address(item: DataItem) -> PeerId:
    """Contact handle of a cache entry; the peer id itself in simulation."""
    return item.src


def rank_table(similarity: np.ndarray) -> list[array]:
    """Per peer, every peer's position in its (similarity desc, id asc) order.

    ``rank[v][w]`` is that position of w for v; one stable argsort of the
    negated similarity rows gives the order.  Rows are compact ``array('i')``
    so the table costs four bytes per peer pair.
    """
    sim = np.asarray(similarity, dtype=np.float64)
    n = sim.shape[0]
    order = np.argsort(-sim, axis=1, kind="stable")
    rank = np.empty((n, n), dtype=np.int32)
    np.put_along_axis(rank, order, np.arange(n, dtype=np.int32)[None, :], axis=1)
    return [array("i", row.tobytes()) for row in rank]


def similarity_protocol(
    cache_size: int,
    similarity: np.ndarray,
    profiles: list[RatingProfile],
) -> ProtocolSpec:
    """The similarity-utility instance of the push-pull engine.

    ``similarity[v, w]`` must hold the similarity between peers v and w as
    computed from the same profiles the items snapshot; profiles never
    change during a run, so ranking sources by the table equals scoring the
    snapshot inside each item.  Selection keeps the most similar sources,
    ties to the smaller id.  Initiators inject a fresh self-item before
    pushing, neighborhoods are exactly the sources named in the selected
    cache, and a peer never retains an item about itself.
    """

    def self_item_for(peer: PeerId, now: Timestamp) -> DataItem:
        return make_self_item(peer, profiles[peer], now)

    return ProtocolSpec(
        name="swarmix",
        cache_size=cache_size,
        rank=rank_table(similarity),
        self_inject=True,
        self_item_for=self_item_for,
        drop_own_id=True,
    )


def newscast_protocol(cache_size: int) -> ProtocolSpec:
    """Freshest-news dissemination over a partial view of size k.

    Merge and selection both keep the freshest items; each initiator injects
    a fresh self-item, and the neighborhood is the sources in the cache.
    """

    def self_item_for(peer: PeerId, now: Timestamp) -> DataItem:
        return DataItem(id=peer, src=peer, timestamp=now, payload=None)

    return ProtocolSpec(
        name="newscast",
        cache_size=cache_size,
        self_inject=True,
        self_item_for=self_item_for,
        drop_own_id=True,
    )


def anti_entropy_protocol(cache_size: int) -> ProtocolSpec:
    """Freshest-entry database replication with a global view.

    Merge and selection keep the freshest entries, there is no
    self-injection and no neighborhood; one exchange leaves both sides with
    identical caches whenever competing versions have distinct timestamps.
    """
    return ProtocolSpec(name="anti-entropy", cache_size=cache_size, global_view=True)


def join(
    state: GossipState,
    new_peer: PeerId,
    buddy: PeerId,
    buddy_profile: RatingProfile,
    now: Timestamp,
) -> None:
    """Let ``new_peer`` enter the overlay knowing exactly one live peer.

    The joining peer's cache is initialized with a single entry for the
    buddy; it participates from the next cycle on.
    """
    if not state.alive[buddy]:
        raise BuddyUnreachable(f"buddy {buddy} is not alive")
    entry = make_self_item(buddy, buddy_profile, now)
    state.caches[new_peer] = (entry,)
    state.neighbors[new_peer] = frozenset({buddy})
    state.alive[new_peer] = True
