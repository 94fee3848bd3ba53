"""Similarity-driven neighborhood formation on top of the push-pull engine.

Here every peer disseminates one item about itself (``id == src``),
timestamped at creation.  A peer prefers the items whose sources rate most
like it, so merge and selection keep the most similar peers and the cache
doubles as the peer's neighborhood.  Ratings never change during a run, so
those preferences reduce to a rank table built once per split from the
training similarity matrix; cache entries carry no profile data.

In this in-process simulation a cache entry's contact address is the peer id
itself, so cache entries collapse to the items they carry.
"""

from __future__ import annotations

from array import array

import numpy as np

from .pushpull import DataItem, GossipState, PeerId, ProtocolSpec, Timestamp


class BuddyUnreachable(Exception):
    """The bootstrap contact of a joining peer is not alive."""


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


def similarity_protocol(cache_size: int, similarity: np.ndarray) -> ProtocolSpec:
    """The similarity-utility instance of the push-pull engine.

    ``similarity[v, w]`` must hold the similarity between peers v and w.
    Selection keeps the most similar sources, ties to the smaller id.
    Initiators inject a fresh self-item before pushing, and a peer never
    retains an item about itself.
    """
    return ProtocolSpec(
        name="swarmix",
        cache_size=cache_size,
        rank=rank_table(similarity),
        self_inject=True,
        drop_own_id=True,
    )


def newscast_protocol(cache_size: int) -> ProtocolSpec:
    """Freshest-news dissemination over a partial view of size k.

    Merge and selection both keep the freshest items; each initiator injects
    a fresh self-item, and the neighborhood is the sources in the cache.
    """
    return ProtocolSpec(
        name="newscast",
        cache_size=cache_size,
        self_inject=True,
        drop_own_id=True,
    )


def anti_entropy_protocol(cache_size: int) -> ProtocolSpec:
    """Freshest-entry database replication with a global view.

    Merge and selection keep the freshest entries, there is no
    self-injection and no neighborhood; one exchange leaves both sides with
    identical caches whenever competing versions have distinct timestamps.
    """
    return ProtocolSpec(name="anti-entropy", cache_size=cache_size, global_view=True)


def join(state: GossipState, new_peer: PeerId, buddy: PeerId, now: Timestamp) -> None:
    """Let ``new_peer`` enter the overlay knowing exactly one live peer.

    The joining peer's cache is initialized with a single entry for the
    buddy, stamped ``now``; it participates from the next cycle on.
    """
    if not state.alive[buddy]:
        raise BuddyUnreachable(f"buddy {buddy} is not alive")
    state.caches[new_peer] = (DataItem(buddy, buddy, now),)
    state.alive[new_peer] = True
