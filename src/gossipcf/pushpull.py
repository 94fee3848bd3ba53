"""The epidemic push-pull protocol, in all three of its variants.

Every peer keeps a bounded cache of timestamped entries, one per source
peer, and periodically exchanges its cache with one neighbor.  After the
push/pull both sides run, each from its *own* perspective, the two
exchangeable steps:

    merge      -> one surviving entry per source: the freshest
    select     -> keep the k best entries by the protocol's order

The variants differ in one switch and one order.  A partial-view protocol
(swarmix, newscast) contacts only the sources in its cache, which is then
the peer's neighborhood; its initiator pushes a fresh entry about itself,
and a peer never retains its own entry.  A global-view protocol
(anti-entropy) may contact any live peer and does neither.  Selection
orders either by a per-owner rank table (swarmix: ``rank[owner][src]``,
smaller is better) or, without one, freshest first.

All tie-breaks are deterministic so that seeded runs reproduce exactly:
merge ties keep the merging peer's own copy; freshest-first selection ties
fall back to the smaller source id.  Step-by-step reference versions of
merge and select live with the test suite, which pins :func:`_retain` to
their composition.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

PeerId = int
Timestamp = int


class DataItem(NamedTuple):
    """One cache entry: the peer ``src`` it is about, and when it was created.

    A cache holds at most one entry per source; of two entries about the
    same source, the one with the larger ``timestamp`` is the fresher.
    """

    src: PeerId
    timestamp: Timestamp


# A cache is an ordered, immutable collection of entries.  Capacity is a
# protocol parameter enforced at selection rather than stored per cache.
Cache = tuple[DataItem, ...]


class ResponderUnreachable(Exception):
    """The chosen exchange partner is not alive; caller should re-draw."""


class BuddyUnreachable(Exception):
    """The bootstrap contact of a joining peer is not alive."""


# A rank table: rank[v][w] is w's position in v's order of preference.
RankTable = Sequence[Sequence[int]]


@dataclass(frozen=True)
class ProtocolSpec:
    """Configuration that turns the generic engine into a concrete protocol.

    With a ``rank`` table, selection keeps the k entries whose sources rank
    first from the owner's perspective; without one, it keeps the k
    freshest.  A partial-view protocol (``global_view`` unset) has each
    initiator add a fresh entry about itself, stamped with the exchange
    time, to the cache it pushes, and removes the owner's own entry from
    what the owner retains; the entry still transits through other peers'
    caches.  A ``global_view`` protocol keeps no neighborhood: its peers may
    contact any live peer.
    """

    cache_size: int
    rank: RankTable | None = None
    global_view: bool = False


@dataclass
class GossipState:
    """Mutable per-peer protocol state shared by all variants.

    ``run_exchange`` mutates exactly the two participants' caches; entries
    themselves are immutable values.
    """

    caches: list[Cache]
    alive: list[bool]


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


def _fresh_first(item: DataItem) -> tuple[int, int]:
    return (-item.timestamp, item.src)


def _retain(owner: PeerId, own: Cache, other: Cache, protocol: ProtocolSpec) -> Cache:
    """Merge, own-entry filter and select for one side of an exchange.

    Expects source-unique caches.  The merge keeps the freshest entry per
    source, the owner's own copy on ties.  The test suite pins the result to
    the composition of reference merge and select operations.
    """
    merged = {item.src: item for item in other}
    for item in own:
        theirs = merged.get(item.src)
        if theirs is None or item.timestamp >= theirs.timestamp:
            merged[item.src] = item
    if not protocol.global_view:
        merged.pop(owner, None)
    k = protocol.cache_size
    if protocol.rank is None:
        return tuple(sorted(merged.values(), key=_fresh_first)[:k])
    srcs = sorted(merged, key=protocol.rank[owner].__getitem__)
    return tuple(map(merged.__getitem__, srcs[:k]))


def run_exchange(
    state: GossipState,
    initiator: PeerId,
    responder: PeerId,
    protocol: ProtocolSpec,
    now: Timestamp,
) -> None:
    """One push-pull session between ``initiator`` and ``responder``.

    Under a partial view the initiator adds a fresh entry about itself to
    the cache it pushes; both transmitted caches are then merged, filtered
    and selected independently on each side from that side's perspective.
    The update is atomic: both peers' caches are replaced together.
    """
    if not state.alive[responder]:
        raise ResponderUnreachable(f"peer {responder} is not alive")
    pushed = state.caches[initiator]
    if not protocol.global_view:
        pushed = pushed + (DataItem(initiator, now),)
    pulled = state.caches[responder]
    state.caches[initiator] = _retain(initiator, pushed, pulled, protocol)
    state.caches[responder] = _retain(responder, pulled, pushed, protocol)


def join(state: GossipState, new_peer: PeerId, buddy: PeerId, now: Timestamp) -> None:
    """Let ``new_peer`` enter the overlay knowing exactly one live peer.

    The joining peer's cache is initialized with a single entry for the
    buddy, stamped ``now``; it participates from the next cycle on.
    """
    if not state.alive[buddy]:
        raise BuddyUnreachable(f"buddy {buddy} is not alive")
    state.caches[new_peer] = (DataItem(buddy, now),)
    state.alive[new_peer] = True
