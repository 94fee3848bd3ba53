"""Generic epidemic push-pull engine.

Every peer keeps a bounded cache of timestamped data items and periodically
exchanges its cache with one neighbor.  After the push/pull both sides run,
each from its *own* perspective, the two exchangeable steps:

    merge      -> one surviving version per item id: the freshest
    select     -> keep the k best items by the protocol's order

The selected cache doubles as the peer's neighborhood: its partners are the
sources its entries name (unless the protocol has a global view).

Variants (anti-entropy replication, news dissemination, similarity-driven
neighborhood formation) differ only in the :class:`ProtocolSpec` they plug
into :func:`run_exchange`.  Selection orders either by a per-owner rank
table (similarity: ``rank[owner][src]``, smaller is better) or, without one,
freshest first.

All tie-breaks are deterministic so that seeded runs reproduce exactly:
merge ties keep the merging peer's own copy; freshest-first selection ties
fall back to smaller source peer id, then smaller item id.  Step-by-step
reference versions of merge and select live with the test suite, which pins
:func:`_retain` to their composition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

PeerId = int
Timestamp = int


class DataItem(NamedTuple):
    """One version of a piece of disseminated data.

    ``id`` identifies the datum across versions, ``src`` the peer where it
    entered the network, ``timestamp`` the (logical) creation time of this
    version.  For protocols that disseminate one item per peer, ``id == src``.
    """

    id: int
    src: PeerId
    timestamp: Timestamp


# A cache is an ordered, immutable collection of items.  Capacity is a
# protocol parameter enforced at selection rather than stored per cache.
Cache = tuple[DataItem, ...]


class ResponderUnreachable(Exception):
    """The chosen exchange partner is not alive; caller should re-draw."""


# A rank table: rank[v][w] is w's position in v's order of preference.
RankTable = Sequence[Sequence[int]]


@dataclass(frozen=True)
class ProtocolSpec:
    """Configuration that turns the generic engine into a concrete protocol.

    With a ``rank`` table, selection keeps the k items whose sources rank
    first from the owner's perspective; this needs one item per source
    (``id == src``), so a version's source never changes.  Without one,
    selection keeps the k freshest items.  With ``self_inject`` set, an
    initiator adds a fresh item about itself (``id == src ==`` initiator,
    stamped with the exchange time) to the cache it pushes.
    ``drop_own_id`` removes items about the owner itself from what the owner
    retains; the item still transits through other peers' caches.  A
    ``global_view`` protocol keeps no neighborhood: its peers may contact
    any live peer.
    """

    name: str
    cache_size: int
    rank: RankTable | None = None
    self_inject: bool = False
    drop_own_id: bool = False
    global_view: bool = False


@dataclass
class GossipState:
    """Mutable per-peer protocol state shared by all variants.

    ``run_exchange`` mutates exactly the two participants' caches; items
    themselves are immutable values.
    """

    caches: list[Cache]
    alive: list[bool]

    @property
    def n_peers(self) -> int:
        return len(self.caches)


def _fresh_first(item: DataItem) -> tuple[int, int, int]:
    return (-item.timestamp, item.src, item.id)


def _retain(owner: PeerId, own: Cache, other: Cache, protocol: ProtocolSpec) -> Cache:
    """Merge, own-id filter and select for one side of an exchange.

    Expects id-unique caches.  The merge keeps the freshest version per id,
    the owner's own copy on ties; with a rank table every version of an id
    has the same source and so the same rank, which makes this also the
    most useful version.  The test suite pins the result to the composition
    of reference merge and select operations.
    """
    merged = {item.id: item for item in other}
    for item in own:
        theirs = merged.get(item.id)
        if theirs is None or item.timestamp >= theirs.timestamp:
            merged[item.id] = item
    if protocol.drop_own_id:
        merged.pop(owner, None)
    k = protocol.cache_size
    if protocol.rank is None:
        return tuple(sorted(merged.values(), key=_fresh_first)[:k])
    ids = sorted(merged, key=protocol.rank[owner].__getitem__)
    return tuple(map(merged.__getitem__, ids[:k]))


def run_exchange(
    state: GossipState,
    initiator: PeerId,
    responder: PeerId,
    protocol: ProtocolSpec,
    now: Timestamp,
) -> None:
    """One push-pull session between ``initiator`` and ``responder``.

    The initiator (optionally) injects a fresh self-item into the cache it
    pushes; both transmitted caches are then merged, filtered and selected
    independently on each side from that side's perspective.  The update is
    atomic: both peers' caches are replaced together.
    """
    if not state.alive[responder]:
        raise ResponderUnreachable(f"peer {responder} is not alive")
    pushed = state.caches[initiator]
    if protocol.self_inject:
        pushed = pushed + (DataItem(initiator, initiator, now),)
    pulled = state.caches[responder]
    state.caches[initiator] = _retain(initiator, pushed, pulled, protocol)
    state.caches[responder] = _retain(responder, pulled, pushed, protocol)
