"""Generic epidemic push-pull engine.

Every peer keeps a bounded cache of timestamped data items and periodically
exchanges its cache with one neighbor.  After the push/pull both sides run,
each from its *own* perspective, the three exchangeable steps:

    merge      -> one surviving version per item id: the freshest
    select     -> keep the k best items by the protocol's order
    neighbors  -> the sources named in the selected cache (unless global view)

Variants (anti-entropy replication, news dissemination, similarity-driven
neighborhood formation) differ only in the :class:`ProtocolSpec` they plug
into :func:`run_exchange`.  Selection orders either by a per-owner rank
table (similarity: ``rank[owner][src]``, smaller is better) or, without one,
freshest first.

All tie-breaks are deterministic so that seeded runs reproduce exactly:
merge ties keep the merging peer's own copy; freshest-first selection ties
fall back to smaller source peer id, then smaller item id.

The reference operations ``merge_freshest``, ``merge_by_utility``,
``select_top_k`` and ``adapt_neighbors`` spell out each step on its own; the
test suite pins :func:`_retain` to their composition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Sequence

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
    payload: Any = None


# A cache is an ordered, immutable collection of items.  Capacity is a
# protocol parameter enforced at selection rather than stored per cache.
Cache = tuple[DataItem, ...]

# Utility of a single item, evaluated from one peer's perspective.
Utility = Callable[[DataItem], float]


class ResponderUnreachable(Exception):
    """The chosen exchange partner is not alive; caller should re-draw."""


def merge_freshest(cache_a: Cache, cache_b: Cache) -> Cache:
    """Union of both caches keeping, per item id, the most recent version.

    Timestamp ties prefer ``cache_a``'s copy, so a merging peer keeps its own
    version when versions are equally fresh.
    """
    best: dict[int, tuple[int, int, DataItem]] = {}
    for side, cache in ((0, cache_b), (1, cache_a)):
        for item in cache:
            key = (item.timestamp, side, item)
            cur = best.get(item.id)
            if cur is None or key[:2] > cur[:2]:
                best[item.id] = key
    return tuple(entry[2] for entry in best.values())


def merge_by_utility(cache_a: Cache, cache_b: Cache, u: Utility) -> Cache:
    """Union of both caches keeping, per item id, the most useful version.

    ``u`` must be the merging peer's own utility assignment.  Utility ties
    fall back to larger timestamp, then to ``cache_a``'s copy.
    """
    best: dict[int, tuple[float, int, int, DataItem]] = {}
    for side, cache in ((0, cache_b), (1, cache_a)):
        for item in cache:
            key = (u(item), item.timestamp, side, item)
            cur = best.get(item.id)
            if cur is None or key[:3] > cur[:3]:
                best[item.id] = key
    return tuple(entry[3] for entry in best.values())


def select_top_k(cache: Cache, u: Utility, k: int) -> Cache:
    """The k most useful items, in descending utility order.

    Expects an id-unique (merged) cache.  Utility ties are broken by smaller
    source peer id, then smaller item id.
    """
    if k < 1:
        raise ValueError("k must be positive")
    ranked = sorted(cache, key=lambda it: (-u(it), it.src, it.id))
    return tuple(ranked[:k])


def adapt_neighbors(
    cache_selected: Cache,
    u: Utility,
    l: int,
    mode: str,
    prior: frozenset[PeerId] = frozenset(),
) -> frozenset[PeerId]:
    """New neighborhood after an exchange.

    ``adaptive`` takes the sources of the top-l items by utility; ``fixed``
    leaves the prior neighborhood untouched (no neighborhood adaptation).
    """
    if mode == "fixed":
        return prior
    if mode != "adaptive":
        raise ValueError(f"unknown adaptation mode: {mode!r}")
    if l < 1:
        raise ValueError("l must be positive")
    ranked = sorted(cache_selected, key=lambda it: (-u(it), it.src, it.id))
    return frozenset(it.src for it in ranked[:l])


# A rank table: rank[v][w] is w's position in v's order of preference.
RankTable = Sequence[Sequence[int]]


@dataclass(frozen=True)
class ProtocolSpec:
    """Configuration that turns the generic engine into a concrete protocol.

    With a ``rank`` table, selection keeps the k items whose sources rank
    first from the owner's perspective; this needs one item per source
    (``id == src``), so a version's source never changes.  Without one,
    selection keeps the k freshest items.  ``self_item_for`` (when
    ``self_inject`` is set) builds the fresh item a peer injects into its
    pushed cache.  ``drop_own_id`` removes items about the owner itself from
    what the owner retains; the item still transits through other peers'
    caches.  A ``global_view`` protocol keeps no neighborhood: its peers may
    contact any live peer.
    """

    name: str
    cache_size: int
    rank: RankTable | None = None
    self_inject: bool = False
    self_item_for: Callable[[PeerId, Timestamp], DataItem] | None = None
    drop_own_id: bool = False
    global_view: bool = False


@dataclass
class GossipState:
    """Mutable per-peer protocol state shared by all variants.

    ``neighbors[v] is None`` encodes a global view (the peer may contact any
    live peer).  ``run_exchange`` mutates exactly the two participants'
    entries; items themselves are immutable values.
    """

    caches: list[Cache]
    neighbors: list[frozenset[PeerId] | None]
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
    of the public merge and select operations.
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
    atomic: both peers' caches and neighborhoods are replaced together.
    """
    if not state.alive[responder]:
        raise ResponderUnreachable(f"peer {responder} is not alive")
    pushed = state.caches[initiator]
    if protocol.self_inject:
        assert protocol.self_item_for is not None
        pushed = pushed + (protocol.self_item_for(initiator, now),)
    pulled = state.caches[responder]

    for peer, own, other in ((initiator, pushed, pulled), (responder, pulled, pushed)):
        cache = _retain(peer, own, other, protocol)
        state.caches[peer] = cache
        if not protocol.global_view:
            state.neighbors[peer] = frozenset(item.src for item in cache)
