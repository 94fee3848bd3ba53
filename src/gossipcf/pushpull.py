"""The epidemic push-pull protocol, in all three of its variants.

Every peer keeps a bounded cache of timestamped entries, one per source
peer, and periodically exchanges its cache with one neighbor.  After the
push/pull both sides run, each from its *own* perspective, the two
exchangeable steps:

    merge      -> one surviving entry per source: the freshest
    select     -> keep the k best entries by the protocol's order

The variants differ in one switch and one order.  A partial-view protocol
(swarmix, newscast) contacts only the sources in its cache; its initiator
pushes a fresh entry about itself, and a peer never retains its own entry.
A global-view protocol (anti-entropy) may contact any live peer and does
neither, so its cache may keep the owner's own entry.  Under every protocol
a peer's neighborhood is its cache's sources other than itself: the engine
leaves the owner out of what it snapshots.  Selection orders either by a
per-owner rank table (swarmix: ``rank[owner][src]``, smaller is better) or,
without one, freshest first.

Alongside each cache the state keeps its sources as one tuple and a
version that moves whenever they do.  Under a rank table the sources an
exchange retains depend on the two source sets alone, so an exchange that
changed nothing is not repeated until one side's version moves.  Before
any merge, each side of an exchange asks an admission test whether an
offered source can enter its cache: into a full cache only by outranking
its worst entry, into one with room whenever it is new.  A side that
cannot change runs no merge.  Both shortcuts assume a state is exchanged
under one protocol, so that a tuple with ``version > 0`` came from a merge
and is in rank order; a version-0 tuple always merges.  Timestamp orders
take neither shortcut.

All tie-breaks are deterministic so that seeded runs reproduce exactly:
merge ties keep the merging peer's own copy; freshest-first selection ties
fall back to the smaller source id.  Step-by-step reference versions of
merge and select live with the test suite, which pins :func:`_retain` to
their composition.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from operator import itemgetter
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


# A rank table: rank[v][w] is w's position in v's order of preference.
RankTable = Sequence[Sequence[int]]

_src, _timestamp = itemgetter(0), itemgetter(1)


@dataclass(frozen=True)
class ProtocolSpec:
    """Configuration that turns the generic engine into a concrete protocol.

    With a ``rank`` table, selection keeps the k entries whose sources rank
    first from the owner's perspective; without one, it keeps the k
    freshest.  A partial-view protocol (``global_view`` unset) has each
    initiator add a fresh entry about itself, stamped with the exchange
    time, to the cache it pushes, and removes the owner's own entry from
    what the owner retains; the entry still transits through other peers'
    caches.  A ``global_view`` protocol lets its peers contact any live
    peer and filters nothing, so a cache may keep the owner's own entry; the
    engine still leaves it out of the owner's neighborhood.
    """

    cache_size: int
    rank: RankTable | None = None
    global_view: bool = False


@dataclass
class GossipState:
    """Mutable per-peer protocol state shared by all variants.

    ``run_exchange`` mutates exactly the two participants' caches; entries
    themselves are immutable values.  Three fields are derived from the
    caches and kept in step by ``run_exchange``:

    - ``sources[v]``: the tuple of v's cache sources, in cache order.  The
      exchange replaces it only when the ordered sources differ, so an
      unchanged cache keeps the very same tuple object;
    - ``version[v]``: bumped whenever ``sources[v]`` is replaced;
    - ``idle``: under a rank table only, for each ordered pair whose last
      exchange changed nothing, keyed ``initiator * n + responder``, the two
      versions it saw, packed ``(version[initiator] << 32) | version[responder]``.
    """

    caches: list[Cache]
    alive: list[bool]
    sources: list[tuple[PeerId, ...]] = field(init=False)
    version: list[int] = field(init=False)
    idle: dict[int, int] = field(init=False)

    def __post_init__(self) -> None:
        self.sources = [tuple(item.src for item in cache) for cache in self.caches]
        self.version = [0] * len(self.caches)
        self.idle = {}


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


def _retain(
    owner: PeerId, own: Cache, other: Cache, protocol: ProtocolSpec
) -> tuple[Cache, tuple[PeerId, ...]]:
    """Merge, own-entry filter and select for one side of an exchange.

    Returns the retained cache and its sources, in cache order.  Expects
    source-unique caches.  The merge keeps the freshest entry per source,
    the owner's own copy on ties.  The test suite pins the result to the
    composition of reference merge and select operations.
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
        # freshest first, ties to the smaller source: a stable sort by
        # timestamp over the entries in source order
        entries = map(merged.__getitem__, sorted(merged))
        kept = sorted(entries, key=_timestamp, reverse=True)[:k]
        return tuple(kept), tuple(map(_src, kept))
    srcs = tuple(sorted(merged, key=protocol.rank[owner].__getitem__)[:k])
    return tuple(map(merged.__getitem__, srcs)), srcs


def _store(state: GossipState, peer: PeerId, cache: Cache, srcs: tuple[PeerId, ...]) -> bool:
    """Install ``peer``'s new cache; True when its ordered sources changed."""
    state.caches[peer] = cache
    if srcs == state.sources[peer]:
        return False
    state.sources[peer] = srcs
    state.version[peer] += 1
    return True


def _admits(
    state: GossipState, owner: PeerId, offered: tuple[PeerId, ...], protocol: ProtocolSpec
) -> bool:
    """False only when retaining ``offered`` leaves ``owner``'s sources as they are.

    Needs a rank table.  A version-0 tuple may be out of rank order, so it
    is always admitted; a later one came from ``_retain``, best first.
    """
    if not state.version[owner]:
        return True
    own = state.sources[owner]
    skip = -1 if protocol.global_view else owner
    row = protocol.rank[owner]
    # a cache with room takes any new source, a full one only a better one
    worst = len(row) if len(own) < protocol.cache_size else row[own[-1]]
    for src in offered:
        if row[src] < worst and src != skip and src not in own:
            return True
    return False


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
    The update is atomic: both peers' caches are replaced together.  The
    caller draws a live responder; liveness is not checked here.

    Under a rank table each side's retained sources are a pure function of
    the two peers and their source sets; timestamps only pick which copy of
    an entry survives, and no output reads them.  So two shortcuts apply,
    both exact as long as a state is exchanged under one protocol:

    - an ordered pair whose last exchange changed no source, and whose
      versions have not moved since, is skipped: it would change nothing
      again;
    - otherwise each side first asks :func:`_admits` whether the other
      side's sources (plus the initiator's id, for the responder under a
      partial view) can change its own, reading only the source tuples and
      one rank row.  A side that cannot change keeps its cache, older
      timestamps included, and runs neither ``_retain`` nor ``_store``.

    Freshest-first selection reads timestamps and takes neither shortcut.
    """
    pushed = state.caches[initiator]
    if protocol.rank is None:
        if not protocol.global_view:
            pushed = pushed + (DataItem(initiator, now),)
        pulled = state.caches[responder]
        _store(state, initiator, *_retain(initiator, pushed, pulled, protocol))
        _store(state, responder, *_retain(responder, pulled, pushed, protocol))
        return
    key = initiator * len(state.caches) + responder
    stamp = (state.version[initiator] << 32) | state.version[responder]
    if state.idle.get(key) == stamp:
        return
    sources = state.sources
    offered = sources[initiator]
    if not protocol.global_view:
        offered = offered + (initiator,)
    to_initiator = _admits(state, initiator, sources[responder], protocol)
    to_responder = _admits(state, responder, offered, protocol)
    changed = False
    if to_initiator or to_responder:
        if not protocol.global_view:
            pushed = pushed + (DataItem(initiator, now),)
        pulled = state.caches[responder]
        if to_initiator:
            changed = _store(state, initiator, *_retain(initiator, pushed, pulled, protocol))
        if to_responder:
            changed |= _store(state, responder, *_retain(responder, pulled, pushed, protocol))
    if changed:
        state.idle.pop(key, None)
    else:
        state.idle[key] = stamp
