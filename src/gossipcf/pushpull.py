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
without one, freshest first.  A rank table implies a partial view.

Alongside each cache the state keeps its sources as one tuple and a
version that moves whenever they do.  Under a rank table the sources an
exchange retains depend on the two source sets alone.  Before any merge,
each side of an exchange asks an admission test whether an offered source
can enter its cache: into a full cache only by outranking its worst entry,
into one with room whenever it is new.  A side that cannot change runs no
merge, and records the bitset of every source that could enter, so that
one AND decides the side until its sources move and :func:`_store` resets
the record.  Both assume a state is exchanged under one protocol, so that
a tuple with ``version > 0`` came from a merge and is in rank order; a
version-0 tuple always merges.  Timestamp orders take neither shortcut;
instead, one merge serves both sides of their exchange.  Both sides merge
the same two caches, and a merge tie is two equal entries, so the two
merged sets are one set in one freshest-first order, from which each side
keeps its first k.

All tie-breaks are deterministic so that seeded runs reproduce exactly:
merge ties keep the merging peer's own copy; freshest-first selection ties
fall back to the smaller source id.  Step-by-step reference versions of
merge and select live with the test suite, which pins :func:`_retain` and
``_cut(_freshest(...))`` to their composition.
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
    engine still leaves it out of the owner's neighborhood.  A rank table
    implies a partial view: ``global_view`` is set only without one.
    """

    cache_size: int
    rank: RankTable | None = None
    global_view: bool = False


@dataclass
class GossipState:
    """Mutable per-peer protocol state shared by all variants.

    ``run_exchange`` mutates exactly the two participants' caches; entries
    themselves are immutable values.  The other fields are derived from the
    caches and kept in step by ``run_exchange``:

    - ``sources[v]``: the tuple of v's cache sources, in cache order.  The
      exchange replaces it only when the ordered sources differ, so an
      unchanged cache keeps the very same tuple object;
    - ``version[v]``: bumped whenever ``sources[v]`` is replaced;
    - under a rank table only, ``admissible[v]`` and ``held[v]``: ``None``,
      or a bitset about v's current sources: :func:`_admissible`'s bits,
      recorded when v's side declines, and bit s per source s of v.
      :func:`_store` resets both to ``None`` where it bumps ``version[v]``.
    """

    caches: list[Cache]
    alive: list[bool]
    sources: list[tuple[PeerId, ...]] = field(init=False)
    version: list[int] = field(init=False)
    admissible: list[int | None] = field(init=False)
    held: list[int | None] = field(init=False)

    def __post_init__(self) -> None:
        self.sources = [tuple(item.src for item in cache) for cache in self.caches]
        self.version = [0] * len(self.caches)
        self.admissible = [None] * len(self.caches)
        self.held = [None] * len(self.caches)


def rank_table(similarity: np.ndarray) -> list[array]:
    """Per peer, every peer's position in its (similarity desc, id asc) order.

    ``rank[v][w]`` is that position of w for v.  Rows are compact
    ``array('i')`` so the table costs four bytes per peer pair.
    """
    sim = np.asarray(similarity, dtype=np.float64)
    n = sim.shape[0]
    rank = np.empty((n, n), dtype=np.int32)
    positions = np.arange(n, dtype=np.int32)[None, :]
    # Blocks of 64 rows keep the temporaries small.  An unstable argsort
    # orders each row by key; inside each run of equal keys, one sort of
    # the int64 composites ``run * n + id`` puts the ids in ascending order.
    for start in range(0, n, 64):
        key = -sim[start : start + 64]
        order = np.argsort(key, axis=1)
        ordered = np.take_along_axis(key, order, axis=1)
        run = np.zeros(order.shape, dtype=np.int64)
        np.cumsum(ordered[:, 1:] != ordered[:, :-1], axis=1, out=run[:, 1:])
        run *= n
        run += order
        run.sort(axis=1)
        np.put_along_axis(rank[start : start + 64], run % n, positions, axis=1)
    return [array("i", row.tobytes()) for row in rank]


def _merge(own: Cache, other: Cache) -> dict[PeerId, DataItem]:
    """The freshest entry per source of two caches, the owner's own copy on ties."""
    merged = {item.src: item for item in other}
    for item in own:
        theirs = merged.get(item.src)
        if theirs is None or item.timestamp >= theirs.timestamp:
            merged[item.src] = item
    return merged


def _freshest(a: Cache, b: Cache) -> list[DataItem]:
    """The merge of two caches, freshest first, ties to the smaller source.

    Symmetric in its arguments: a merge tie is two entries with one source
    and one timestamp, which are equal values.
    """
    merged = _merge(a, b)
    # a stable sort by timestamp over the entries in source order
    return sorted(map(merged.__getitem__, sorted(merged)), key=_timestamp, reverse=True)


def _cut(
    order: list[DataItem], owner: PeerId, protocol: ProtocolSpec
) -> tuple[Cache, tuple[PeerId, ...]]:
    """The first k entries of ``order`` that ``owner`` retains, and their sources.

    Under a partial view the owner's own entry is dropped first.
    """
    k = protocol.cache_size
    kept = order[: k + 1]
    srcs = list(map(_src, kept))
    if not protocol.global_view and owner in srcs:
        at = srcs.index(owner)
        del kept[at], srcs[at]
    else:
        del kept[k:], srcs[k:]
    return tuple(kept), tuple(srcs)


def _retain(
    owner: PeerId, own: Cache, other: Cache, protocol: ProtocolSpec
) -> tuple[Cache, tuple[PeerId, ...]]:
    """Merge, own-entry filter and rank-table select for one side of an exchange.

    Returns the retained cache and its sources, in cache order.  Expects
    source-unique caches.  The merge keeps the freshest entry per source,
    the owner's own copy on ties.  The test suite pins the result to the
    composition of reference merge and select operations.
    """
    merged = _merge(own, other)
    merged.pop(owner, None)
    srcs = tuple(sorted(merged, key=protocol.rank[owner].__getitem__)[: protocol.cache_size])
    return tuple(map(merged.__getitem__, srcs)), srcs


def _store(state: GossipState, peer: PeerId, cache: Cache, srcs: tuple[PeerId, ...]) -> None:
    """Install ``peer``'s new cache, and when its ordered sources changed, a new
    version and no admission memos: they described the old sources."""
    state.caches[peer] = cache
    if srcs != state.sources[peer]:
        state.sources[peer] = srcs
        state.version[peer] += 1
        state.admissible[peer] = state.held[peer] = None


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
    row = protocol.rank[owner]
    # a cache with room takes any new source, a full one only a better one
    worst = len(row) if len(own) < protocol.cache_size else row[own[-1]]
    for src in offered:
        if row[src] < worst and src != owner and src not in own:
            return True
    return False


def _held(state: GossipState, peer: PeerId) -> int:
    """``peer``'s sources as a bitset, bit s for source s, built once per version."""
    bits = state.held[peer]
    if bits is None:
        bits = 0
        for src in state.sources[peer]:
            bits |= 1 << src
        state.held[peer] = bits
    return bits


def _admissible(state: GossipState, owner: PeerId, protocol: ProtocolSpec) -> int:
    """Bit s per source s neither held nor ``owner`` that, in a full cache, ranks before
    its worst entry: on rank-ordered sources, ``bits & offered`` decides as :func:`_admits`."""
    own = state.sources[owner]
    row = np.asarray(protocol.rank[owner], dtype=np.int32)
    better = row < row[own[-1]] if len(own) == protocol.cache_size else np.ones(len(row), bool)
    bits = int.from_bytes(np.packbits(better, bitorder="little").tobytes(), "little")
    return bits & ~(_held(state, owner) | 1 << owner)


def _can_change(
    state: GossipState, owner: PeerId, partner: PeerId, pushes: bool, protocol: ProtocolSpec
) -> bool:
    """Whether ``partner``'s sources (and id, if it ``pushes`` it) can change ``owner``'s:
    by the bitset recorded since ``owner``'s sources last moved, else by :func:`_admits`."""
    bits = state.admissible[owner]
    if bits is not None:
        return bits & (_held(state, partner) | pushes << partner) != 0
    if _admits(state, owner, state.sources[partner] + (partner,) * pushes, protocol):
        return True
    state.admissible[owner] = _admissible(state, owner, protocol)
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
    an entry survives, and no output reads them.  So each side first asks
    whether the other side's sources (plus the initiator's id, for the
    responder) can change its own, exactly as long as a state is exchanged
    under one protocol: by one AND with the bitset recorded since its
    sources last moved, else by :func:`_admits`, which reads only the source tuples and one rank
    row and records that bitset when it declines.  A side that cannot change
    keeps its cache, older timestamps included, and runs neither ``_retain``
    nor ``_store``.

    Freshest-first selection reads timestamps and takes neither shortcut.
    It merges once for both sides instead: :func:`_freshest` orders the
    union, and each side keeps its first k entries less its own.  Under a
    global view the two sides store the same tuple.
    """
    pushed = state.caches[initiator]
    if protocol.rank is None:
        if not protocol.global_view:
            pushed = pushed + (DataItem(initiator, now),)
        order = _freshest(pushed, state.caches[responder])
        kept = _cut(order, initiator, protocol)
        _store(state, initiator, *kept)
        if not protocol.global_view:
            kept = _cut(order, responder, protocol)
        _store(state, responder, *kept)
        return
    to_initiator = _can_change(state, initiator, responder, False, protocol)
    to_responder = _can_change(state, responder, initiator, True, protocol)
    if to_initiator or to_responder:
        pushed = pushed + (DataItem(initiator, now),)
        pulled = state.caches[responder]
        if to_initiator:
            _store(state, initiator, *_retain(initiator, pushed, pulled, protocol))
        if to_responder:
            _store(state, responder, *_retain(responder, pulled, pushed, protocol))
