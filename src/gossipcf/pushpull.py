"""The epidemic push-pull protocol, in all three of its variants.

Every peer keeps a bounded cache, at most one entry per source peer, and
periodically exchanges its cache with one neighbor.  After the push/pull
both sides run, each from its *own* perspective, the two exchangeable
steps:

    merge      -> one entry per source of the two caches
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

A cache is the tuple of its sources.  Only a freshest-first order reads
when an entry was created, so only it keeps a parallel tuple of stamps,
and its merge keeps the fresher stamp per source.  Under a rank table the
sources an exchange retains depend on the two source sets alone, and one
rule decides each side: it merges, unless a recorded bitset declines.  A
side whose merge leaves its sources as they are records the bitset of
every source that could enter its cache: into a full one only by
outranking its worst entry, into one with room whenever it is new.  Until
its sources move, one AND of that bitset with the offered sources decides
the side without a merge.  A bitset is recorded only for a tuple that
equals its own merge, so that tuple is in rank order and the AND is exact
on it, as long as a state is exchanged under one protocol.  A tuple out of
rank order, as a bootstrap or hand-built state may hold, merges and is
reordered.  Timestamp orders take no shortcut; instead, one merge serves
both sides of their exchange.  Both sides merge the same two caches, and a
merge tie is two equal entries, so the two merged sets are one set in one
freshest-first order, from which each side keeps its first k.

All tie-breaks are deterministic so that seeded runs reproduce exactly: a
rank row orders every source, and freshest-first selection ties fall back
to the smaller source id.  Step-by-step reference versions of merge and
select live with the test suite, which pins :func:`_retain` and
``_cut(_freshest(...))`` to their composition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

import numpy as np

PeerId = int
Timestamp = int


class DataItem(NamedTuple):
    """One cache entry as :attr:`GossipState.caches` shows it: the peer
    ``src`` it is about, and when it was created (0 under a rank table)."""

    src: PeerId
    timestamp: Timestamp


# A cache as readers outside the protocol see it; selection enforces capacity.
Cache = tuple[DataItem, ...]
Sources = tuple[PeerId, ...]
Stamps = tuple[Timestamp, ...]
Pair = tuple[PeerId, Timestamp]

# A rank table: rank[v][w] is w's position in v's order of preference.
RankTable = Sequence[Sequence[int]]

_src, _stamp = itemgetter(0), itemgetter(1)


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
    """Per-peer protocol state; ``run_exchange`` replaces only its two participants' entries:

    - ``sources[v]``: v's cache, the tuple of its sources in cache order.
      The exchange replaces it only when the ordered sources differ, so an
      unchanged cache keeps the very same tuple object;
    - ``stamps[v]``: without a rank table only (``stamps`` is ``None`` under
      one), each entry's creation time, parallel to ``sources[v]``;
    - under a rank table only, ``admissible[v]`` and ``held[v]``: ``None``,
      or a bitset about v's current sources: :func:`_admissible`'s bits,
      recorded when a merge leaves v's sources as they are, and bit s per
      source s of v.  Both are reset to ``None`` where ``sources[v]`` is
      replaced.
    """

    sources: list[Sources]
    stamps: list[Stamps] | None = None
    admissible: list[int | None] = field(init=False)
    held: list[int | None] = field(init=False)

    def __post_init__(self) -> None:
        n = len(self.sources)
        self.admissible, self.held = [None] * n, [None] * n

    @property
    def caches(self) -> Sequence[Cache]:
        """A read-only view for readers outside the protocol: ``caches[v]`` is
        v's cache as entries, built afresh from ``sources`` and ``stamps``."""
        return _CacheView(self)


class _CacheView(Sequence[Cache]):
    def __init__(self, state: GossipState) -> None:
        self._state = state

    def __len__(self) -> int:
        return len(self._state.sources)

    def __getitem__(self, v: PeerId) -> Cache:
        srcs, stamps = self._state.sources[v], self._state.stamps
        return tuple(map(DataItem, srcs, stamps[v] if stamps else (0,) * len(srcs)))


def rank_table(similarity: np.ndarray) -> list[memoryview]:
    """Per peer, every peer's position in its (similarity desc, id asc) order.

    ``rank[v][w]`` is that position of w for v.  Row v is a memoryview of
    row v of one n-by-n int32 matrix: the table costs four bytes per peer
    pair, and ``np.asarray`` of a row copies nothing.
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
    return [memoryview(row) for row in rank]


def _freshest(a: Iterable[Pair], b: Iterable[Pair]) -> list[Pair]:
    """The merge of two caches' ``(src, stamp)`` pairs: the fresher stamp per
    source, freshest first, ties to the smaller source.

    Symmetric in its arguments: a merge tie is two equal pairs.
    """
    merged = dict(a)
    for src, stamp in b:
        if stamp > merged.get(src, -1):
            merged[src] = stamp
    # a stable sort by stamp over the pairs in source order
    return sorted(sorted(merged.items()), key=_stamp, reverse=True)


def _cut(order: list[Pair], owner: PeerId, protocol: ProtocolSpec) -> tuple[Sources, Stamps]:
    """The sources and stamps of the first k pairs of ``order`` that ``owner``
    retains.  Under a partial view the owner's own pair is dropped first."""
    k = protocol.cache_size
    kept = order[: k + 1]
    srcs = list(map(_src, kept))
    at = srcs.index(owner) if not protocol.global_view and owner in srcs else k
    del kept[at : at + 1], srcs[at : at + 1]
    return tuple(srcs), tuple(map(_stamp, kept))


def _retain(owner: PeerId, own: Sources, other: Sources, protocol: ProtocolSpec) -> Sources:
    """One side of a rank-table exchange: the first k sources of the union of
    ``own`` and ``other``, less ``owner``, in ``rank[owner]`` order.  The
    test suite pins it to the composition of reference merge and select."""
    union = {*own, *other}
    union.discard(owner)
    return tuple(sorted(union, key=protocol.rank[owner].__getitem__)[: protocol.cache_size])


def _store(state: GossipState, peer: PeerId, srcs: Sources, stamps: Stamps) -> None:
    """Install ``peer``'s new freshest-first cache: its stamps, and its sources
    when their order changed, so that an unchanged cache keeps its tuple."""
    state.stamps[peer] = stamps
    if srcs != state.sources[peer]:
        state.sources[peer] = srcs


def _held(state: GossipState, peer: PeerId) -> int:
    """``peer``'s sources as a bitset, bit s for source s, built once per tuple of sources."""
    bits = state.held[peer]
    if bits is None:
        bits = 0
        for src in state.sources[peer]:
            bits |= 1 << src
        state.held[peer] = bits
    return bits


def _admissible(state: GossipState, owner: PeerId, protocol: ProtocolSpec) -> int:
    """Bit s per source s neither held nor ``owner`` that, in a full cache, ranks before
    its worst entry: on rank-ordered sources, ``bits & offered`` is nonzero exactly
    when retaining ``offered`` changes them."""
    own = state.sources[owner]
    row = np.asarray(protocol.rank[owner], dtype=np.int32)
    better = row < row[own[-1]] if len(own) == protocol.cache_size else np.ones(len(row), bool)
    bits = int.from_bytes(np.packbits(better, bitorder="little").tobytes(), "little")
    return bits & ~(_held(state, owner) | 1 << owner)


def _merged(
    state: GossipState, owner: PeerId, partner: PeerId, pushes: bool, protocol: ProtocolSpec
) -> Sources | None:
    """``owner``'s sources once it retains ``partner``'s (and ``partner``, if it ``pushes``
    its id), or None when they stay as they are.

    None without a merge when the bitset recorded since ``owner``'s sources
    last moved misses every offered source; a merge that keeps them records it.
    """
    bits = state.admissible[owner]
    if bits is not None and not bits & (_held(state, partner) | pushes << partner):
        return None
    own = state.sources[owner]
    merged = _retain(owner, own, state.sources[partner] + (partner,) * pushes, protocol)
    if merged == own:
        state.admissible[owner] = _admissible(state, owner, protocol)
        return None
    return merged


def run_exchange(
    state: GossipState,
    initiator: PeerId,
    responder: PeerId,
    protocol: ProtocolSpec,
    now: Timestamp,
) -> None:
    """One push-pull session between ``initiator`` and ``responder``.

    Under a partial view the initiator adds a fresh entry about itself,
    stamped ``now``, to the cache it pushes; each side then merges, filters
    and selects from its own perspective.  Both peers' caches are replaced
    together.  The caller draws a live responder; liveness is not checked.

    Under a rank table each side's retained sources are a pure function of
    the two peers and their source sets, and no stamp is kept.  Each side
    merges the other side's sources (plus the initiator's id, for the
    responder) unless the bitset recorded since its own sources last moved
    declines them; both decide before either stores, and a side whose
    sources change gets the new tuple and no bitsets.

    Freshest-first selection reads stamps and takes no shortcut.  It merges
    once for both sides instead: :func:`_freshest` orders the union's
    ``(src, stamp)`` pairs, and each side keeps its first k less its own.
    Under a global view the two sides store the same tuples.
    """
    sources = state.sources
    if protocol.rank is None:
        stamps = state.stamps
        pushed = list(zip(sources[initiator], stamps[initiator]))
        if not protocol.global_view:
            pushed.append((initiator, now))
        order = _freshest(pushed, zip(sources[responder], stamps[responder]))
        kept = _cut(order, initiator, protocol)
        _store(state, initiator, *kept)
        if not protocol.global_view:
            kept = _cut(order, responder, protocol)
        _store(state, responder, *kept)
        return
    to_initiator = _merged(state, initiator, responder, False, protocol)
    to_responder = _merged(state, responder, initiator, True, protocol)
    if to_initiator is not None:
        sources[initiator] = to_initiator
        state.admissible[initiator] = state.held[initiator] = None
    if to_responder is not None:
        sources[responder] = to_responder
        state.admissible[responder] = state.held[responder] = None
