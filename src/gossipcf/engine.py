"""Deterministic cycle-driven overlay simulation.

A run bootstraps a weakly connected, intentionally unbalanced random overlay,
then executes protocol cycles: every live peer, in per-cycle shuffled order,
initiates one push-pull exchange with a uniformly random live member of its
cache and immediately afterwards has its top-N recommendations computed from
its (possibly just updated) cache.  A top-N row is a pure function of the
cache's source set, so a peer's row is recomputed only when an exchange has
changed that set since the peer last ranked.  Churn is injected once, at the
start of a configured cycle, by silencing a uniform sample of live peers;
their cache entries linger in other peers' caches until displaced by
selection pressure.

Everything is driven by one numpy Generator, so the full snapshot sequence is
a pure function of the configuration (seed included) and the training data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .pushpull import Cache, DataItem, GossipState, ProtocolSpec, join, rank_table, run_exchange
from .recommend import TrainingArrays, tally_votes, top_n_from_votes

PROTOCOLS = ("swarmix", "newscast", "anti-entropy")
CHURN_MODES = ("failures", "leavings")
DEFAULT_CHURN_PERCENTAGES = (5.0, 10.0, 20.0, 40.0, 60.0, 80.0)


class InvalidConfig(Exception):
    """A simulation or experiment configuration failed validation."""


@dataclass(frozen=True)
class ChurnSpec:
    """One disturbance: silence pct% of live peers at the start of a cycle.

    Failures and voluntary leavings are mechanically identical; the mode only
    decides whether the silenced peers are flagged as having left, which in
    turn decides how hit rates account for them.
    """

    mode: str = "failures"
    pct: float = 0.0
    at_cycle: int = 50

    def validate(self, cycles: int) -> None:
        if self.mode not in CHURN_MODES:
            raise InvalidConfig(f"unknown churn mode: {self.mode!r}")
        if not 0.0 <= self.pct <= 100.0:
            raise InvalidConfig(f"churn pct {self.pct!r} outside [0, 100]")
        if not 1 <= self.at_cycle <= cycles:
            raise InvalidConfig(
                f"churn cycle {self.at_cycle} outside run of {cycles} cycles"
            )


def churn_count(pct: float, n_peers: int) -> int:
    """Peers a pct% disturbance silences: floor(pct/100 * n) of the configured n."""
    return int(pct / 100.0 * n_peers)


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one simulation run (defaults follow the evaluated setup)."""

    n_peers: int
    cache_size: int = 20
    cycles: int = 100
    seed: int = 0
    protocol: str = "swarmix"
    churn: ChurnSpec | None = None
    top_n: int = 10
    significance_threshold: int = 50
    bootstrap_degree: float = 2.494

    def validate(self) -> None:
        if self.n_peers < 2:
            raise InvalidConfig("n_peers must be at least 2")
        if self.cache_size < 1:
            raise InvalidConfig("cache_size must be positive")
        if self.cycles < 1:
            raise InvalidConfig("cycles must be positive")
        if self.seed < 0:
            raise InvalidConfig("seed must be non-negative")
        if self.protocol not in PROTOCOLS:
            raise InvalidConfig(f"unknown protocol: {self.protocol!r}")
        if self.top_n < 1:
            raise InvalidConfig("top_n must be positive")
        if self.significance_threshold < 1:
            raise InvalidConfig("significance_threshold must be positive")
        if not 1.0 <= self.bootstrap_degree < self.cache_size:
            raise InvalidConfig(
                "bootstrap_degree must satisfy 1 <= degree < cache_size"
            )
        if self.churn is not None:
            self.churn.validate(self.cycles)
            if churn_count(self.churn.pct, self.n_peers) >= self.n_peers:
                raise InvalidConfig(
                    f"churn of {self.churn.pct!r}% would silence all "
                    f"{self.n_peers} peers"
                )


@dataclass
class CycleSnapshot:
    """State of the overlay at the end of one cycle.

    ``neighbor_ids[v]`` are the sources in v's cache, in selection order;
    ``cache_sim_mean[v]`` is v's mean similarity to those sources (NaN for an
    empty cache).  Recommendation rows are padded with -1 item ids.
    """

    cycle: int
    neighbor_ids: list[np.ndarray]
    cache_sim_mean: np.ndarray
    rec_items: np.ndarray
    rec_votes: np.ndarray
    alive: np.ndarray
    left: np.ndarray
    receptions: np.ndarray
    skipped: int


@dataclass
class SimState:
    """Mutable state of a running simulation.

    The ranking memo is ``rec_items``/``rec_votes``, each peer's latest top-N
    row, plus ``stale[v]``, set when an exchange changes v's cache sources
    and cleared when v is ranked again.
    """

    config: SimConfig
    gossip: GossipState
    left: list[bool]
    arrays: TrainingArrays
    protocol: ProtocolSpec
    rng: np.random.Generator
    cycle: int = 0
    rec_items: np.ndarray | None = None
    rec_votes: np.ndarray | None = None
    stale: bytearray | None = None

    @property
    def n(self) -> int:
        return self.config.n_peers


def _random_tree_edges(n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Uniformly random labelled spanning tree (Pruefer decode)."""
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


def bootstrap_topology(
    n: int,
    target_avg_degree: float,
    cache_size: int,
    rng: np.random.Generator,
    participants: list[int] | None = None,
) -> list[list[int]]:
    """Initial directed overlay: connected, unbalanced, caches not full.

    A uniform random spanning tree (oriented both ways) guarantees weak
    connectivity; additional random directed edges are added until the mean
    out-degree over participants reaches the target.  No peer's cache is
    filled: out-degrees stay strictly below the cache size.
    """
    if n < 2:
        raise InvalidConfig("need at least two peers")
    if not 1.0 <= target_avg_degree < cache_size:
        raise InvalidConfig("target degree must satisfy 1 <= degree < cache_size")
    members = list(range(n)) if participants is None else sorted(participants)
    m = len(members)
    if m < 2:
        raise InvalidConfig("need at least two participating peers")

    out: list[set[int]] = [set() for _ in range(n)]
    for a, b in _random_tree_edges(m, rng):
        u, v = members[a], members[b]
        out[u].add(v)
        out[v].add(u)

    budget = int(round(target_avg_degree * m))
    existing = sum(len(s) for s in out)
    attempts = 0
    limit = 200 * max(budget, 1)
    while existing < budget:
        attempts += 1
        if attempts > limit:
            raise InvalidConfig("could not reach target bootstrap degree")
        u = members[int(rng.integers(m))]
        v = members[int(rng.integers(m))]
        if u == v or v in out[u] or len(out[u]) >= cache_size - 1:
            continue
        out[u].add(v)
        existing += 1
    return [sorted(s) for s in out]


def make_protocol(config: SimConfig, arrays: TrainingArrays) -> ProtocolSpec:
    """The push-pull configuration of ``config.protocol``.

    swarmix keeps the sources most similar to the owner (a rank table built
    from the training similarity); newscast keeps the freshest entries of a
    partial view; anti-entropy keeps the freshest entries with a global view.
    """
    if config.protocol == "swarmix":
        return ProtocolSpec(config.cache_size, rank=rank_table(arrays.similarity))
    return ProtocolSpec(config.cache_size, global_view=config.protocol == "anti-entropy")


def bootstrap(
    config: SimConfig,
    arrays: TrainingArrays,
    rng: np.random.Generator,
    holdout: frozenset[int] = frozenset(),
) -> SimState:
    """Build the cycle-0 simulation state.

    ``holdout`` peers are kept out of the initial overlay (cache empty, not
    alive) so tests can exercise late joins; the default is everyone in.
    """
    n = config.n_peers
    if arrays.similarity.shape[0] != n:
        raise InvalidConfig(
            f"config expects {n} peers but training data has "
            f"{arrays.similarity.shape[0]} users"
        )
    participants = [p for p in range(n) if p not in holdout]
    topology = bootstrap_topology(
        n, config.bootstrap_degree, config.cache_size, rng, participants
    )
    caches = [tuple(DataItem(u, 0) for u in topology[v]) for v in range(n)]
    alive = [p not in holdout for p in range(n)]
    gossip = GossipState(caches=caches, alive=alive)
    protocol = make_protocol(config, arrays)
    return SimState(
        config=config,
        gossip=gossip,
        left=[False] * n,
        arrays=arrays,
        protocol=protocol,
        rng=rng,
        rec_items=np.full((n, config.top_n), -1, dtype=np.int64),
        rec_votes=np.zeros((n, config.top_n), dtype=np.int32),
        stale=bytearray(b"\x01" * n),
    )


def inject_churn(state: SimState, spec: ChurnSpec) -> list[int]:
    """Silence a uniform sample of live peers; returns the silenced ids.

    Sample size is floor(pct/100 * n) over the configured peer count.  The
    sampled set depends only on the rng stream, not on the mode, so failure
    and leaving runs with one seed silence identical peers.
    """
    count = churn_count(spec.pct, state.n)
    if count == 0:
        return []
    alive_ids = [p for p in range(state.n) if state.gossip.alive[p]]
    if count > len(alive_ids):
        raise InvalidConfig("churn would remove more peers than are alive")
    chosen = state.rng.choice(len(alive_ids), size=count, replace=False)
    silenced = sorted(alive_ids[int(i)] for i in chosen)
    leaving = spec.mode == "leavings"
    for p in silenced:
        state.gossip.alive[p] = False
        if leaving:
            state.left[p] = True
    return silenced


def _sources_changed(before: Cache, after: Cache) -> bool:
    old = [item.src for item in before]
    new = [item.src for item in after]
    return old != new and set(old) != set(new)


def _rank(state: SimState, peer: int) -> None:
    """Bring ``peer``'s memoised top-N row up to date with its cache."""
    if not state.stale[peer]:
        return
    state.stale[peer] = 0
    arrays = state.arrays
    votes = tally_votes(arrays, [item.src for item in state.gossip.caches[peer]])
    ranked = top_n_from_votes(
        votes, arrays.rated_cols[peer], state.config.top_n, arrays.item_ids
    )
    items, counts = state.rec_items[peer], state.rec_votes[peer]
    items.fill(-1)
    counts.fill(0)
    for j, (item, count) in enumerate(ranked):
        items[j] = item
        counts[j] = count


def _take_snapshot(
    state: SimState, receptions: np.ndarray, skipped: int,
    rec_items: np.ndarray, rec_votes: np.ndarray,
) -> CycleSnapshot:
    n = state.n
    caches = state.gossip.caches
    counts = np.array([len(caches[v]) for v in range(n)], dtype=np.int64)
    total = int(counts.sum())
    owners = np.repeat(np.arange(n), counts)
    flat = np.fromiter(
        (item.src for v in range(n) for item in caches[v]),
        dtype=np.int64,
        count=total,
    )
    sims = state.arrays.similarity[owners, flat] if total else np.zeros(0)
    sums = np.bincount(owners, weights=sims, minlength=n)
    with np.errstate(invalid="ignore"):
        mean = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    neighbor_ids = []
    pos = 0
    for v in range(n):
        neighbor_ids.append(flat[pos : pos + counts[v]].copy())
        pos += counts[v]
    return CycleSnapshot(
        cycle=state.cycle,
        neighbor_ids=neighbor_ids,
        cache_sim_mean=mean,
        rec_items=rec_items,
        rec_votes=rec_votes,
        alive=np.array(state.gossip.alive, dtype=bool),
        left=np.array(state.left, dtype=bool),
        receptions=receptions,
        skipped=skipped,
    )


def _rec_rows(state: SimState, ranked: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """This cycle's recommendation rows: the memo for ``ranked`` peers, else padding."""
    rec_items = np.full(state.rec_items.shape, -1, dtype=np.int64)
    rec_votes = np.zeros(state.rec_votes.shape, dtype=np.int32)
    rec_items[ranked] = state.rec_items[ranked]
    rec_votes[ranked] = state.rec_votes[ranked]
    return rec_items, rec_votes


def run_cycle(state: SimState) -> CycleSnapshot:
    """Advance the simulation by one full cycle and snapshot the result."""
    state.cycle += 1
    n = state.n
    gossip = state.gossip
    caches = gossip.caches
    alive = gossip.alive
    rng = state.rng
    stale = state.stale
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
            candidates = [item.src for item in caches[p] if alive[item.src]]
            count = len(candidates)
            if count:
                w = candidates[int(rng.integers(count))]
        if count:
            before_p, before_w = caches[p], caches[w]
            run_exchange(gossip, p, w, state.protocol, now=state.cycle)
            if _sources_changed(before_p, caches[p]):
                stale[p] = 1
            if _sources_changed(before_w, caches[w]):
                stale[w] = 1
            receptions[w] += 1
        else:
            skipped += 1
        _rank(state, p)
    rec_items, rec_votes = _rec_rows(state, participants)
    return _take_snapshot(state, receptions, skipped, rec_items, rec_votes)


def run_simulation(
    config: SimConfig,
    arrays: TrainingArrays,
    seed_seq: np.random.SeedSequence | None = None,
    holdout: frozenset[int] = frozenset(),
) -> Iterator[CycleSnapshot]:
    """Bootstrap and run all cycles, yielding cycles+1 snapshots.

    The first snapshot is the bootstrap state (cycle 0) with recommendations
    computed from the initial caches.  Churn, when configured, is injected at
    the start of its cycle.
    """
    config.validate()
    if seed_seq is None:
        seed_seq = np.random.SeedSequence(config.seed)
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    state = bootstrap(config, arrays, rng, holdout)

    receptions = np.zeros(state.n, dtype=np.int32)
    participants = np.flatnonzero(np.asarray(state.gossip.alive, dtype=bool))
    for p in participants.tolist():
        _rank(state, p)
    rec_items, rec_votes = _rec_rows(state, participants)
    yield _take_snapshot(state, receptions, 0, rec_items, rec_votes)

    for cycle in range(1, config.cycles + 1):
        if config.churn is not None and cycle == config.churn.at_cycle:
            inject_churn(state, config.churn)
        yield run_cycle(state)


def join_peer(state: SimState, new_peer: int, buddy: int) -> None:
    """Wire a held-out peer into a running simulation via one buddy."""
    join(state.gossip, new_peer, buddy, now=state.cycle)
    state.stale[new_peer] = 1
