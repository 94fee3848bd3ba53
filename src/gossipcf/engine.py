"""Deterministic cycle-driven overlay simulation.

A run bootstraps a weakly connected, intentionally unbalanced random overlay,
then executes protocol cycles: every live peer, in per-cycle shuffled order,
initiates one push-pull exchange with a uniformly random live member of its
cache and immediately afterwards has its top-N recommendations computed from
its (possibly just updated) cache.  A top-N row is a pure function of the
cache's source set, so a peer's row is recomputed only when that set differs
from the sources the peer last ranked.  Churn is injected once, at the
start of a configured cycle, by silencing a uniform sample of live peers;
their cache entries linger in other peers' caches until displaced by
selection pressure.

A turn's partner is ``candidates[j]`` for an index j drawn uniformly below
the candidate count.  When every turn's count is fixed before the cycle
starts, all of the cycle's indices are drawn in one call: under a global
view the candidates are every live peer but the initiator, and under a
partial view, when every peer is alive and every cache is full, they are
the initiator's k cached sources.  The second case holds because a
partial-view exchange never shrinks a cache: each side keeps
min(k, |union - owner|) sources, no fewer than it held, and a side that
declines keeps its cache.  NumPy's ``integers(c, size=t)`` gives the values
of t scalar ``integers(c)`` calls and leaves the generator in the same
state, so the two ways of drawing yield the same run; the test suite pins
that equivalence and the invariant.

Everything is driven by one numpy Generator, so the full snapshot sequence is
a pure function of the configuration (seed included) and the training data.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterator

import numpy as np

from .pushpull import GossipState, ProtocolSpec, rank_table, run_exchange
from .recommend import TrainingArrays, tally_votes, top_n_from_votes

PROTOCOLS = ("swarmix", "newscast", "anti-entropy")
CHURN_MODES = ("failures", "leavings")


class InvalidConfig(Exception):
    """A simulation or experiment configuration failed validation."""


@dataclass(frozen=True)
class ChurnSpec:
    """One disturbance: silence pct% of the peers at the start of a cycle.

    Failures and voluntary leavings are mechanically identical; the mode only
    decides whether the snapshots flag the silenced peers as having left,
    which in turn decides how hit rates account for them.
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
    """Peers a pct% disturbance silences: floor(pct * n / 100) of the configured n."""
    return int(pct * n_peers / 100)


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one simulation run (defaults follow the evaluated setup).

    A config validates itself on construction, ``dataclasses.replace``
    included, so every ``SimConfig`` in hand is a valid one.
    """

    n_peers: int
    cache_size: int = 20
    cycles: int = 100
    seed: int = 0
    protocol: str = "swarmix"
    churn: ChurnSpec | None = None
    top_n: int = 10
    significance_threshold: int = 50
    bootstrap_degree: float = 2.494

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.n_peers < 2:
            raise InvalidConfig("n_peers must be at least 2")
        if self.cache_size < 1:
            raise InvalidConfig("cache_size must be positive")
        if self.cache_size >= self.n_peers:
            # A neighborhood never holds its owner: at most n - 1 peers.
            raise InvalidConfig(
                f"cache_size {self.cache_size} must be below the {self.n_peers} peers"
            )
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

    Neighborhoods are stored in CSR layout: v's neighborhood is
    ``neighbors[indptr[v]:indptr[v + 1]]``, the sources in v's cache other
    than v itself, in selection order.  Only a global-view cache may keep
    v's own entry, and only there does the snapshot drop it; a partial-view
    cache is taken as it is, so the strict checker sees any self entry.
    ``cache_sim_mean[v]`` is v's mean similarity to those sources (NaN for an
    empty neighborhood).  Recommendation rows hold training columns of
    ``item_ids`` and their votes, padded with column -1 and vote 0; a
    silenced peer's row is all padding.  ``left`` flags the silenced
    peers under a ``"leavings"`` churn and no peer under ``"failures"`` or
    without churn.
    """

    cycle: int
    indptr: np.ndarray
    neighbors: np.ndarray
    cache_sim_mean: np.ndarray
    item_ids: np.ndarray
    rec_cols: np.ndarray
    rec_votes: np.ndarray
    alive: np.ndarray
    left: np.ndarray
    receptions: np.ndarray
    skipped: int

    @property
    def rec_items(self) -> np.ndarray:
        """The recommended item ids, padded with -1, for readers outside the library."""
        return np.where(self.rec_cols >= 0, self.item_ids[self.rec_cols], -1)

    @property
    def neighbor_ids(self) -> list[np.ndarray]:
        """Per-peer views of ``neighbors``, for readers outside the library."""
        return np.split(self.neighbors, self.indptr[1:-1])


@dataclass
class SimState:
    """Mutable state of a running simulation, built by ``bootstrap``.

    ``alive`` flags the peers churn has not silenced; whether they left or
    failed is ``config.churn.mode``.  The engine draws only live partners,
    so the protocol never reads liveness.

    The ranking memo is ``rec_cols``/``rec_votes``, each peer's latest top-N
    row of training columns and votes, keyed by ``ranked[v]``: the tuple
    ``gossip.sources[v]`` held when v's row was last brought up to date,
    ``None`` before v is first ranked.  A silenced peer's row is padding.
    While v's sources stay unchanged, ``gossip.sources[v]`` is that very
    tuple object, so the check is one identity test.
    """

    config: SimConfig
    gossip: GossipState
    alive: list[bool]
    arrays: TrainingArrays
    protocol: ProtocolSpec
    rng: np.random.Generator
    rec_cols: np.ndarray
    rec_votes: np.ndarray
    ranked: list[tuple[int, ...] | None]
    cycle: int = 0

    @property
    def n(self) -> int:
        return self.config.n_peers


def _random_tree_edges(n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Uniformly random labelled spanning tree on n >= 2 peers (Pruefer decode).

    Each entry of a uniform Pruefer sequence of n - 2 draws is joined to the
    smallest current leaf; the last two leaves are joined to each other.
    """
    seq = rng.integers(0, n, size=n - 2).tolist()
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]  # ascending, so a heap
    edges: list[tuple[int, int]] = []
    for x in seq:
        edges.append((heapq.heappop(leaves), x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((min(leaves), max(leaves)))
    return edges


def bootstrap_topology(
    n: int,
    target_avg_degree: float,
    cache_size: int,
    rng: np.random.Generator,
) -> list[list[int]]:
    """Initial directed overlay: connected, unbalanced, caches within capacity.

    A uniform random spanning tree (oriented both ways) guarantees weak
    connectivity; additional random directed edges are added until the mean
    out-degree reaches the target.  The extra edges fill no cache: they go
    only to peers whose out-degree is below ``cache_size - 1``.  The tree is
    not capped and may fill a cache; one that gives some peer more than
    ``cache_size`` sources is a config error.  The bounds on n and the
    degree are ``SimConfig``'s.
    """
    out: list[set[int]] = [set() for _ in range(n)]
    for u, v in _random_tree_edges(n, rng):
        out[u].add(v)
        out[v].add(u)
    degree, peer = max((len(s), v) for v, s in enumerate(out))
    if degree > cache_size:
        raise InvalidConfig(
            f"the bootstrap tree gives peer {peer} {degree} sources, more than "
            f"cache_size {cache_size}"
        )

    budget = int(round(target_avg_degree * n))
    existing = sum(len(s) for s in out)
    attempts = 0
    limit = 200 * max(budget, 1)
    while existing < budget:
        attempts += 1
        if attempts > limit:
            raise InvalidConfig("could not reach target bootstrap degree")
        u = int(rng.integers(n))
        v = int(rng.integers(n))
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
) -> SimState:
    """Build the cycle-0 simulation state: every peer alive, in the overlay."""
    n = config.n_peers
    if arrays.similarity.shape[0] != n:
        raise InvalidConfig(
            f"config expects {n} peers but training data has "
            f"{arrays.similarity.shape[0]} users"
        )
    topology = bootstrap_topology(n, config.bootstrap_degree, config.cache_size, rng)
    protocol = make_protocol(config, arrays)
    # Only a freshest-first order reads stamps; the bootstrap stamps 0.
    stamps = [(0,) * len(own) for own in topology] if protocol.rank is None else None
    return SimState(
        config=config,
        gossip=GossipState(list(map(tuple, topology)), stamps),
        alive=[True] * n,
        arrays=arrays,
        protocol=protocol,
        rng=rng,
        rec_cols=np.full((n, config.top_n), -1, dtype=np.int32),
        rec_votes=np.zeros((n, config.top_n), dtype=np.int32),
        ranked=[None] * n,
    )


def inject_churn(state: SimState) -> None:
    """Silence a uniform sample of ``churn_count`` peers, per ``config.churn``.

    A run injects its one churn before any peer is silenced, so the sample
    is drawn from all n peers.  The sample depends on the rng stream alone,
    not on the mode, so failure and leaving runs with one seed silence
    identical peers.  A silenced peer is never ranked again, so its memo
    row becomes padding here, as every later snapshot shows it.
    """
    count = churn_count(state.config.churn.pct, state.n)
    if count == 0:
        return
    silenced = state.rng.choice(state.n, size=count, replace=False)
    for p in silenced.tolist():
        state.alive[p] = False
    state.rec_cols[silenced] = -1
    state.rec_votes[silenced] = 0


def _rank(state: SimState, peer: int) -> None:
    """Bring ``peer``'s memoised top-N row up to date with its cache.

    Callers skip a peer whose sources are still the tuple it last ranked.
    """
    sources = state.gossip.sources[peer]
    last = state.ranked[peer]
    state.ranked[peer] = sources
    if last is not None and set(sources) == set(last):
        return
    arrays = state.arrays
    votes = tally_votes(arrays, sources)
    # A source casts at most one vote per column.
    state.rec_cols[peer], state.rec_votes[peer] = top_n_from_votes(
        votes, arrays.rated_cols[peer], state.config.top_n, len(sources)
    )


def _take_snapshot(state: SimState, receptions: np.ndarray, skipped: int) -> CycleSnapshot:
    n = state.n
    sources = state.gossip.sources
    counts = np.fromiter(map(len, sources), dtype=np.int64, count=n)
    owners = np.repeat(np.arange(n), counts)
    flat = np.fromiter(chain.from_iterable(sources), dtype=np.int64, count=owners.size)
    if state.protocol.global_view:
        # Only a global-view cache may keep its owner's entry, which no
        # neighborhood holds.
        others = flat != owners
        owners, flat = owners[others], flat[others]
        counts = np.bincount(owners, minlength=n)
    sums = np.bincount(owners, weights=state.arrays.similarity[owners, flat], minlength=n)
    with np.errstate(invalid="ignore"):
        mean = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    alive = np.array(state.alive, dtype=bool)
    churn = state.config.churn
    leavings = churn is not None and churn.mode == "leavings"
    # Later cycles overwrite the memo, so the snapshot takes copies.
    return CycleSnapshot(
        cycle=state.cycle,
        indptr=np.concatenate(([0], np.cumsum(counts))),
        neighbors=flat,
        cache_sim_mean=mean,
        item_ids=state.arrays.item_ids,
        rec_cols=state.rec_cols.copy(),
        rec_votes=state.rec_votes.copy(),
        alive=alive,
        left=~alive if leavings else np.zeros(n, dtype=bool),
        receptions=receptions,
        skipped=skipped,
    )


def run_cycle(state: SimState) -> CycleSnapshot:
    """Advance the simulation by one full cycle and snapshot the result.

    A cycle whose candidate counts are all fixed before it starts draws
    every turn's partner index in one call; see the module docstring.
    """
    state.cycle += 1
    now = state.cycle
    n = state.n
    gossip = state.gossip
    sources = gossip.sources
    alive = state.alive
    ranked = state.ranked
    protocol = state.protocol
    global_view = protocol.global_view
    rng = state.rng
    partners: list[int] = []
    skipped = 0

    participants = np.flatnonzero(np.asarray(alive, dtype=bool))
    everyone = participants.size == n
    if global_view:
        # Nobody joins or leaves mid-cycle, so the live set is fixed.
        live = participants.tolist()
        position = {p: j for j, p in enumerate(live)}
        count = len(live) - 1
        fixed = count > 0
    else:
        # A partial-view exchange never shrinks a cache, so caches that are
        # all full at the start stay full through the cycle.
        count = protocol.cache_size
        fixed = everyone and all(len(own) == count for own in sources)
    order = rng.permutation(participants).tolist()
    drawn = rng.integers(count, size=len(order)).tolist() if fixed else repeat(None)
    for p, j in zip(order, drawn):
        if not global_view:
            candidates = sources[p] if everyone else [src for src in sources[p] if alive[src]]
            count = len(candidates)
        if count:
            if j is None:
                j = int(rng.integers(count))
            # Under a global view, index j skips p's own slot.
            w = live[j + (j >= position[p])] if global_view else candidates[j]
            run_exchange(gossip, p, w, protocol, now=now)
            partners.append(w)
        else:
            skipped += 1
        if sources[p] is not ranked[p]:
            _rank(state, p)
    receptions = np.bincount(np.array(partners, dtype=np.intp), minlength=n)
    return _take_snapshot(state, receptions.astype(np.int32), skipped)


def run_simulation(
    config: SimConfig,
    arrays: TrainingArrays,
    seed_seq: np.random.SeedSequence | None = None,
) -> Iterator[CycleSnapshot]:
    """Bootstrap and run all cycles, yielding cycles+1 snapshots.

    The first snapshot is the bootstrap state (cycle 0) with recommendations
    computed from the initial caches.  Churn, when configured, is injected at
    the start of its cycle.
    """
    if seed_seq is None:
        seed_seq = np.random.SeedSequence(config.seed)
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    state = bootstrap(config, arrays, rng)

    receptions = np.zeros(state.n, dtype=np.int32)
    for p in range(state.n):
        _rank(state, p)
    yield _take_snapshot(state, receptions, 0)

    for cycle in range(1, config.cycles + 1):
        if config.churn is not None and cycle == config.churn.at_cycle:
            inject_churn(state)
        yield run_cycle(state)

