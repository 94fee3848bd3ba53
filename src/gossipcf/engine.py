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

from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterator

import numpy as np

from .pushpull import DataItem, GossipState, ProtocolSpec, rank_table, run_exchange
from .recommend import TrainingArrays, tally_votes, top_n_from_votes

PROTOCOLS = ("swarmix", "newscast", "anti-entropy")
CHURN_MODES = ("failures", "leavings")


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
    than v itself, in selection order.  Under every protocol it never holds
    v, even where a global-view cache keeps v's own entry.
    ``cache_sim_mean[v]`` is v's mean similarity to those sources (NaN for an
    empty neighborhood).  Recommendation rows are padded with -1 item ids;
    a silenced peer's row is all padding.
    """

    cycle: int
    indptr: np.ndarray
    neighbors: np.ndarray
    cache_sim_mean: np.ndarray
    rec_items: np.ndarray
    rec_votes: np.ndarray
    alive: np.ndarray
    left: np.ndarray
    receptions: np.ndarray
    skipped: int

    @property
    def neighbor_ids(self) -> list[np.ndarray]:
        """Per-peer views of ``neighbors``, for readers outside the library."""
        return np.split(self.neighbors, self.indptr[1:-1])


@dataclass
class SimState:
    """Mutable state of a running simulation.

    The ranking memo is ``rec_items``/``rec_votes``, each peer's latest top-N
    row, keyed by ``ranked[v]``: the tuple ``gossip.sources[v]`` held when
    v's row was last brought up to date, ``None`` before v is first ranked.
    While v's sources stay unchanged, ``gossip.sources[v]`` is that very
    tuple object, so the check is one identity test.
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
    ranked: list[tuple[int, ...] | None] | None = None

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
) -> list[list[int]]:
    """Initial directed overlay: connected, unbalanced, caches within capacity.

    A uniform random spanning tree (oriented both ways) guarantees weak
    connectivity; additional random directed edges are added until the mean
    out-degree reaches the target.  The extra edges fill no cache: they go
    only to peers whose out-degree is below ``cache_size - 1``.  The tree is
    not capped and may fill a cache; one that gives some peer more than
    ``cache_size`` sources is a config error.
    """
    if n < 2:
        raise InvalidConfig("need at least two peers")
    if not 1.0 <= target_avg_degree < cache_size:
        raise InvalidConfig("target degree must satisfy 1 <= degree < cache_size")

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
    caches = [tuple(DataItem(u, 0) for u in topology[v]) for v in range(n)]
    gossip = GossipState(caches=caches, alive=[True] * n)
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
        ranked=[None] * n,
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
    top = top_n_from_votes(
        votes, arrays.rated_cols[peer], state.config.top_n, arrays.item_ids
    )
    items, counts = state.rec_items[peer], state.rec_votes[peer]
    items.fill(-1)
    counts.fill(0)
    for j, (item, count) in enumerate(top):
        items[j] = item
        counts[j] = count


def _take_snapshot(state: SimState, receptions: np.ndarray, skipped: int) -> CycleSnapshot:
    n = state.n
    sources = state.gossip.sources
    counts = np.fromiter(map(len, sources), dtype=np.int64, count=n)
    owners = np.repeat(np.arange(n), counts)
    flat = np.fromiter(chain.from_iterable(sources), dtype=np.int64, count=owners.size)
    # A neighborhood never holds its owner, even where the cache does.
    others = flat != owners
    owners, flat = owners[others], flat[others]
    counts = np.bincount(owners, minlength=n)
    sums = np.bincount(owners, weights=state.arrays.similarity[owners, flat], minlength=n)
    with np.errstate(invalid="ignore"):
        mean = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    alive = np.array(state.gossip.alive, dtype=bool)
    # Every peer alive at the start of the cycle was ranked, and nobody is
    # silenced mid-cycle, so the memo holds exactly the live peers' rows.
    return CycleSnapshot(
        cycle=state.cycle,
        indptr=np.concatenate(([0], np.cumsum(counts))),
        neighbors=flat,
        cache_sim_mean=mean,
        rec_items=np.where(alive[:, None], state.rec_items, -1),
        rec_votes=np.where(alive[:, None], state.rec_votes, 0),
        alive=alive,
        left=np.array(state.left, dtype=bool),
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
    alive = gossip.alive
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
            inject_churn(state, config.churn)
        yield run_cycle(state)

