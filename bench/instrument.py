"""Wrappers swapped in at the library's module boundaries.

Nothing here touches ``src/``: each public function is replaced, in the
namespace of the module that calls it, by a wrapper that forwards to the
original.  ``Capture`` keeps what the correctness checks need (a handful of
calls per simulation, so it stays installed in untraced runs).  ``Tracer``
times every boundary call and counts protocol work; it is installed only
for ``--trace 1`` runs.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator


@contextmanager
def patched(patches: list[tuple[Any, str, Callable]]) -> Iterator[None]:
    """Set ``module.name = new`` for each patch; restore on exit."""
    saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
    for module, name, new in patches:
        setattr(module, name, new)
    try:
        yield
    finally:
        for module, name, old in reversed(saved):
            setattr(module, name, old)


class Capture:
    """One record per ``harness.run_trial`` call of the current round.

    A record holds the ``TrialResult``, the ``structural`` flag, the final
    snapshot, the centralized neighbourhoods and the total of skipped
    initiators over all cycles.  A trial run without the library's strict
    checker also keeps every snapshot, so that the benchmark can check them.
    """

    def __init__(self, harness: Any):
        self.harness = harness
        self.trials: list[dict[str, Any]] = []

    def patches(self) -> list[tuple[Any, str, Callable]]:
        h = self.harness
        run_trial, run_simulation = h.run_trial, h.run_simulation
        neighborhoods = h.centralized_neighborhoods
        trials = self.trials

        def captured_run_trial(config, ratings, trial, structural=True, strict=True):
            record = {"structural": structural, "skipped": 0, "every": None if strict else []}
            trials.append(record)
            record["result"] = run_trial(
                config, ratings, trial, structural=structural, strict=strict
            )
            return record["result"]

        def captured_run_simulation(*args, **kwargs):
            record = trials[-1]
            for snap in run_simulation(*args, **kwargs):
                record["skipped"] += snap.skipped
                record["final"] = snap
                if record["every"] is not None:
                    record["every"].append(snap)
                yield snap

        def captured_neighborhoods(*args, **kwargs):
            trials[-1]["neighborhoods"] = out = neighborhoods(*args, **kwargs)
            return out

        return [
            (h, "run_trial", captured_run_trial),
            (h, "run_simulation", captured_run_simulation),
            (h, "centralized_neighborhoods", captured_neighborhoods),
        ]


def _sources(cache) -> list[int]:
    return [item.src for item in cache]


def _same(a: list[int], b: list[int]) -> bool:
    """Same source set; equal lists are the common, cheap case."""
    return a == b or set(a) == set(b)


class Tracer:
    """Span timer with self times, plus the protocol counters.

    Each span adds its duration to its parent's child time, so a layer's
    self time excludes every traced call it makes.  The time the counters
    take is booked as ``trace.bookkeeping``, which keeps it out of the
    layers it sits in.
    """

    def __init__(self, harness: Any, engine: Any, metrics: Any):
        self.harness, self.engine, self.metrics = harness, engine, metrics
        self.reset()

    def reset(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._open: list[float] = []  # child time of each open span
        self._state = None
        self._peer_of: dict[int, int] = {}
        self._ranked_sources: dict[int, list[int]] = {}

    def _enter(self) -> float:
        self._open.append(0.0)
        return perf_counter()

    def _exit(self, layer: str, start: float) -> None:
        elapsed = perf_counter() - start
        child = self._open.pop()
        self.self_s[layer] += elapsed - child
        self.total_s[layer] += elapsed
        if self._open:
            self._open[-1] += elapsed

    def _span(self, layer: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            start = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(layer, start)

        return traced

    def _span_generator(self, layer: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                start = self._enter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._exit(layer, start)
                yield item

        return traced

    def untraced(self, elapsed: float) -> None:
        """Keep ``elapsed`` seconds of the benchmark's own work out of every layer."""
        if self._open:
            self._open[-1] += elapsed

    def _bootstrap(self, fn: Callable) -> Callable:
        def traced(config, arrays, rng, *args, **kwargs):
            state = fn(config, arrays, rng, *args, **kwargs)
            self._state = state
            self._peer_of = {id(cols): v for v, cols in enumerate(arrays.rated_cols)}
            self._ranked_sources = {}
            return state

        return traced

    def _leaf(self, layer: str, elapsed: float, bookkeeping: float) -> None:
        """Book a call that makes no traced calls, without a span of its own."""
        self.self_s[layer] += elapsed
        self.total_s[layer] += elapsed
        self.self_s["trace.bookkeeping"] += bookkeeping
        self._open[-1] += elapsed + bookkeeping

    def _exchange(self, fn: Callable) -> Callable:
        def traced(gossip, initiator, responder, protocol, now):
            t0 = perf_counter()
            caches = gossip.caches
            before = _sources(caches[initiator]), _sources(caches[responder])
            t1 = perf_counter()
            fn(gossip, initiator, responder, protocol, now)
            t2 = perf_counter()
            changed = not (
                _same(before[0], _sources(caches[initiator]))
                and _same(before[1], _sources(caches[responder]))
            )
            self.counts["exchanges"] += 1
            self.counts["effective"] += changed
            self._leaf("pushpull.exchange", t2 - t1, t1 - t0 + perf_counter() - t2)

        return traced

    def _rank(self, fn: Callable) -> Callable:
        def traced(votes, exclude_cols, n_top, item_ids):
            t0 = perf_counter()
            peer = self._peer_of[id(exclude_cols)]
            sources = _sources(self._state.gossip.caches[peer])
            previous = self._ranked_sources.get(peer)
            self._ranked_sources[peer] = sources
            self.counts["rank_calls"] += 1
            self.counts["needed"] += previous is None or not _same(previous, sources)
            t1 = perf_counter()
            try:
                return fn(votes, exclude_cols, n_top, item_ids)
            finally:
                self._leaf("recommend.rank", perf_counter() - t1, t1 - t0)

        return traced

    def patches(self) -> list[tuple[Any, str, Callable]]:
        """Wrappers for the functions currently in place (capture included)."""
        h, e, m = self.harness, self.engine, self.metrics
        span = self._span
        return [
            (h, "run_trial", span("harness", h.run_trial)),
            (h, "run_experiment", span("harness", h.run_experiment)),
            (h, "churn_sweep", span("harness", h.churn_sweep)),
            (h, "all_but_1_split", span("harness.split", h.all_but_1_split)),
            (h, "build_training_arrays", span("recommend.arrays", h.build_training_arrays)),
            (h, "top_m_mean_table", span("recommend.reference", h.top_m_mean_table)),
            (h, "weighted_similarity_matrix",
             span("recommend.reference", h.weighted_similarity_matrix)),
            (h, "centralized_neighborhoods",
             span("recommend.reference", h.centralized_neighborhoods)),
            (h, "top_n_from_votes", span("recommend.reference", h.top_n_from_votes)),
            (h, "run_simulation", self._span_generator("engine.setup", h.run_simulation)),
            (h, "compute_cycle_metrics", span("metrics.row", h.compute_cycle_metrics)),
            (m, "avg_path_length", span("metrics.path_length", m.avg_path_length)),
            (m, "clustering_coefficient", span("metrics.clustering", m.clustering_coefficient)),
            (e, "bootstrap", self._bootstrap(e.bootstrap)),
            (e, "run_cycle", span("engine.cycle", e.run_cycle)),
            (e, "run_exchange", self._exchange(e.run_exchange)),
            (e, "top_n_from_votes", self._rank(e.top_n_from_votes)),
        ]

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures of the spans recorded since the last reset."""
        s, c = self.self_s, self.counts
        exchanges = c["exchanges"]
        return {
            "harness.split_s": s["harness.split"],
            "harness.self_s": s["harness"],
            "recommend.arrays_s": s["recommend.arrays"],
            "recommend.reference_s": s["recommend.reference"],
            "recommend.rank_s": s["recommend.rank"],
            "recommend.rank_calls": c["rank_calls"],
            "recommend.needed_ratio": c["needed"] / c["rank_calls"],
            "pushpull.exchange_s": s["pushpull.exchange"],
            "pushpull.exchanges": exchanges,
            "pushpull.exchange_us": 1e6 * s["pushpull.exchange"] / exchanges,
            "pushpull.effective_ratio": c["effective"] / exchanges,
            "engine.cycle_s": self.total_s["engine.cycle"],
            "engine.self_s": s["engine.cycle"],
            "engine.setup_s": s["engine.setup"],
            "metrics.path_length_s": s["metrics.path_length"],
            "metrics.clustering_s": s["metrics.clustering"],
            "metrics.row_s": s["metrics.row"],
            "trace.bookkeeping_s": s["trace.bookkeeping"],
        }

    def accounted_s(self) -> float:
        """Sum of every layer's self time: the traced wall time minus glue."""
        return sum(self.self_s.values())
