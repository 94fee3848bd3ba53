"""The benchmark's tracer still fits the library's module boundaries.

``bench/instrument.py`` replaces ``engine.bootstrap``, ``engine.run_cycle``,
``engine.run_exchange``, ``engine.top_n_from_votes`` and a set of
``harness`` and ``metrics`` names by module attribute, and reads ``src``
from the entries in ``state.gossip.caches``: a read-only view that the
library derives from its source tuples and keeps only for such readers.  ``bench/worker.py`` and
``bench/checks.py`` read a snapshot's neighborhoods as ``neighbor_ids``, one
int array per peer.  A refactor that renames one of these, calls it some
other way or changes the entry or the snapshot breaks ``bench/run.py``;
these tests notice.  A churn sweep also goes through ``bench/worker.py``'s
``trial_record`` and ``dead_entries``, which read ``config.churn`` and a
snapshot's ``alive``, ``left`` and ``neighbor_ids`` for
``bench/checks.py::check_churn_count``.  The tests only read ``bench/``.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from gossipcf import engine, harness, metrics
from gossipcf.engine import SimConfig

BENCH = Path(__file__).resolve().parent.parent / "bench"
INSTRUMENT = BENCH / "instrument.py"


def load_instrument():
    spec = importlib.util.spec_from_file_location("bench_instrument", INSTRUMENT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("protocol", engine.PROTOCOLS)
def test_tracer_counts_protocol_work_and_leaves_rows_unchanged(small_ratings, protocol):
    instrument = load_instrument()
    config = SimConfig(
        n_peers=small_ratings.n_users, cache_size=8, cycles=4, seed=7, protocol=protocol
    )
    plain = harness.run_trial(config, small_ratings, 0)

    capture = instrument.Capture(harness)
    tracer = instrument.Tracer(harness, engine, metrics)
    with instrument.patched(capture.patches()), instrument.patched(tracer.patches()):
        traced = harness.run_trial(config, small_ratings, 0)

    assert repr(traced.metrics) == repr(plain.metrics)
    layers = tracer.layer_metrics()
    # no churn: every peer initiates once per cycle unless it had no partner
    (record,) = capture.trials
    n = config.n_peers
    assert layers["pushpull.exchanges"] == config.cycles * n - record["skipped"] > 0
    # cycle 0 ranks every peer; later cycles rank a peer at most once each
    assert n <= layers["recommend.rank_calls"] <= (config.cycles + 1) * n
    # the memo ranks a peer only when its sources differ from those it last ranked
    assert layers["recommend.needed_ratio"] == 1.0
    assert 0.0 < layers["pushpull.effective_ratio"] <= 1.0
    assert layers["engine.cycle_s"] > 0.0 and layers["pushpull.exchange_s"] > 0.0
    # weighted_similarity_matrix yields its blocks inside centralized_neighborhoods'
    # span, which books them to the same layer
    assert layers["recommend.reference_s"] > 0.0
    # run_trial computes structural metrics by default, through the names the
    # tracer swaps; a call that bypasses them would book 0 s to both layers
    assert layers["metrics.path_length_s"] > 0.0 and layers["metrics.clustering_s"] > 0.0
    final = record["final"]
    per_peer = final.neighbor_ids
    assert len(per_peer) == n
    assert all(ids.dtype.kind == "i" for ids in per_peer)
    assert np.array_equal(np.concatenate(per_peer), final.neighbors)


def test_worker_reads_a_churn_sweep(small_ratings, monkeypatch):
    # worker.py imports its siblings by bare name, as bench/run.py starts it
    monkeypatch.syspath_prepend(str(BENCH))
    instrument, worker = (importlib.import_module(name) for name in ("instrument", "worker"))
    base = SimConfig(n_peers=small_ratings.n_users, cache_size=8, cycles=6, seed=7)
    capture = instrument.Capture(harness)
    with instrument.patched(capture.patches()):
        harness.churn_sweep(base, small_ratings, [10.0, 40.0], 2, at_cycle=3)

    assert len(capture.trials) == 4
    n = base.n_peers
    for captured, pct in zip(capture.trials, [10.0, 10.0, 40.0, 40.0]):
        record = worker.trial_record(captured)
        assert record["churn"] == ("leavings", pct, 3)
        final = record["final"]
        silenced = ~final["alive"]
        assert np.array_equal(final["left"], silenced)
        assert silenced.sum() == math.floor(pct * n / 100)
        assert 0 <= worker.dead_entries(captured) <= n * base.cache_size
