"""The benchmark's tracer still fits the library's module boundaries.

``bench/instrument.py`` replaces ``engine.bootstrap``, ``engine.run_cycle``,
``engine.run_exchange``, ``engine.top_n_from_votes`` and a set of
``harness`` and ``metrics`` names by module attribute, and reads ``src``
from the entries in ``state.gossip.caches``.  A refactor that renames one of
these, calls it some other way or changes the entry breaks
``bench/run.py --trace 1``; these tests notice.  They only read ``bench/``.
"""

import importlib.util
from pathlib import Path

import pytest

from gossipcf import engine, harness, metrics
from gossipcf.engine import SimConfig

INSTRUMENT = Path(__file__).resolve().parent.parent / "bench" / "instrument.py"


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
    # anti-entropy trips the strict checker on some seeds (a recorded fault)
    strict = protocol != "anti-entropy"
    plain = harness.run_trial(config, small_ratings, 0, strict=strict)

    capture = instrument.Capture(harness)
    tracer = instrument.Tracer(harness, engine, metrics)
    with instrument.patched(capture.patches()), instrument.patched(tracer.patches()):
        traced = harness.run_trial(config, small_ratings, 0, strict=strict)

    assert repr(traced.metrics) == repr(plain.metrics)
    layers = tracer.layer_metrics()
    # no churn: every peer initiates once per cycle unless it had no partner
    (record,) = capture.trials
    n = config.n_peers
    assert layers["pushpull.exchanges"] == config.cycles * n - record["skipped"] > 0
    # cycle 0 ranks every peer; later cycles rank a peer at most once each
    assert n <= layers["recommend.rank_calls"] <= (config.cycles + 1) * n
    assert 0.0 < layers["pushpull.effective_ratio"] <= 1.0
    assert layers["engine.cycle_s"] > 0.0 and layers["pushpull.exchange_s"] > 0.0
