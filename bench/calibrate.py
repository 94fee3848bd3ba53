"""Read how fast the host runs, and scale measured times to a reference speed.

The benchmark's host is a virtual machine on a shared host whose speed
drifts by a factor of two or more, over seconds as well as minutes, while
the guest sees little steal time: its process CPU time grows almost as
slowly as its wall time.  So the benchmark reads the speed with a fixed kernel, a short
piece of the kinds of work the simulator does (a ``Counter`` vote over a
list of ints, a sort, a stable ``argsort`` of a NumPy row), none of it
through the library.  A time measured while the kernel took ``k`` seconds
is reported as that time times ``REFERENCE_S / k``: the time it would have
taken at the reference speed.

The kernel's inputs are small (about 100 KB) and built once per process
from a fixed seed, so every reading does the same work on every commit and
leaves the library's caches and heap nearly as they were.
"""

from __future__ import annotations

import gc
import statistics
from collections import Counter
from functools import cache
from time import perf_counter
from typing import Any, Callable

import numpy as np

# The reference speed: one reading taking this long, about the median of the
# readings within a round on the reference host (bench/README.md, "Host
# speed").  At that speed scaled times equal wall times.
REFERENCE_S = 0.0025
REPEATS = 3


@cache
def _inputs() -> tuple[list[int], np.ndarray]:
    rng = np.random.default_rng(12345)
    return rng.integers(0, 1682, size=2_000).tolist(), rng.random((10, 1682))


def _kernel(ints: list[int], rows: np.ndarray) -> int:
    votes: Counter[int] = Counter()
    for item in ints:
        votes[item] += 1
    top = sorted(votes.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    return top[0][0] + sum(int(np.argsort(-row, kind="stable")[0]) for row in rows)


def kernel_seconds(repeats: int = REPEATS) -> float:
    """Median wall time of ``repeats`` kernel runs after one untimed run
    that brings its inputs back into the caches, the collector paused."""
    inputs = _inputs()
    enabled = gc.isenabled()
    gc.disable()
    try:
        _kernel(*inputs)
        times = []
        for _ in range(repeats):
            start = perf_counter()
            _kernel(*inputs)
            times.append(perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def scaled(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured while the kernel took ``kernel_s``, at reference speed."""
    return seconds * REFERENCE_S / kernel_s


class Sampler:
    """Kernel readings taken all through a round, and the round's scaled time.

    ``read`` is called at the start and the end of a round and after every
    snapshot the library yields, so readings lie a cycle apart.  The work
    between two readings is scaled by the mean of the two.  The readings'
    own time is left out of the round; ``on_reading`` hands it to the tracer
    so that it stays out of every layer too.
    """

    def __init__(self, on_reading: Callable[[float], None] | None = None):
        self.on_reading = on_reading
        self.reset()

    def reset(self) -> None:
        self.kernels: list[float] = []
        self.segments: list[float] = []  # library time before each reading
        self._last: float | None = None

    def read(self) -> None:
        start = perf_counter()
        if self._last is not None:
            self.segments.append(start - self._last)
        self.kernels.append(kernel_seconds())
        self._last = perf_counter()
        if self.on_reading is not None:
            self.on_reading(self._last - start)

    def scaled_s(self) -> float:
        """The library time of the round, at the reference speed."""
        k = self.kernels
        return sum(
            scaled(seg, (a + b) / 2) for seg, a, b in zip(self.segments, k, k[1:])
        )

    def patches(self, harness: Any) -> list[tuple[Any, str, Callable]]:
        """Read after each snapshot; install after every other wrapper."""
        run_simulation = harness.run_simulation

        def sampled_run_simulation(*args, **kwargs):
            for snap in run_simulation(*args, **kwargs):
                yield snap
                self.read()

        return [(harness, "run_simulation", sampled_run_simulation)]
