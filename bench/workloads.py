"""The benchmark workloads: pure data, shared by the runner and its checks.

Every workload runs on the 943-user synthetic twin of MovieLens-100k.  The
benchmark's ``--seed`` is the master seed of the simulations; the ratings
file comes from a fixed dataset seed so that every seed sees the same users.
"""

from __future__ import annotations

from dataclasses import dataclass

N_PEERS = 943
DATA_SEED = 20240101  # gossipcf.synth default: the twin the test suite uses

# Anti-entropy peers hold their own entry, which adds a self-similarity of 1.0
# to their cache mean.  On some seeds the library's strict checker then stops
# the trial at cycle 1 (top-m dominance), so these trials run without it and
# the benchmark checks every one of their snapshots instead (checks.py).
UNCHECKED_PROTOCOLS = ("anti-entropy",)


@dataclass(frozen=True)
class Workload:
    """One set of library calls, repeated as whole rounds during a run.

    Each of ``protocols`` runs ``trials`` trials through ``harness.run_trial``,
    one after the other, with trial indices 0, 1, ... across the round so
    that every simulation draws its own split.  With ``churn_pcts`` set, the
    single protocol runs through ``harness.churn_sweep`` instead, with
    ``trials`` trials per loss level.
    """

    name: str
    protocols: tuple[str, ...]
    cycles: int
    structural: bool
    churn_pcts: tuple[int, ...] = ()
    churn_at: int = 0
    trials: int = 1
    n_peers: int = N_PEERS

    @property
    def simulations(self) -> int:
        """Simulations (one split, reference and overlay run each) per round."""
        if self.churn_pcts:
            return len(self.churn_pcts) * self.trials
        return len(self.protocols) * self.trials

    def peer_turns(self) -> int:
        """Live-peer turns per round: one exchange attempt plus one ranking.

        Fixed by the configuration.  A loss of pct% silences
        floor(pct * n / 100) peers from the disturbance cycle on.
        """
        n = self.n_peers
        if not self.churn_pcts:
            return self.cycles * n * self.simulations
        before = self.churn_at - 1
        after = self.cycles - before
        per_trial = sum(before * n + after * (n - pct * n // 100) for pct in self.churn_pcts)
        return per_trial * self.trials


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="flagship",
            protocols=("swarmix",),
            cycles=100,
            structural=True,
        ),
        Workload(
            name="churn-sweep",
            protocols=("swarmix",),
            cycles=16,
            structural=False,
            churn_pcts=(10, 80),
            churn_at=8,
            trials=2,
        ),
        Workload(
            name="timestamp-protocols",
            protocols=("newscast", "anti-entropy"),
            cycles=8,
            structural=True,
            trials=2,
        ),
    )
}
