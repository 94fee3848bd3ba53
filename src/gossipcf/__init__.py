"""Epidemic push-pull overlay simulation with a distributed CF recommender.

The package is organized around one generic gossip engine (``pushpull``)
whose merge / select steps are parameterized by a selection order: a per-peer
rank table or freshest first.  A peer's cache is its neighborhood.  Three
protocol variants are configurations of that engine:

* ``anti-entropy``: global view, freshest-timestamp replication,
* ``newscast``:     partial view of size k, freshest-timestamp news items,
* ``swarmix``:      partial view of size k, rating-profile similarity utility.

On top of the overlay sit a user-based collaborative filter (``recommend``),
a deterministic cycle simulator (``engine``), topology and quality metrics
(``metrics``), and an experiment harness with all-but-1 evaluation
(``harness``).  ``cli`` is the operational surface.  The package holds only
what the simulator runs; the step-by-step reference implementations the test
suite compares it against live in ``tests/oracles.py``.
"""

__version__ = "0.1.0"
