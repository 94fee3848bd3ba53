"""Epidemic push-pull overlay simulation with a distributed CF recommender.

The package is organized around one push-pull protocol (``pushpull``).  A
cache is a tuple of source peers; the freshest-first variants also keep a
timestamp per source, and their merge keeps the fresher.  The three variants
differ in one switch, a partial or a global view, and in the order that
selects the k entries a cache keeps:

* ``anti-entropy``: global view, freshest first,
* ``newscast``:     partial view of size k, freshest first,
* ``swarmix``:      partial view of size k, rank table of profile similarity.

Under every variant a peer's neighborhood is its cache's sources other than
itself (a global-view cache may keep its owner's entry).  On top of the
overlay sit a user-based collaborative filter (``recommend``), a
deterministic cycle simulator (``engine``, which also builds each variant's
configuration), topology and quality metrics (``metrics``), and an
experiment harness with all-but-1 evaluation (``harness``).  ``cli`` is the
operational surface.  The package holds only what the simulator runs; the
step-by-step reference implementations the test suite compares it against
live in ``tests/oracles.py``.
"""

__version__ = "0.1.0"
