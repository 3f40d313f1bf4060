"""``repro.parallel`` — per-level parallel frequency-set evaluation.

Nodes at the same lattice level are independent given the frequency sets
of the level below, so each level's unmarked nodes can be materialised
concurrently.  This package provides:

* :class:`~repro.parallel.config.ExecutionConfig` — backend (``serial`` /
  ``threads`` / ``shards``), worker count and scan range width, with a
  region-default mechanism (:func:`use_execution`) for fixed-signature
  callers;
* :class:`~repro.parallel.evaluator.BatchMaterializer` — the batch engine
  the search algorithms hand one level's requests to;
* :mod:`~repro.parallel.worker` — the worker side (shard processes attach
  the table in shared memory once; arrays + stats deltas come back).

Serial and parallel runs of the same algorithm produce identical result
sets and identical structural (``nodes.*`` / ``frequency.*``) counters;
see :mod:`repro.parallel.evaluator` for the determinism contract and
``tests/differential/`` for the suite that locks it down.

The batch path is *supervised* (see :mod:`repro.resilience`): chunks are
awaited with a per-chunk timeout, retried with bounded exponential
backoff, and survive pool breakage through a rebuild-once-then-demote
ladder (``shards → threads → serial``) — all without perturbing the
determinism contract.  Failures are accounted under ``fault.*`` and
``retry.*``.
"""

from repro.parallel.config import (
    MODES,
    ExecutionConfig,
    current_execution,
    use_execution,
)
from repro.parallel.evaluator import BatchMaterializer

__all__ = [
    "MODES",
    "BatchMaterializer",
    "ExecutionConfig",
    "current_execution",
    "use_execution",
]
