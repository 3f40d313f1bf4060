"""Shard-parallel, zero-copy frequency-set evaluation.

The paper's §7 future work asks for scalability where the base table does
not fit comfortably in memory; SKALD's recipe is to partition the table
into row shards, compute per-shard frequency sets, and merge them exactly
(COUNT is distributive).  Here that partition is every scan's plan of row
ranges (:meth:`repro.core.anonymity.FrequencyEvaluator.plan_scan`), which
the job holding the plan loops over and merges in every execution mode.
This package supplies what the ``shards`` mode of :mod:`repro.parallel`
adds: worker processes that run whole table scans against the table
without a copy of it.

* :mod:`repro.shard.shm` — QI code arrays backed by named
  ``multiprocessing.shared_memory`` segments, so pool workers attach
  zero-copy views instead of receiving a pickled table each;
* :mod:`repro.shard.manifest` — an on-disk manifest of live segments so
  a SIGKILLed owner's leaked segments can be swept at the next startup
  (:func:`sweep_orphans`, surfaced as ``repro gc-shm``).
"""

from repro.shard.manifest import SweepReport, manifest_dir, sweep_orphans
from repro.shard.shm import (
    SharedColumnSpec,
    SharedProblemHandle,
    SharedTableStore,
    attach_problem,
)

__all__ = [
    "SharedColumnSpec",
    "SharedProblemHandle",
    "SharedTableStore",
    "SweepReport",
    "attach_problem",
    "manifest_dir",
    "sweep_orphans",
]
