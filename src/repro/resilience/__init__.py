"""``repro.resilience`` — the fault-tolerant execution layer.

Three pieces, built for the "partial failure is the norm" regime of
long-running, production-scale k-anonymization:

* :mod:`~repro.resilience.faults` — a deterministic, seeded
  fault-injection framework (:class:`FaultPlan`): worker crashes,
  per-job timeouts, slow workers, poisoned results, and memory-pressure
  signals, installable via ``ExecutionConfig(faults=...)`` or the
  ``--inject-faults`` CLI flag;
* the supervised batch path in :mod:`repro.parallel.evaluator` consumes
  the plan and survives real or injected failures through bounded retries
  with backoff and a graceful-degradation ladder (rebuild the pool once,
  then demote shards → threads → serial) — with bit-identical results
  and ``frequency.*`` counters, failures accounted under ``fault.*`` /
  ``retry.*``;
* :mod:`~repro.resilience.checkpoint` — level-granular checkpoint/resume
  (:class:`CheckpointStore`, atomic write-temp-fsync-rename) threaded
  through the Incognito variants, bottom-up, and binary search, plus the
  shared :mod:`~repro.resilience.atomicio` primitives that also make the
  bench JSON export crash-safe.

See DESIGN.md §7 for the failure model and exactly what is guaranteed
bit-identical under each degradation.
"""

from repro.resilience.atomicio import atomic_write_json, atomic_write_text
from repro.resilience.checkpoint import (
    ChainMatch,
    ChainMismatchWarning,
    CheckpointError,
    CheckpointStore,
    frequency_set_from_json,
    frequency_set_to_json,
    node_from_json,
    match_chain,
    node_to_json,
    nodes_from_json,
    nodes_to_json,
    problem_fingerprint,
    segment_fingerprint,
    use_checkpoints,
)
from repro.resilience.faults import (
    FaultPlan,
    InjectedWorkerCrash,
    PoisonedResultError,
)

__all__ = [
    "ChainMatch",
    "ChainMismatchWarning",
    "CheckpointError",
    "CheckpointStore",
    "FaultPlan",
    "InjectedWorkerCrash",
    "PoisonedResultError",
    "atomic_write_json",
    "atomic_write_text",
    "frequency_set_from_json",
    "frequency_set_to_json",
    "match_chain",
    "node_from_json",
    "node_to_json",
    "nodes_from_json",
    "nodes_to_json",
    "problem_fingerprint",
    "segment_fingerprint",
    "use_checkpoints",
]
