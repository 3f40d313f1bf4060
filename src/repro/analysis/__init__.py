"""``repro.analysis`` — project-specific static analysis.

The paper's correctness argument rests on predicate invariants
(generalization and rollup properties); the engine mirrors them as *code*
invariants — bit-identical frequency sets under threads/shards/faults,
seeded-only randomness, the closed dotted counter namespace, atomic
durability writes, documented CLI contracts.  The chaos/differential
suites enforce those contracts at test time, expensively; this package
enforces their statically-checkable shadow at lint time:

========  ============================================================
RA001     worker-reachable code must be deterministic (no wall clock,
          OS entropy, unseeded RNGs, or set-order-dependent returns)
RA002     counter/span name literals must match the registry exported
          by :mod:`repro.obs.registry`
RA003     pool-dispatched functions must not touch module-level mutable
          state (the plan-in-parent contract)
RA004     checkpoint/bench/export writes must route through
          :mod:`repro.resilience.atomicio`
RA005     argparse flags in the CLI surface must appear in README or
          DESIGN
RA006     the static lock-acquisition graph (service/parallel/obs) must
          be acyclic and no lock may be held across a blocking call
RA007     coroutines in the asyncio server must not reach blocking
          calls (sleep, sync IO, subprocess waits, un-timed acquire)
RA008     SharedMemory/heartbeat/tempfile acquisitions must reach
          cleanup on every exception path
RA009     atomic publishes must order write → fsync → rename; a rename
          not dominated by fsync is a zero-fill crash window
========  ============================================================

RA006-RA009 share the interprocedural call graph in
:mod:`repro.analysis.callgraph`; the static lock graph is additionally
cross-checked at test time by the runtime recorder in
:mod:`repro.analysis.runtime` (DESIGN.md §13).

Run it::

    python -m repro.analysis src/ --strict

Suppress one finding, with a mandatory justification::

    risky()  # ra: RA003 -- worker-resident problem, installed once

See DESIGN.md §8 for the rule ↔ contract mapping.
"""

from __future__ import annotations

from repro.analysis.core import (
    Finding,
    ModuleUnit,
    Project,
    Rule,
    active,
    run_analysis,
)
from repro.analysis.rules import all_rules, rules_by_id

__all__ = [
    "Finding",
    "ModuleUnit",
    "Project",
    "Rule",
    "active",
    "all_rules",
    "rules_by_id",
    "run_analysis",
]


def analyze_paths(paths, rules=None) -> list[Finding]:
    """Convenience one-shot: load ``paths``, run ``rules`` (default all)."""
    project = Project.load(list(paths))
    return run_analysis(project, rules if rules is not None else all_rules())
