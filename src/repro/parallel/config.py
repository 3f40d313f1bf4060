"""Execution configuration for the parallel frequency-set evaluator.

An :class:`ExecutionConfig` names the backend (``serial`` — the
zero-dependency fallback; ``threads`` — a thread pool sharing the
parent's table and rollup sources, the default for more than one worker;
``shards`` — worker processes that attach the QI code arrays in shared
memory zero-copy and run the table scans while the parent rolls up, see
:mod:`repro.shard`), the worker count, and the width of the row ranges
a table scan loops over (``shard_rows``).  It is immutable and
normalising: one worker is always the serial config, and the retired
``processes`` mode name is accepted as ``shards``, so
``ExecutionConfig.from_workers`` can be fed a CLI ``--workers`` value
directly and old job specs keep working.

Since the resilience layer landed it also carries the supervision policy
of the batch path: a per-chunk ``chunk_timeout``, the bounded-retry
budget (``max_retries`` with exponential backoff from ``backoff_base``
capped at ``backoff_cap``), and an optional
:class:`~repro.resilience.faults.FaultPlan` of injected failures.  All
fields are validated at construction — a nonsensical config (zero
workers, unknown mode, negative timeout) raises ``ValueError`` here, and
the CLI converts that into a clean ``argparse`` error instead of a deep
traceback.

A module-level *default* config can be installed for a region
(:func:`use_execution`) so fixed-signature callers — the bench harness's
algorithm table, the CLI — can opt whole runs into parallelism without
threading a parameter through every layer.  Both command lines build
their config from the run flags of :mod:`repro.parallel.cli`, whose
``run_region`` installs it for the run.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.resilience.faults import FaultPlan

#: Accepted mode names.  The supervised batch path demotes a failing run
#: down the ladder shards → threads → serial.  ``processes`` names the
#: retired pickling process pool and is normalised to ``shards``.
MODES = ("serial", "threads", "processes", "shards")


@dataclass(frozen=True)
class ExecutionConfig:
    """How frequency-set batches are executed and supervised."""

    mode: str = "serial"
    workers: int = 1
    #: Seconds the parent waits on one chunk before abandoning and
    #: re-dispatching it; None waits forever (the pre-resilience behavior).
    chunk_timeout: float | None = None
    #: Bounded retries per chunk before it falls back to serial execution
    #: in the parent (which always succeeds).
    max_retries: int = 3
    #: First retry backoff in seconds; doubles per attempt, with
    #: deterministic jitter, capped at ``backoff_cap``.
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    #: Deterministic injected failures (None = no injection).
    faults: FaultPlan | None = None
    #: Width of the row ranges a table scan loops over, in every mode:
    #: whichever job holds the plan (in the parent, a pool thread or a
    #: shard worker) scans its ranges in turn (the out-of-core scan).
    #: None is one range per scan.  Execution granularity only — results
    #: merge bit-identically for every width.
    shard_rows: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(
                f"mode must be one of {MODES}, got {self.mode!r}"
            )
        if not isinstance(self.workers, int) or self.workers < 1:
            raise ValueError(f"workers must be an int >= 1, got {self.workers!r}")
        if self.chunk_timeout is not None and not self.chunk_timeout > 0:
            raise ValueError(
                f"chunk_timeout must be positive or None, got {self.chunk_timeout!r}"
            )
        if not isinstance(self.max_retries, int) or self.max_retries < 0:
            raise ValueError(
                f"max_retries must be an int >= 0, got {self.max_retries!r}"
            )
        if self.backoff_base < 0:
            raise ValueError(
                f"backoff_base must be >= 0, got {self.backoff_base!r}"
            )
        if self.backoff_cap < self.backoff_base:
            raise ValueError(
                f"backoff_cap ({self.backoff_cap!r}) must be >= "
                f"backoff_base ({self.backoff_base!r})"
            )
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise ValueError(
                f"faults must be a FaultPlan or None, got {type(self.faults).__name__}"
            )
        if self.shard_rows is not None and (
            not isinstance(self.shard_rows, int) or self.shard_rows < 1
        ):
            raise ValueError(
                f"shard_rows must be an int >= 1 or None, got {self.shard_rows!r}"
            )
        if self.mode == "processes":
            object.__setattr__(self, "mode", "shards")
        # One worker cannot parallelise anything; collapse to the serial
        # fast path so `is_parallel` is the single dispatch question.
        if self.mode != "serial" and self.workers == 1:
            object.__setattr__(self, "mode", "serial")
        if self.mode == "serial" and self.workers != 1:
            object.__setattr__(self, "workers", 1)

    @property
    def is_parallel(self) -> bool:
        return self.mode != "serial"

    @property
    def effective_timeout(self) -> float | None:
        """The supervision timeout the batch path actually waits.

        An explicit ``chunk_timeout`` wins.  Otherwise, when a fault plan
        injects timeouts, waiting forever would defeat the injector — the
        default is then a fraction of the injected stall so the timeout
        path actually fires.  With neither, chunks are awaited unbounded.
        """
        if self.chunk_timeout is not None:
            return self.chunk_timeout
        if self.faults is not None and self.faults.timeout_rate > 0:
            return max(0.1, self.faults.hold_seconds / 4.0)
        return None

    @classmethod
    def from_workers(
        cls, workers: int | None, mode: str | None = None
    ) -> "ExecutionConfig":
        """Build from CLI-style inputs; ``workers`` absent/1 is serial.

        More workers default to the ``threads`` mode.

        A zero or negative worker count is a user error, not a request
        for serial execution, and raises ``ValueError``.
        """
        if workers is None or workers == 1:
            return cls()
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        return cls(mode=mode or "threads", workers=workers)


#: Region default used when algorithms are called without explicit config.
_default_execution = ExecutionConfig()


def current_execution() -> ExecutionConfig:
    """The region-default execution config (serial unless installed)."""
    return _default_execution


@contextmanager
def use_execution(config: ExecutionConfig) -> Iterator[ExecutionConfig]:
    """Temporarily install ``config`` as the region default."""
    global _default_execution
    previous, _default_execution = _default_execution, config
    try:
        yield config
    finally:
        _default_execution = previous
