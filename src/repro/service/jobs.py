"""The service's job model: specs, records, and the job state machine.

A *job* is one anonymization request accepted by the server: a dataset
reference (resolved through :mod:`repro.service.connectors`), a
quasi-identifier specification, ``k``, the algorithm, and an execution
mode.  Its lifecycle is a small explicit state machine:

::

    queued ──► running ──► succeeded
       ▲          │  │
       │ (retry/  │  └────► failed      (cause recorded)
       │  drain/  └───────► cancelled
       │  recover)
       └──────────┘

``queued → running`` happens when the scheduler launches the job's
subprocess; ``running → queued`` happens on a *non-terminal* failure — a
crashed or hung runner that still has retry budget, a drained server, or
a server crash recovered at restart — and the re-run resumes from the
job's :class:`~repro.resilience.CheckpointStore` checkpoint, so completed
levels are never re-scanned.  Terminal states are exactly
``succeeded`` / ``failed`` / ``cancelled``: every submitted job reaches
one of them (the chaos suite asserts this under injected crashes of both
the runner and the server itself), and ``failed`` always carries a
recorded ``cause``.

Everything here is plain data — JSON-serialisable both ways — because the
write-ahead job store (:mod:`repro.service.wal`) persists full records
and the crash-recovery path rebuilds the in-memory job table purely from
them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any

from repro.core import CHECKPOINTED_ALGORITHMS
from repro.parallel.config import MODES

#: Job states (see the module docstring for the transition diagram).
QUEUED = "queued"
RUNNING = "running"
SUCCEEDED = "succeeded"
FAILED = "failed"
CANCELLED = "cancelled"

#: States a job can never leave.
TERMINAL_STATES = frozenset({SUCCEEDED, FAILED, CANCELLED})

#: All recognised states.
ALL_STATES = frozenset({QUEUED, RUNNING}) | TERMINAL_STATES

#: Algorithms a job may request: those that checkpoint after every level,
#: since a service job must be resumable by construction.
JOB_ALGORITHMS = CHECKPOINTED_ALGORITHMS


class JobValidationError(ValueError):
    """A submitted job spec is malformed (HTTP 400, never enqueued)."""


@dataclass(frozen=True)
class JobSpec:
    """The immutable *what* of a job, exactly as submitted.

    ``dataset`` is a connector reference (``builtin:adults?rows=2000``,
    ``csv:/path/data.csv``, ``sqlite:/path/db.sqlite#people``,
    ``memory:name`` — see :mod:`repro.service.connectors`).  ``qi`` and
    ``hierarchies`` are required for connector kinds that carry no schema
    of their own (csv/sqlite/memory); builtin datasets bring both.
    """

    dataset: str
    k: int
    algorithm: str = "basic"
    qi: tuple[str, ...] | None = None
    hierarchies: dict[str, Any] | None = None
    max_suppression: int = 0
    mode: str = "serial"
    workers: int = 1
    shard_rows: int | None = None
    deadline_seconds: float | None = None
    tenant: str = "default"

    def validate(self) -> None:
        """Raise :class:`JobValidationError` on any malformed field."""
        if not isinstance(self.dataset, str) or not self.dataset:
            raise JobValidationError("dataset reference must be a non-empty string")
        if not isinstance(self.k, int) or self.k < 1:
            raise JobValidationError(f"k must be an int >= 1, got {self.k!r}")
        if self.algorithm not in JOB_ALGORITHMS:
            raise JobValidationError(
                f"algorithm must be one of {JOB_ALGORITHMS}, got {self.algorithm!r}"
            )
        if self.mode not in MODES:
            raise JobValidationError(
                f"mode must be one of {MODES}, got {self.mode!r}"
            )
        if not isinstance(self.workers, int) or self.workers < 1:
            raise JobValidationError(
                f"workers must be an int >= 1, got {self.workers!r}"
            )
        if self.shard_rows is not None and (
            not isinstance(self.shard_rows, int) or self.shard_rows < 1
        ):
            raise JobValidationError(
                f"shard_rows must be an int >= 1 or null, got {self.shard_rows!r}"
            )
        if not isinstance(self.max_suppression, int) or self.max_suppression < 0:
            raise JobValidationError(
                f"max_suppression must be an int >= 0, got {self.max_suppression!r}"
            )
        if self.deadline_seconds is not None and not (
            isinstance(self.deadline_seconds, (int, float))
            and self.deadline_seconds > 0
        ):
            raise JobValidationError(
                f"deadline_seconds must be positive or null, "
                f"got {self.deadline_seconds!r}"
            )
        if not isinstance(self.tenant, str) or not self.tenant:
            raise JobValidationError("tenant must be a non-empty string")

    def to_json(self) -> dict[str, Any]:
        data = asdict(self)
        data["qi"] = list(self.qi) if self.qi is not None else None
        return data

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "JobSpec":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        unknown = set(data) - known
        if unknown:
            raise JobValidationError(
                f"unknown job spec field(s): {', '.join(sorted(unknown))}"
            )
        qi = data.get("qi")
        return cls(
            **{
                **data,
                "qi": tuple(qi) if qi is not None else None,
            }
        )


@dataclass
class JobRecord:
    """The mutable *where-is-it* of a job: state, attempts, timestamps.

    Persisted in full on every transition (last-write-wins replay), so a
    record read back from the WAL is the complete truth about the job.
    Timestamps are wall-clock seconds (``time.time``) — they cross
    process restarts, which monotonic clocks cannot.
    """

    id: str
    seq: int
    spec: JobSpec
    state: str = QUEUED
    attempt: int = 0
    max_attempts: int = 3
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    #: Recorded cause of a terminal ``failed`` state (always set there).
    cause: str | None = None
    #: True once any re-run consumed a checkpoint left by an earlier
    #: attempt (retry, drain, or server-crash recovery).
    resumed: bool = False
    #: True when the job was re-queued by crash recovery at server start.
    recovered: bool = False
    #: The job's trace position (W3C-style ``traceparent``), assigned at
    #: submission and persisted so every attempt — including one launched
    #: after a server restart — continues the *same* trace.
    traceparent: str | None = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def active(self) -> bool:
        """Queued or running — the states admission control budgets."""
        return not self.terminal

    def summary(self) -> dict[str, Any]:
        """The list-endpoint rendering (no spec payload)."""
        return {
            "id": self.id,
            "state": self.state,
            "tenant": self.spec.tenant,
            "algorithm": self.spec.algorithm,
            "k": self.spec.k,
            "attempt": self.attempt,
            "resumed": self.resumed,
            "recovered": self.recovered,
            "cause": self.cause,
        }

    def to_json(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "seq": self.seq,
            "spec": self.spec.to_json(),
            "state": self.state,
            "attempt": self.attempt,
            "max_attempts": self.max_attempts,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "cause": self.cause,
            "resumed": self.resumed,
            "recovered": self.recovered,
            "traceparent": self.traceparent,
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "JobRecord":
        state = data.get("state", QUEUED)
        if state not in ALL_STATES:
            raise JobValidationError(f"unknown job state {state!r}")
        return cls(
            id=str(data["id"]),
            seq=int(data["seq"]),
            spec=JobSpec.from_json(data["spec"]),
            state=state,
            attempt=int(data.get("attempt", 0)),
            max_attempts=int(data.get("max_attempts", 3)),
            submitted_at=float(data.get("submitted_at", 0.0)),
            started_at=data.get("started_at"),
            finished_at=data.get("finished_at"),
            cause=data.get("cause"),
            resumed=bool(data.get("resumed", False)),
            recovered=bool(data.get("recovered", False)),
            traceparent=data.get("traceparent"),
        )


def job_id_for(seq: int) -> str:
    """Deterministic job id from the store's monotonic sequence number."""
    return f"j{seq:08d}"


@dataclass
class AdmissionError(Exception):
    """A structurally valid job the server *refuses* to enqueue.

    ``reason`` is machine-readable (``queue_full`` / ``tenant_budget`` /
    ``draining``) and becomes the HTTP 429/503 body — overload is an
    explicit, bounded rejection, never unbounded queue growth.

    Deliberately *not* a frozen dataclass: the interpreter (and every
    contextlib ``__exit__``) assigns ``__traceback__`` on a propagating
    exception, which a frozen ``__setattr__`` turns into a baffling
    ``FrozenInstanceError`` far from the raise site.
    """

    reason: str
    detail: str

    def __str__(self) -> str:
        return f"{self.reason}: {self.detail}"
