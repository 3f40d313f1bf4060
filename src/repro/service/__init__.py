"""``repro.service`` — anonymization as a crash-safe asynchronous service.

ROADMAP item 2: the batch reproduction wrapped in a long-lived,
multi-tenant job server.  The paper's algorithms stay untouched — the
service composes the machinery previous PRs built (supervised parallel
evaluation, checkpoint/resume, seeded fault injection, shared-memory
shards, the obs registry) into a serving layer whose headline property is
robustness:

* **jobs** (:mod:`repro.service.jobs`) — the explicit job state machine
  (``queued → running → succeeded | failed | cancelled``), validated
  specs, and admission errors;
* **connectors** (:mod:`repro.service.connectors`) — datasets by
  reference: ``builtin:``, ``csv:``, ``sqlite:``, ``memory:``;
* **wal** (:mod:`repro.service.wal`) — write-ahead, fsync'd persistence
  of every transition; queued/running jobs survive a server SIGKILL;
* **runner** (:mod:`repro.service.runner`) — per-job subprocesses,
  forked from a preloaded fork server, with heartbeats, SIGTERM-drain,
  checkpoint resume, and the bit-identity result fingerprint the chaos
  suite asserts;
* **manager** (:mod:`repro.service.manager`) — admission control,
  bounded retries with backoff, heartbeat/deadline watchdogs, startup
  recovery (including the shared-memory orphan sweep), graceful drain;
* **server** (:mod:`repro.service.server`) — the asyncio HTTP/JSON front
  end (``repro serve``), ``/healthz`` + ``/metrics`` included;
* **client** (:mod:`repro.service.client`) — a stdlib client used by the
  chaos harness, the bench workload, and the tests.

DESIGN.md §12 documents the failure model (state machine, WAL format,
drain semantics) in full.
"""

from repro.service.client import ServiceClient, ServiceUnavailable
from repro.service.connectors import (
    ConnectorError,
    describe_connectors,
    load_problem,
    load_table,
    parse_ref,
    register_memory_dataset,
    unregister_memory_dataset,
)
from repro.service.jobs import (
    JOB_ALGORITHMS,
    TERMINAL_STATES,
    AdmissionError,
    JobRecord,
    JobSpec,
    JobValidationError,
)
from repro.service.manager import JobManager
from repro.service.server import ServiceServer, run_server
from repro.service.wal import JobStore

__all__ = [
    "JOB_ALGORITHMS",
    "TERMINAL_STATES",
    "AdmissionError",
    "ConnectorError",
    "JobManager",
    "JobRecord",
    "JobSpec",
    "JobStore",
    "JobValidationError",
    "ServiceClient",
    "ServiceServer",
    "ServiceUnavailable",
    "describe_connectors",
    "load_problem",
    "load_table",
    "parse_ref",
    "register_memory_dataset",
    "run_server",
    "unregister_memory_dataset",
]
