"""Versioned append-only datasets and incremental re-anonymization.

:class:`VersionedDataset` owns the append chain: the concatenated table,
the row offset of every version boundary, and the content-fingerprint
chain — the base version's full :func:`~repro.resilience.checkpoint.problem_fingerprint`
followed by one :func:`~repro.resilience.checkpoint.segment_fingerprint`
per appended delta.  Appending rebuilds the :class:`PreparedTable` from
the *abstract* hierarchies, which re-compiles over the grown dictionaries;
because dictionary codes and first-seen level codes are both
prefix-stable, every frequency set computed at an earlier version remains
the exact partial set of its row prefix in the new version.

:class:`IncrementalSession` drives re-anonymization over that chain: it
keeps a :class:`~repro.core.fscache.DeltaContext` of remembered
per-node prefix sets, installs it for each run so the evaluator scans only
the appended suffix (scan plans with a remembered base), and — when given
a checkpoint directory — persists the pieces together with the fingerprint
chain so a later process (or a killed-and-resumed run) picks up exactly
where the data left off.  A chain mismatch is reported precisely (which delta, both
fingerprints — :class:`~repro.resilience.checkpoint.ChainMatch`) and the
session falls back to the longest valid prefix instead of discarding
everything.

The correctness contract is differential, not analytical: an incremental
run returns results, frequency sets, and ``frequency.*`` counters
bit-identical to a from-scratch run on the concatenated table (the delta
plan replaces only the physical *scan*; every search decision sees the
same merged sets), with the saved work visible under the
``incremental.*`` counters and ``latency.delta_*`` metrics.  See
DESIGN.md §11.
"""

from __future__ import annotations

import warnings
from pathlib import Path
from typing import Any, Callable

from repro import obs
from repro.core import ALGORITHMS as CORE_ALGORITHMS
from repro.core.fscache import (
    DEFAULT_MAX_BYTES,
    DeltaContext,
    DeltaPiece,
    use_delta_context,
)
from repro.core.problem import PreparedTable
from repro.core.result import AnonymizationResult
from repro.relational.table import Table
from repro.resilience.checkpoint import (
    CHECKPOINT_FORMAT,
    ChainMatch,
    ChainMismatchWarning,
    CheckpointStore,
    frequency_arrays_from_json,
    frequency_set_to_json,
    problem_fingerprint,
    segment_fingerprint,
)

#: The incremental-capable search algorithms, by CLI tag.
ALGORITHMS: dict[str, Callable[..., AnonymizationResult]] = {
    tag: CORE_ALGORITHMS[tag] for tag in ("basic", "bottomup", "binary")
}


class VersionedDataset:
    """An append-only dataset: version offsets plus a fingerprint chain."""

    def __init__(self, problem: PreparedTable) -> None:
        self.quasi_identifier = problem.quasi_identifier
        #: Abstract hierarchies, re-compiled over each version's dictionary.
        self._hierarchies = {
            name: problem.hierarchy(name).source
            for name in self.quasi_identifier
        }
        self.problem = problem
        #: ``offsets[i]`` is the first row of segment i; the final entry is
        #: the current row count.  Version v spans ``[0, offsets[v + 1])``.
        self.offsets: list[int] = [0, problem.num_rows]
        #: chain[0] is the base problem fingerprint (columns + hierarchy
        #: shapes); chain[i >= 1] fingerprints delta i's appended rows.
        self.fingerprints: list[str] = [problem_fingerprint(problem)]

    @property
    def num_versions(self) -> int:
        return len(self.fingerprints)

    @property
    def version(self) -> int:
        """The current version index (0 is the base dataset)."""
        return self.num_versions - 1

    @property
    def num_rows(self) -> int:
        return self.problem.num_rows

    def append(self, delta: Table) -> PreparedTable:
        """Append ``delta``'s rows and return the new version's problem.

        ``delta`` must carry at least the same column names as the base
        table (checked by :meth:`Table.concat`).  An empty delta is legal
        — it creates a new (identical-content) version whose chain element
        fingerprints zero rows.
        """
        table = self.problem.table.concat(delta)
        problem = PreparedTable(
            table, self._hierarchies, self.quasi_identifier
        )
        self.problem = problem
        self.offsets.append(problem.num_rows)
        self.fingerprints.append(
            segment_fingerprint(problem, self.offsets[-2], self.offsets[-1])
        )
        return problem


class IncrementalSession:
    """Re-anonymize a growing dataset, reusing all prior frequency work.

    Usage::

        session = IncrementalSession(problem, k=2, algorithm="basic",
                                     checkpoint_dir="ckpts/")
        session.run()                 # version 0 (full scans)
        session.append(delta_table)   # version 1
        session.run()                 # delta scans + exact merges only

    Each :meth:`run` forwards to the configured search algorithm with the
    session's delta context installed; with a checkpoint directory, the
    algorithm's own level-granular checkpoint (kill/resume inside one
    version) and the session's chain file (pieces + fingerprint chain,
    reuse *across* versions and processes) are both maintained.
    """

    def __init__(
        self,
        problem: PreparedTable,
        k: int,
        *,
        algorithm: str = "basic",
        max_suppression: int = 0,
        checkpoint_dir: str | Path | None = None,
        max_bytes: int | None = None,
    ) -> None:
        if algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown incremental algorithm {algorithm!r} "
                f"(choose from {sorted(ALGORITHMS)})"
            )
        self.algorithm = algorithm
        self._run_algorithm = ALGORITHMS[algorithm]
        self.k = int(k)
        self.max_suppression = int(max_suppression)
        self.dataset = VersionedDataset(problem)
        self.context = DeltaContext(
            max_bytes if max_bytes is not None else DEFAULT_MAX_BYTES
        )
        self.context.rebind(problem)
        self.checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        #: How the persisted chain compared to the live one (None until the
        #: first run of a checkpointed session, or when nothing was stored).
        self.chain_report: ChainMatch | None = None
        self._state_installed = self.checkpoint_dir is None

    # ------------------------------------------------------------------
    # the append chain
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        return self.dataset.version

    def append(self, delta: Table) -> PreparedTable:
        """Grow the dataset by one delta; the next :meth:`run` covers it."""
        problem = self.dataset.append(delta)
        self.context.rebind(problem)
        return problem

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(self, *, resume: bool = False, **kwargs: Any) -> AnonymizationResult:
        """Anonymize the current version, reusing every remembered prefix.

        ``resume=True`` additionally resumes the algorithm's own
        level-granular checkpoint (a run killed mid-version); extra
        keyword arguments (``execution=``, ``cache=``, ...) pass through
        to the algorithm.
        """
        if not self._state_installed:
            self._install_state()
            self._state_installed = True
        problem = self.dataset.problem
        checkpoint = (
            CheckpointStore(self._run_checkpoint_path())
            if self.checkpoint_dir is not None
            else None
        )
        with use_delta_context(self.context):
            with obs.span(
                "incremental.version",
                version=self.version,
                algorithm=self.algorithm,
                rows=problem.num_rows,
            ):
                result = self._run_algorithm(
                    problem,
                    self.k,
                    max_suppression=self.max_suppression,
                    checkpoint=checkpoint,
                    resume=resume,
                    **kwargs,
                )
        if self.checkpoint_dir is not None:
            self.save()
        return result

    # ------------------------------------------------------------------
    # persistence (the version-chained session state)
    # ------------------------------------------------------------------
    def _chain_path(self) -> Path:
        assert self.checkpoint_dir is not None
        return (
            self.checkpoint_dir
            / f"incremental-{self.algorithm}-k{self.k}.chain.json"
        )

    def _run_checkpoint_path(self) -> Path:
        """The algorithm's own per-version checkpoint file.

        One fixed path: its header carries the current version's full
        problem fingerprint, so a leftover checkpoint from an earlier
        version simply fails to match and is overwritten — only a run
        killed mid-version finds (and resumes) a matching snapshot.
        """
        assert self.checkpoint_dir is not None
        return (
            self.checkpoint_dir
            / f"incremental-{self.algorithm}-k{self.k}.run.ckpt.json"
        )

    def _header(self) -> dict[str, Any]:
        return {
            "format": CHECKPOINT_FORMAT,
            "kind": "incremental-chain",
            "algorithm": self.algorithm,
            "k": self.k,
            "max_suppression": self.max_suppression,
            "qi": list(self.dataset.quasi_identifier),
        }

    def save(self) -> None:
        """Atomically persist the fingerprint chain and every piece."""
        state = dict(self._header())
        state["chain"] = list(self.dataset.fingerprints)
        state["pieces"] = [
            {**frequency_set_to_json(piece), "covered_rows": piece.covered_rows}
            for piece in self.context.pieces()
        ]
        CheckpointStore(self._chain_path()).save(state)

    def _install_state(self) -> None:
        """Adopt persisted pieces covered by the valid chain prefix."""
        store = CheckpointStore(self._chain_path())
        state, match = store.load_chain(
            self._header(), self.dataset.fingerprints
        )
        self.chain_report = match
        if state is None or match is None:
            return
        # A strict-prefix stored chain is the normal cross-process handoff
        # (the stored state simply predates the latest appends); only a
        # genuine divergence — or a stored chain *longer* than the live
        # one — is worth a warning.
        if match.diverged_index is not None or match.stored > match.expected:
            warnings.warn(match.describe(), ChainMismatchWarning)
        valid_rows = self.dataset.offsets[match.matched]
        valid_offsets = set(self.dataset.offsets[: match.matched + 1])
        for item in state.get("pieces", []):
            covered = int(item["covered_rows"])
            if covered > valid_rows or covered not in valid_offsets:
                continue
            node, key_codes, counts = frequency_arrays_from_json(item)
            self.context.install(DeltaPiece(node, covered, key_codes, counts))
