"""Level-granular checkpoint/resume for the long-running lattice searches.

The search algorithms are level-synchronous: at the end of every completed
unit of work — an Incognito iteration (one a-priori subset size), a
bottom-up lattice height, a binary-search probe — the algorithm's entire
progress is describable as plain data (which nodes survived or were
marked, the boundary frequency sets children still roll up from, the run's
counters).  :class:`CheckpointStore` persists exactly that snapshot after
each unit, atomically (write-temp-fsync-rename, see
:mod:`repro.resilience.atomicio`), so a killed run can be resumed with
``--resume`` and *never re-does a completed level* — completed levels are
replayed from the snapshot (pure graph work, no table scans), and their
counters are restored rather than recomputed.

A checkpoint is only trusted when its header matches the run asking to
resume: same algorithm, same ``k`` / suppression budget, and the same
*content* fingerprint of the prepared table (the in-memory
``cache_fingerprint`` is identity-based and so useless across processes —
:func:`problem_fingerprint` hashes the encoded columns and hierarchy
shapes instead).  A mismatched or missing file simply means "start
fresh"; a torn file cannot exist by construction.

Fixed-signature callers (the bench harness's algorithm table, the CLI's
figure sweeps) opt in through a region default: :func:`use_checkpoints`
installs a directory, and each search run
(:class:`repro.core.run.SearchRun`) names its own file there after its
header.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Sequence

import numpy as np

from repro.resilience.atomicio import atomic_write_json

if TYPE_CHECKING:  # typing only: keep the core <-> resilience cycle lazy
    from repro.core.problem import PreparedTable
    from repro.lattice.node import LatticeNode

#: Schema version of the checkpoint files.
CHECKPOINT_FORMAT = 1


class CheckpointError(RuntimeError):
    """A checkpoint file exists but cannot be parsed."""


class ChainMismatchWarning(UserWarning):
    """A version-chained checkpoint diverged from the live dataset.

    Emitted (never raised) when an incremental session finds that some
    suffix of its persisted fingerprint chain no longer matches the data —
    the session falls back to the longest valid prefix, and the warning
    names exactly which delta diverged (see :meth:`ChainMatch.describe`).
    """


# ----------------------------------------------------------------------
# codecs
# ----------------------------------------------------------------------
def problem_fingerprint(problem: "PreparedTable") -> str:
    """Content hash of the prepared data, stable across processes.

    Covers the quasi-identifier (names and order), every hierarchy's level
    structure, and the dictionary-encoded column data — i.e. everything a
    frequency set depends on.  Two processes preparing the same CSV with
    the same spec produce the same fingerprint.
    """
    digest = hashlib.sha256()
    digest.update(repr((problem.quasi_identifier, problem.num_rows)).encode())
    for name in problem.quasi_identifier:
        hierarchy = problem.hierarchy(name)
        shape = tuple(
            hierarchy.cardinality(level)
            for level in range(hierarchy.height + 1)
        )
        digest.update(repr((name, shape)).encode())
        codes = problem.table.column(name).codes
        digest.update(np.ascontiguousarray(codes).tobytes())
    return digest.hexdigest()


def segment_fingerprint(
    problem: "PreparedTable", start: int, stop: int
) -> str:
    """Content hash of the quasi-identifier data in rows ``[start, stop)``.

    The chain element for one appended delta of a versioned dataset.
    Chain-stable by construction: dictionary encoding appends new values
    *after* the existing codes (``Column.concat``), so the codes of rows
    already in the table never change when later deltas arrive — the same
    slice hashed at any later version yields the same digest.  Unlike
    :func:`problem_fingerprint` it deliberately excludes the hierarchy
    shapes, which *do* grow as deltas introduce new values; the base
    segment of a chain uses the full :func:`problem_fingerprint` instead.
    """
    digest = hashlib.sha256()
    digest.update(
        repr((problem.quasi_identifier, int(start), int(stop))).encode()
    )
    for name in problem.quasi_identifier:
        codes = problem.table.column(name).codes[start:stop]
        digest.update(np.ascontiguousarray(codes).tobytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class ChainMatch:
    """Outcome of validating a stored version chain against the live one.

    ``matched`` counts the leading chain elements (base fingerprint plus
    ordered delta fingerprints) that agree; everything derived from those
    segments — persisted delta pieces covering at most
    ``offsets[matched]`` rows — remains reusable.  When a mid-chain
    element disagrees, ``diverged_index`` pinpoints it (0 is the base
    segment, i >= 1 is delta i) together with both fingerprints, so the
    operator learns *which* append no longer matches instead of silently
    losing the whole checkpoint.
    """

    matched: int
    stored: int
    expected: int
    diverged_index: int | None = None
    expected_fingerprint: str | None = None
    found_fingerprint: str | None = None

    @property
    def full(self) -> bool:
        """Whether the stored chain covers the live chain exactly."""
        return (
            self.diverged_index is None
            and self.matched == self.expected
            and self.stored == self.expected
        )

    def describe(self) -> str:
        if self.diverged_index is not None:
            which = (
                "the base segment"
                if self.diverged_index == 0
                else f"delta {self.diverged_index}"
            )
            return (
                f"checkpoint version chain diverged at {which}: expected "
                f"{self.expected_fingerprint}, found "
                f"{self.found_fingerprint}; falling back to the longest "
                f"valid prefix ({self.matched} of {self.expected} "
                f"segment(s))"
            )
        if self.full:
            return (
                f"checkpoint version chain matches all "
                f"{self.expected} segment(s)"
            )
        if self.stored > self.expected:
            return (
                f"checkpoint version chain holds {self.stored} segments "
                f"but the dataset has only {self.expected}; reusing the "
                f"{self.matched} that match"
            )
        return (
            f"checkpoint version chain covers {self.matched} of "
            f"{self.expected} segment(s); the rest will be computed fresh"
        )


def match_chain(
    stored: Sequence[str], expected: Sequence[str]
) -> ChainMatch:
    """Longest-common-prefix comparison of two fingerprint chains."""
    stored = [str(item) for item in stored]
    expected = [str(item) for item in expected]
    for index in range(min(len(stored), len(expected))):
        if stored[index] != expected[index]:
            return ChainMatch(
                matched=index,
                stored=len(stored),
                expected=len(expected),
                diverged_index=index,
                expected_fingerprint=expected[index],
                found_fingerprint=stored[index],
            )
    return ChainMatch(
        matched=min(len(stored), len(expected)),
        stored=len(stored),
        expected=len(expected),
    )


def node_to_json(node: "LatticeNode") -> dict[str, Any]:
    return {"a": list(node.attributes), "l": list(node.levels)}


def node_from_json(data: dict[str, Any]) -> "LatticeNode":
    from repro.lattice.node import LatticeNode

    return LatticeNode(tuple(data["a"]), tuple(int(x) for x in data["l"]))


def nodes_to_json(nodes) -> list[dict[str, Any]]:
    return [node_to_json(node) for node in nodes]


def nodes_from_json(items) -> list["LatticeNode"]:
    return [node_from_json(item) for item in items]


def frequency_set_to_json(frequency_set: Any) -> dict[str, Any]:
    """JSON-encode one frequency set (node + raw code/count arrays).

    Also encodes an incremental session's delta pieces, which carry the
    same three fields.  Only used for *boundary* sets — the handful of
    per-level rollup sources the next level still needs — and for those
    pieces, never whole caches, so the plain-list encoding stays small.
    """
    return {
        "node": node_to_json(frequency_set.node),
        "key_codes": frequency_set.key_codes.tolist(),
        "counts": frequency_set.counts.tolist(),
    }


def frequency_arrays_from_json(
    data: dict[str, Any],
) -> tuple["LatticeNode", np.ndarray, np.ndarray]:
    """The node, key codes and counts :func:`frequency_set_to_json` wrote."""
    from repro.relational.column import CODE_DTYPE

    node = node_from_json(data["node"])
    key_codes = np.asarray(data["key_codes"], dtype=CODE_DTYPE).reshape(
        -1, len(node.attributes)
    )
    return node, key_codes, np.asarray(data["counts"], dtype=np.int64)


def frequency_set_from_json(data: dict[str, Any], problem: Any) -> Any:
    """Rebuild a frequency set persisted with :func:`frequency_set_to_json`."""
    from repro.core.anonymity import FrequencySet

    return FrequencySet(*frequency_arrays_from_json(data), problem)


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------
#: Internal sentinel: a checkpoint file exists but cannot be trusted.
_CORRUPT = object()


class CheckpointStore:
    """Atomic persistence of one search's level-granular progress.

    Corruption is survived, not raised: ``atomic_write_json`` makes a
    torn *write* impossible on POSIX-atomic filesystems, but power loss
    mid-rename on filesystems without atomic replacement, bit rot, or a
    stray editor can still leave an unparseable file.  :meth:`load`
    detects that, **quarantines** the bad file (renamed with a
    ``.quarantined`` suffix so the evidence survives for inspection) and
    falls back to the *previous* level's snapshot — :meth:`save` rotates
    the outgoing checkpoint to a ``.prev`` sibling before writing the new
    one — so a resumable run loses at most one level of progress instead
    of crashing at startup.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        #: Number of successful saves performed through this store.
        self.saves = 0
        #: Files quarantined by :meth:`load` (empty in healthy runs).
        self.quarantined: list[Path] = []
        #: True when the last load served the rotated previous snapshot.
        self.fell_back = False

    @property
    def previous_path(self) -> Path:
        """Where :meth:`save` rotates the outgoing snapshot."""
        return self.path.with_name(self.path.name + ".prev")

    def load(self) -> dict[str, Any] | None:
        """The persisted state, or None when no usable checkpoint exists.

        A corrupt current file is quarantined and the previous level's
        rotated snapshot is served instead; if that is also missing or
        corrupt, the result is None — "start fresh", never an exception.
        """
        self.fell_back = False
        state = self._read_state(self.path)
        if state is _CORRUPT:
            self._quarantine(self.path)
            state = self._read_state(self.previous_path)
            if state is _CORRUPT:
                self._quarantine(self.previous_path)
                state = None
            elif state is not None:
                self.fell_back = True
        return state  # type: ignore[return-value]

    def _read_state(self, path: Path):
        """Parse one checkpoint file: dict, None (absent), or _CORRUPT."""
        try:
            text = path.read_text()
        except (FileNotFoundError, OSError):
            return None
        try:
            state = json.loads(text)
        except json.JSONDecodeError:
            return _CORRUPT
        return state if isinstance(state, dict) else _CORRUPT

    def _quarantine(self, path: Path) -> None:
        """Move a bad file aside (never deleted: it is evidence)."""
        target = path.with_name(path.name + ".quarantined")
        try:
            path.replace(target)
        except OSError:
            return
        self.quarantined.append(target)

    def load_matching(self, header: dict[str, Any]) -> dict[str, Any] | None:
        """The state if every ``header`` field matches, else None.

        A header mismatch (different algorithm, k, fingerprint, or format)
        is not an error — it means the checkpoint belongs to a different
        run and the caller should start fresh (the next save overwrites).
        """
        state = self.load()
        if state is None:
            return None
        for key, expected in header.items():
            if state.get(key) != expected:
                return None
        return state

    def load_chain(
        self, header: dict[str, Any], chain: Sequence[str]
    ) -> tuple[dict[str, Any] | None, ChainMatch | None]:
        """Chain-aware load: the state plus how much of its chain is valid.

        Non-chain ``header`` fields (algorithm, k, format, ...) behave
        like :meth:`load_matching` — any mismatch means "different run,
        start fresh" and returns ``(None, None)``.  The stored ``"chain"``
        list, however, is *diffed* against the live ``chain`` rather than
        discarded on inequality: the returned :class:`ChainMatch` reports
        the longest matching prefix and, on divergence, exactly which
        segment disagrees with which fingerprints — so a caller can keep
        every piece of state derived from the still-valid prefix instead
        of silently throwing the whole checkpoint away.
        """
        state = self.load_matching(header)
        if state is None:
            return None, None
        stored = state.get("chain")
        if not isinstance(stored, list):
            raise CheckpointError(
                f"checkpoint {self.path} carries no version chain; "
                f"delete it to start fresh"
            )
        return state, match_chain(stored, chain)

    def save(self, state: dict[str, Any]) -> None:
        """Atomically persist ``state``, rotating the old snapshot aside.

        The outgoing checkpoint becomes ``<name>.prev`` *before* the new
        one is written, so there is always a one-level-older fallback for
        :meth:`load` to quarantine-recover into.  A crash between the
        rotate and the write leaves only ``.prev`` — a resume then redoes
        exactly one level, which is the degradation contract.
        """
        try:
            self.path.replace(self.previous_path)
        except OSError:
            pass  # first save, or rotation impossible — never blocks saving
        atomic_write_json(self.path, state)
        self.saves += 1

    def clear(self) -> None:
        self.path.unlink(missing_ok=True)
        self.previous_path.unlink(missing_ok=True)

    def __repr__(self) -> str:
        return f"CheckpointStore({str(self.path)!r}, saves={self.saves})"


# ----------------------------------------------------------------------
# region default (fixed-signature callers: bench table, figure sweeps)
# ----------------------------------------------------------------------
_default_dir: Path | None = None
_default_resume: bool = False


@contextmanager
def use_checkpoints(
    directory: str | Path | None, resume: bool = False
) -> Iterator[Path | None]:
    """Temporarily install a region-default checkpoint directory."""
    global _default_dir, _default_resume
    previous = (_default_dir, _default_resume)
    _default_dir = Path(directory) if directory is not None else None
    _default_resume = bool(resume)
    try:
        yield _default_dir
    finally:
        _default_dir, _default_resume = previous


def current_checkpoints() -> tuple[Path | None, bool]:
    """The region-default checkpoint directory and resume flag."""
    return _default_dir, _default_resume
