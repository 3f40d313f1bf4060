"""Layer spans recorded from outside the program.

A traced run wraps the public functions at each layer boundary by
replacing the attribute its caller looks up (the call site), records one
span per call in memory, and restores every attribute afterwards.  The
program's own tracer is never touched, so an untraced run executes
exactly the code a user runs.

Functions reached only inside spawned processes (shard workers, service
runners) cannot be wrapped this way; their time comes from what the
program already reports (worker histograms, job records and job traces).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

#: (module, attribute path, span name, amount).  ``amount(arguments,
#: result)`` gives the span's unit count from the call's bound arguments:
#: rows scanned, source groups rolled up, partial groups merged,
#: candidates generated.
Amount = Callable[[dict, Any], int]
PATCHES: tuple[tuple[str, str, str, Amount | None], ...] = (
    ("repro.core.anonymity", "compute_frequency_set", "scan",
     lambda a, result: a["problem"].num_rows),
    ("repro.core.anonymity", "compute_frequency_set_range", "scan",
     lambda a, result: a["stop"] - a["start"]),
    ("repro.hierarchy.base", "CompiledHierarchy.generalize_codes", "generalize",
     None),
    ("repro.core.anonymity", "group_by_codes", "groupby", None),
    ("repro.core.anonymity", "FrequencySet.rollup", "rollup",
     lambda a, result: a["self"].num_groups),
    ("repro.core.anonymity", "FrequencySet.project", "rollup",
     lambda a, result: a["self"].num_groups),
    ("repro.core.outofcore", "merge_partials", "merge",
     lambda a, result: sum(len(keys) for keys in a["partial_keys"])),
    ("repro.core.incognito", "graph_generation", "lattice",
     lambda a, result: len(result)),
    ("repro.parallel.evaluator", "BatchMaterializer.materialize_batch", "batch",
     None),
    ("repro.incremental.session", "IncrementalSession.append", "append", None),
)


class Recorder:
    """Spans kept in memory as ``[name, start, end, parent, amount]``.

    ``parent`` is the index of the enclosing span opened by the same
    thread, or -1.  Nothing is written until :meth:`write`.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        record = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
        with self._lock:
            stack.append(len(self.spans))
            self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._local.stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[list]:
        """Record one span around the body; yields the mutable record."""
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    def wrap(self, name: str, function: Callable, amount: Amount | None) -> Callable:
        """``function`` recording one ``name`` span per call."""
        signature = inspect.signature(function)

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            record = self._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self._close(record)
            if amount is not None:
                arguments = signature.bind(*args, **kwargs).arguments
                record[4] = int(amount(arguments, result))
            return result

        return wrapper

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds, amount.

        Self time is a span's duration minus the durations of its child
        spans; children of one span never overlap because each thread
        nests its own spans.
        """
        child_seconds = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_seconds[parent] += end - start
        totals: dict[str, dict[str, float]] = {}
        for index, (name, start, end, _, amount) in enumerate(self.spans):
            entry = totals.setdefault(
                name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0, "amount": 0}
            )
            entry["calls"] += 1
            entry["inclusive_s"] += end - start
            entry["self_s"] += end - start - child_seconds[index]
            entry["amount"] += amount
        return totals

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (name, start, end, parent, amount)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, amount in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "amount": amount}
                    )
                    + "\n"
                )


def _resolve(module_name: str, path: str) -> tuple[Any, str]:
    """The object holding ``path``'s last attribute (None if it is gone)."""
    *owners, attribute = path.split(".")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None, attribute
    for name in owners:
        owner = getattr(owner, name, None)
    return owner, attribute


@contextmanager
def patched(recorder: Recorder) -> Iterator[None]:
    """Install a wrapper at every call site in :data:`PATCHES`, then restore.

    A call site the program no longer has is reported and skipped, so its
    layer reads zero instead of the traced run failing.
    """
    originals: list[tuple[Any, str, Any]] = []
    try:
        for module_name, path, name, amount in PATCHES:
            owner, attribute = _resolve(module_name, path)
            original = vars(owner).get(attribute) if owner is not None else None
            if original is None:
                print(f"trace: no call site {module_name}.{path}", file=sys.stderr)
                continue
            originals.append((owner, attribute, original))
            setattr(owner, attribute, recorder.wrap(name, original, amount))
        yield
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)
