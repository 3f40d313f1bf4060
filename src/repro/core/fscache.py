"""Remembered frequency sets (``repro.core.fscache``).

The paper's central cost observation is that frequency sets are expensive
to obtain from the base table and cheap to derive from one another (the
rollup property).  The engine remembers computed sets in two stores, each
a :class:`NodeStore`: a least-recently-used map keyed by lattice node
(QI-subset, domain vector) under an approximate byte budget (``key_codes``
+ ``counts`` array sizes); an entry bigger than the whole budget is not
admitted at all rather than churning the store.

:class:`FrequencySetCache` memoizes sets *across* algorithm runs.  On an
exact miss it offers the nearest cached **ancestor** — a set of the same
attribute subset at componentwise lower-or-equal levels — so the evaluator
can roll up instead of re-scanning: every node a failed binary-search
probe scanned serves a later, higher probe, and the sets Bottom-Up
materialises serve Basic Incognito's roots as exact hits in a figure
sweep.  It is bound to the prepared table it was filled from
(:meth:`FrequencySetCache.bind`); binding a different problem clears it.
Run-level ``cache.*`` accounting is recorded by the consuming
:class:`~repro.core.anonymity.FrequencyEvaluator` into its
:class:`~repro.core.stats.SearchStats`; the cache keeps lifetime totals.

:class:`DeltaContext` carries sets across appended *dataset versions*
(:mod:`repro.incremental`, DESIGN.md §11): per node, the last set an
algorithm materialised and how many leading rows it covers.  Dictionary
encoding appends new values after the existing codes and compiled
hierarchies assign level codes in first-seen base order, so a remembered
set stays the exact partial set of its row prefix: the evaluator scans only
the appended rows and merges (:func:`repro.core.outofcore.merge_partials`).
An evaluator adopts the context when its problem is the bound version
(same ``cache_fingerprint``, so QI-subset views share it).  Evicting a
piece costs speed (the node is scanned in full), never correctness.

Each is installed as the region default for a block of code
(:func:`use_cache`, :func:`use_delta_context`), so fixed-signature callers
— the bench harness, the CLI, an incremental session — opt whole runs in
without threading a parameter through every layer.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from typing import TYPE_CHECKING, Generic, Iterator, Protocol, TypeVar

from repro.obs.counters import CounterSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    import numpy as np

    from repro.core.anonymity import FrequencySet
    from repro.core.problem import PreparedTable
    from repro.lattice.node import LatticeNode

#: Default byte budget (64 MiB) — roughly a few thousand Adults-sized sets.
DEFAULT_MAX_BYTES = 64 * 1024 * 1024

#: Fixed per-entry overhead estimate added to the array payload bytes.
ENTRY_OVERHEAD_BYTES = 256


class _Remembered(Protocol):
    """What a store holds: one node's set as code rows and counts."""

    node: LatticeNode
    key_codes: np.ndarray
    counts: np.ndarray


E = TypeVar("E", bound=_Remembered)

#: A node's identity in a store: its attribute names and level vector.
NodeKey = tuple[tuple[str, ...], tuple[int, ...]]


def _key(node: LatticeNode) -> NodeKey:
    return (node.attributes, node.levels)


class NodeStore(Generic[E]):
    """Byte-bounded least-recently-used store of one entry per lattice node.

    Subclasses decide what to admit; the store keys, sizes, orders and
    evicts.
    """

    def __init__(self, max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.max_bytes = int(max_bytes)
        self._entries: OrderedDict[NodeKey, E] = OrderedDict()
        self._bytes = 0

    @staticmethod
    def entry_bytes(entry: _Remembered) -> int:
        """Approximate resident size of one remembered set."""
        return (
            int(entry.key_codes.nbytes)
            + int(entry.counts.nbytes)
            + ENTRY_OVERHEAD_BYTES
        )

    def _recall(self, node: LatticeNode) -> E | None:
        """The entry held for ``node``, refreshing its recency."""
        key = _key(node)
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def _hold(self, entry: E) -> None:
        """Hold ``entry`` as its node's most recent, replacing any held one."""
        key = _key(entry.node)
        previous = self._entries.pop(key, None)
        if previous is not None:
            self._bytes -= self.entry_bytes(previous)
        self._entries[key] = entry
        self._bytes += self.entry_bytes(entry)

    def _admit(self, entry: E) -> int | None:
        """Hold ``entry``, evicting least-recently-used entries over budget.

        Returns the number evicted, or None when ``entry`` alone is larger
        than the budget: it would evict everything and still not fit, so
        it is refused and the store is left as it was.
        """
        if self.entry_bytes(entry) > self.max_bytes:
            return None
        self._hold(entry)
        evicted = 0
        while self._bytes > self.max_bytes:
            _, dropped = self._entries.popitem(last=False)
            self._bytes -= self.entry_bytes(dropped)
            evicted += 1
        return evicted

    def clear(self) -> None:
        self._entries.clear()
        self._bytes = 0

    @property
    def size_bytes(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, node: LatticeNode) -> bool:
        return _key(node) in self._entries

    def entries(self) -> list[E]:
        """Held entries, least-recently-used first (the eviction order)."""
        return list(self._entries.values())


class FrequencySetCache(NodeStore["FrequencySet"]):
    """Bounded LRU memoization of frequency sets, keyed by lattice node."""

    def __init__(self, max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        super().__init__(max_bytes)
        self._fingerprint: tuple | None = None
        #: True once memory pressure demoted the cache to scan-through.
        self.degraded = False
        #: Lifetime totals in the registered ``cache.*`` counter namespace
        #: (run-level deltas live in each run's SearchStats).
        self.lifetime = CounterSet()

    # ------------------------------------------------------------------
    # binding
    # ------------------------------------------------------------------
    def bind(self, problem: PreparedTable) -> None:
        """Tie the cache to ``problem``'s underlying data.

        Frequency sets are only valid for the exact table + compiled
        hierarchies they were computed from.  Binding a problem with a
        different fingerprint clears the cache; QI-subset views of the
        same prepared data (``with_quasi_identifier``) share a fingerprint
        and therefore share the cache.
        """
        fingerprint = problem.cache_fingerprint
        if self._fingerprint is None:
            self._fingerprint = fingerprint
        elif self._fingerprint != fingerprint:
            self.clear()
            self._fingerprint = fingerprint

    def clear(self) -> None:
        super().clear()
        self._fingerprint = None

    def degrade(self) -> None:
        """Demote to scan-through under memory pressure.

        Drops every cached entry (keeping the binding) and refuses further
        admissions; lookups miss unconditionally.  Results stay correct —
        the evaluator simply re-derives every frequency set — but
        ``cache.*`` accounting and the scan/rollup split shift accordingly
        (see DESIGN.md §7).  Sticky for the cache's lifetime: the pressure
        signal means this process should stop holding frequency sets, not
        retry at the next batch.
        """
        super().clear()
        self.degraded = True

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def get(self, node: LatticeNode) -> FrequencySet | None:
        """Exact hit for ``node``'s frequency set, refreshing its recency."""
        hit = None if self.degraded else self._recall(node)
        if hit is None:
            self.lifetime.incr("cache.misses")
            return None
        self.lifetime.incr("cache.hits")
        return hit

    def nearest_ancestor(self, node: LatticeNode) -> FrequencySet | None:
        """The highest cached strict specialization of ``node``, if any.

        "Nearest" means greatest total height (fewest levels left to roll
        up, hence the smallest re-aggregation); ties break on the level
        vector so the choice is deterministic regardless of insertion
        order.  The winner's recency is refreshed like a hit.
        """
        if self.degraded:
            return None
        best: FrequencySet | None = None
        for cached in self._entries.values():
            cached_node = cached.node
            if cached_node.attributes != node.attributes:
                continue
            if cached_node.levels == node.levels:
                continue
            if any(
                have > want
                for have, want in zip(cached_node.levels, node.levels)
            ):
                continue
            if best is None or (
                (cached_node.height, cached_node.levels)
                > (best.node.height, best.node.levels)
            ):
                best = cached
        if best is not None:
            self._recall(best.node)
            self.lifetime.incr("cache.ancestor_hits")
        return best

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------
    def put(self, frequency_set: FrequencySet) -> int:
        """Admit ``frequency_set``; returns the number of evictions caused.

        A node the cache already holds only has its recency refreshed.
        """
        if self.degraded or self._recall(frequency_set.node) is not None:
            return 0
        evicted = self._admit(frequency_set)
        if evicted is None:
            return 0
        self.lifetime.incr("cache.insertions")
        if evicted:
            self.lifetime.incr("cache.evictions", evicted)
        return evicted

    # ------------------------------------------------------------------
    # lifetime totals (read-only views over the dotted counter namespace)
    # ------------------------------------------------------------------
    @property
    def hits(self) -> int:
        return int(self.lifetime.get("cache.hits", 0))

    @property
    def ancestor_hits(self) -> int:
        return int(self.lifetime.get("cache.ancestor_hits", 0))

    @property
    def misses(self) -> int:
        return int(self.lifetime.get("cache.misses", 0))

    @property
    def evictions(self) -> int:
        return int(self.lifetime.get("cache.evictions", 0))

    @property
    def insertions(self) -> int:
        return int(self.lifetime.get("cache.insertions", 0))

    def __repr__(self) -> str:
        return (
            f"FrequencySetCache(entries={len(self)}, "
            f"bytes={self._bytes}/{self.max_bytes}, hits={self.hits}, "
            f"ancestor_hits={self.ancestor_hits}, misses={self.misses}, "
            f"evictions={self.evictions})"
        )


class DeltaPiece:
    """One node's remembered frequency set over a row prefix.

    ``covered_rows`` is the exclusive end of the covered prefix — always a
    dataset-version boundary, because pieces are captured from fully
    materialised sets of some version's whole table.
    """

    __slots__ = ("node", "covered_rows", "key_codes", "counts")

    def __init__(
        self,
        node: LatticeNode,
        covered_rows: int,
        key_codes: np.ndarray,
        counts: np.ndarray,
    ) -> None:
        self.node = node
        self.covered_rows = int(covered_rows)
        self.key_codes = key_codes
        self.counts = counts

    def __repr__(self) -> str:
        return (
            f"DeltaPiece({self.node}, covered_rows={self.covered_rows}, "
            f"groups={int(self.counts.shape[0])})"
        )


class DeltaContext(NodeStore[DeltaPiece]):
    """Per-node prefix frequency sets carried across dataset versions."""

    def __init__(self, max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        super().__init__(max_bytes)
        #: ``cache_fingerprint`` of the currently bound dataset version.
        self.fingerprint: tuple | None = None

    def rebind(self, problem: PreparedTable) -> None:
        """Bind the context to a (new) version of the dataset.

        Deliberately keeps the stored pieces: the owning
        :class:`~repro.incremental.session.IncrementalSession` only rebinds
        along one append chain, where every piece's covered prefix is
        unchanged by construction.  (Cross-*dataset* safety is the
        session's job — it validates the fingerprint chain before reusing
        persisted pieces.)
        """
        self.fingerprint = problem.cache_fingerprint

    def matches(self, problem: PreparedTable) -> bool:
        """Whether ``problem`` is the dataset version this context serves."""
        return (
            self.fingerprint is not None
            and self.fingerprint == problem.cache_fingerprint
        )

    def lookup(self, node: LatticeNode) -> DeltaPiece | None:
        """The remembered prefix set for ``node``, refreshing its recency."""
        return self._recall(node)

    def capture(self, frequency_set: FrequencySet, covered_rows: int) -> int:
        """Remember a fully materialised set; returns evictions caused.

        Capturing a node again replaces its piece (the new one covers at
        least as many rows).  A piece larger than the whole budget is
        refused, and the node keeps the piece it had.
        """
        piece = DeltaPiece(
            frequency_set.node,
            covered_rows,
            frequency_set.key_codes,
            frequency_set.counts,
        )
        return self._admit(piece) or 0

    def install(self, piece: DeltaPiece) -> None:
        """Adopt a piece restored from a persisted session state.

        Replaces the node's piece with no size check and no eviction.
        """
        self._hold(piece)

    def pieces(self) -> list[DeltaPiece]:
        """All pieces, least-recently-used first (the eviction order)."""
        return self.entries()

    def __repr__(self) -> str:
        return (
            f"DeltaContext(pieces={len(self)}, "
            f"bytes={self._bytes}/{self.max_bytes})"
        )


#: Region defaults, each installed for a block of code by its ``use_*``
#: (None means off).
_default_cache: FrequencySetCache | None = None
_default_context: DeltaContext | None = None


def current_cache() -> FrequencySetCache | None:
    """The region-default cache (None means caching is off)."""
    return _default_cache


@contextmanager
def use_cache(cache: FrequencySetCache | None) -> Iterator[FrequencySetCache | None]:
    """Temporarily install ``cache`` as the region default."""
    global _default_cache
    previous, _default_cache = _default_cache, cache
    try:
        yield cache
    finally:
        _default_cache = previous


def current_delta_context() -> DeltaContext | None:
    """The region-default delta context (None means incremental is off)."""
    return _default_context


@contextmanager
def use_delta_context(
    context: DeltaContext | None,
) -> Iterator[DeltaContext | None]:
    """Temporarily install ``context`` as the region default."""
    global _default_context
    previous, _default_context = _default_context, context
    try:
        yield context
    finally:
        _default_context = previous
