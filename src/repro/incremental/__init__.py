"""``repro.incremental`` — delta maintenance for living datasets.

Re-anonymize an append-only dataset without redoing old work: remembered
per-node frequency sets (:class:`DeltaContext`) turn full table scans into
scans of the appended suffix plus an exact distributive COUNT merge,
version-chained checkpoints (:class:`IncrementalSession`) carry that state
across processes, and the whole path is proven *bit-identical* — results,
frequency sets, and ``frequency.*`` counters — to from-scratch runs by the
differential suites in ``tests/incremental``.  See DESIGN.md §11.
"""

from repro.core.fscache import (
    DEFAULT_MAX_BYTES,
    DeltaContext,
    DeltaPiece,
    current_delta_context,
    use_delta_context,
)
from repro.incremental.session import (
    ALGORITHMS,
    IncrementalSession,
    VersionedDataset,
)

__all__ = [
    "ALGORITHMS",
    "DEFAULT_MAX_BYTES",
    "DeltaContext",
    "DeltaPiece",
    "IncrementalSession",
    "VersionedDataset",
    "current_delta_context",
    "use_delta_context",
]
