"""The paper's contribution: full-domain k-anonymization algorithms.

Public surface:

* :class:`~repro.core.problem.PreparedTable` — a table, its quasi-identifier,
  and compiled hierarchies; the input every algorithm takes.
* :func:`~repro.core.incognito.basic_incognito`,
  :func:`~repro.core.superroots.superroots_incognito`,
  :func:`~repro.core.cube.cube_incognito` — the three Incognito variants
  (Sections 3.1, 3.3.1, 3.3.2).
* :func:`~repro.core.binary_search.samarati_binary_search`,
  :func:`~repro.core.bottomup.bottom_up_search`,
  :func:`~repro.core.datafly.datafly` — the prior algorithms Incognito is
  evaluated against (Sections 2.2 and 6).
* :data:`ALGORITHMS` — every search by the tag ``--algorithm`` and job
  specs name it with; :data:`CHECKPOINTED_ALGORITHMS` — the tags of those
  that checkpoint after every level (:mod:`~repro.core.run`).
* :class:`~repro.core.result.AnonymizationResult` and
  :mod:`~repro.core.minimality` — result sets and minimality criteria.
* :func:`~repro.core.generalize.apply_generalization` — produce the
  anonymized view V from a chosen lattice node.
* :func:`~repro.core.anonymity.check_k_anonymity` — the independent checker
  used by tests and examples.
* :class:`~repro.core.fscache.FrequencySetCache` /
  :func:`~repro.core.fscache.use_cache` — the cross-algorithm frequency-set
  cache (pairs with :mod:`repro.parallel` for execution backends).
"""

from typing import Callable

from repro.core.anonymity import (
    FrequencyEvaluator,
    FrequencySet,
    check_k_anonymity,
    compute_frequency_set,
)
from repro.core.binary_search import samarati_binary_search
from repro.core.bottomup import bottom_up_search
from repro.core.cube import cube_incognito
from repro.core.datafly import datafly
from repro.core.fscache import FrequencySetCache, current_cache, use_cache
from repro.core.generalize import GeneralizedView, apply_generalization
from repro.core.incognito import basic_incognito
from repro.core.materialized import materialized_incognito
from repro.core.minimality import (
    minimal_height_nodes,
    pareto_minimal_nodes,
    weighted_minimal_node,
)
from repro.core.outofcore import chunked_incognito
from repro.core.problem import PreparedTable
from repro.core.result import AnonymizationResult
from repro.core.stats import SearchStats
from repro.core.superroots import superroots_incognito

ALGORITHMS: dict[str, Callable[..., AnonymizationResult]] = {
    "basic": basic_incognito,
    "superroots": superroots_incognito,
    "cube": cube_incognito,
    "binary": samarati_binary_search,
    "bottomup": bottom_up_search,
    "datafly": datafly,
}

#: Every tag but the Datafly heuristic, which has no levels to checkpoint.
CHECKPOINTED_ALGORITHMS = tuple(tag for tag in ALGORITHMS if tag != "datafly")

__all__ = [
    "ALGORITHMS",
    "CHECKPOINTED_ALGORITHMS",
    "AnonymizationResult",
    "FrequencyEvaluator",
    "FrequencySet",
    "FrequencySetCache",
    "GeneralizedView",
    "PreparedTable",
    "SearchStats",
    "apply_generalization",
    "basic_incognito",
    "bottom_up_search",
    "check_k_anonymity",
    "chunked_incognito",
    "compute_frequency_set",
    "cube_incognito",
    "current_cache",
    "datafly",
    "materialized_incognito",
    "minimal_height_nodes",
    "pareto_minimal_nodes",
    "samarati_binary_search",
    "superroots_incognito",
    "use_cache",
    "weighted_minimal_node",
]
