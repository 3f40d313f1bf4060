"""An incremental session runs only the three searches it can resume."""

from __future__ import annotations

import pytest

from repro.incremental import IncrementalSession
from tests.conftest import tiny_numeric_problem


@pytest.mark.parametrize("algorithm", ["datafly", "samarati", "Basic"])
def test_an_unknown_tag_is_refused_naming_the_three(algorithm):
    with pytest.raises(ValueError) as refused:
        IncrementalSession(tiny_numeric_problem(), 2, algorithm=algorithm)
    message = str(refused.value)
    assert repr(algorithm) in message
    for tag in ("basic", "binary", "bottomup"):
        assert repr(tag) in message
