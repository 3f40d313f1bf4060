"""The paper's algorithms do not import the layers built on top of them."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

#: Runs Basic Incognito on the Patients table and prints every
#: ``repro.incremental`` module the run left imported.
INCOGNITO_PROBE = """
import json
import sys

from repro.core.incognito import basic_incognito
from repro.datasets.patients import patients_problem

basic_incognito(patients_problem(), 2)
print(json.dumps(sorted(
    name for name in sys.modules
    if name == "repro.incremental" or name.startswith("repro.incremental.")
)))
"""


def test_basic_incognito_imports_no_incremental_module():
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", INCOGNITO_PROBE],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []
