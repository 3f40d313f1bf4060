"""Put the benchmark's modules on the path: ``PYTHONPATH=src python -m pytest -q perfbench/tests``."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
