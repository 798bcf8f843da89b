"""Import the package from this checkout's `src`, unless PYTHONPATH already
provides it: `PYTHONPATH=<other tree>/src python -m pytest` tests that tree."""

import importlib.util
import os
import sys
from pathlib import Path

if not (os.environ.get("PYTHONPATH") and importlib.util.find_spec("fluxlattice")):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
