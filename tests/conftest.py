"""Import the package from this checkout's `src`, unless PYTHONPATH already
provides it: `PYTHONPATH=<other tree>/src python -m pytest` tests that tree."""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

if not (os.environ.get("PYTHONPATH") and importlib.util.find_spec("fluxlattice")):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


@pytest.fixture(autouse=True)
def _no_kept_invariant_basis():
    """Start every test without the basis that algebra keeps from its last
    derivation, so a test that measures a derivation sees one run."""
    from fluxlattice import algebra
    algebra._last_basis = None
