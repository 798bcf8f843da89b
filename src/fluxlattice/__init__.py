"""Exact magnetic-translation algebra on the square lattice.

The package keeps flux phases symbolic (integer triples over theta/2, pi
and the gauge angle), so projective group relations, invariance of
candidate Hamiltonians and commutant structure are decided exactly;
floating point enters only for spectra: Bloch reduction of the hopping
operator at rational flux, butterfly sweeps, rational approximants of
irrational flux, and a truncated-oscillator check of the continuum limit.

The package namespace re-exports exactly each module's `__all__`.
"""

from .phases import *
from .algebra import *
from .operators import *
from .reporting import *
from .spectral import *
from .landau import *

__version__ = "0.1.0"
