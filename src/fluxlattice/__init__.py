"""Exact magnetic-translation algebra on the square lattice.

The package keeps flux phases symbolic (integer triples over theta/2, pi
and the gauge angle), so projective group relations, invariance of
candidate Hamiltonians and commutant structure are decided exactly;
floating point enters only for spectra: Bloch reduction of the hopping
operator at rational flux, butterfly sweeps, rational approximants of
irrational flux, and a truncated-oscillator check of the continuum limit.
"""

from .phases import (
    Classification,
    DualCharacter,
    ExactPhase,
    Flux,
    RationalFluxError,
    bicharacter,
    classify,
    coboundary,
    cocycle,
    mu,
    wedge,
)
from .algebra import (
    AlgebraElement,
    Monomial,
    adjoint,
    conjugate_by_translation,
    conjugate_by_zeta,
    derive_invariant_basis,
    generator,
    harper_element,
    is_invariant,
    multiply,
    one,
    scalar,
)
from .operators import (
    BasisMapOperator,
    CommutantReport,
    DistinguishedRep,
    IntForm,
    PhaseForm,
    SiteMap,
    TruncatedOperator,
    WavefunctionRep,
    build_distinguished,
    build_wavefunction,
    commutant_monomial_check,
    commutator,
    gauge_intertwiner,
    gauge_report,
    truncate,
    verify_relations,
)
from .reporting import RelationCheck, RelationReport
from .spectral import (
    ApproximantSequence,
    ButterflyDataset,
    SpectrumEstimate,
    approximant_spectra,
    butterfly,
    flux_values,
    hausdorff_distance,
    spectrum,
)
from .landau import (
    LandauOperators,
    bracket_report,
    build_landau,
    hamiltonian_spectrum,
    level_degeneracies,
    lorentz_check,
)

__version__ = "0.1.0"
