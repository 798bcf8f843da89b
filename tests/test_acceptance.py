"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and the
measured runtimes.  Tolerances are pinned here, not configurable.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import fluxlattice as fl
from fluxlattice import algebra
from fluxlattice.algebra import derive_invariant_basis, harper_element
from fluxlattice.spectral import _bloch_builder

from test_algebra import _rref, brute_force_invariant_basis, element_coordinates

GOLDEN = fl.Flux.golden()


def report(name, ok, elapsed, limit, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {name}: {status} ({elapsed:.2f}s, limit {limit:.0f}s)"
          + (f" {detail}" if detail else ""))
    assert ok, f"{name} failed: {detail}"
    assert elapsed < limit, f"{name} exceeded runtime limit: {elapsed:.2f}s"


def test_01_exact_relation_suite():
    t0 = time.time()
    rationals = [fl.Flux.rational(1, 2), fl.Flux.rational(1, 3),
                 fl.Flux.rational(2, 5), fl.Flux.rational(3, 7),
                 fl.Flux.rational(5, 9)]
    irrationals = [GOLDEN, fl.Flux.sqrt2(), fl.Flux.pi_fractional(),
                   fl.Flux.irrational(0.3183098861), fl.Flux.irrational(0.7071067811)]
    ok = True
    for flux in rationals + irrationals:
        for gauge in range(8):
            rpt = fl.verify_relations(fl.build_wavefunction(flux, gauge))
            ok = ok and rpt.all_pass
    report("1 exact relation suite", ok, time.time() - t0, 1.0,
           "eqs of motion of the translation pairs and the rotation, "
           "exact at 10 fluxes x 8 gauges")


def test_02_invariant_hamiltonian_rederivation():
    t0 = time.time()
    max_j = 4
    derived = derive_invariant_basis(max_j, GOLDEN)
    oracle = brute_force_invariant_basis(max_j, GOLDEN.theta)
    coords = np.array([element_coordinates(el, max_j, GOLDEN.theta) for el in derived])
    same_span = (len(derived) == len(oracle)
                 and np.max(np.abs(_rref(coords) - np.array(oracle))) < 1e-9)
    harper_ok = derived[1] == harper_element()
    report("2 invariant-Hamiltonian re-derivation", same_span and harper_ok,
           time.time() - t0, 10.0,
           f"{len(derived)} basis elements coincide with the constraint-solver "
           f"oracle; range-1 axis element is the Harper element")


def test_03_commutant_tensor_structure():
    t0 = time.time()
    ok = True
    for flux in (GOLDEN, fl.Flux.sqrt2()):
        rpt = fl.commutant_monomial_check(flux, 3)
        ok = ok and rpt.passed
        ok = ok and all(j1 == 0 and j2 == 0
                        for j1, j2, _k1, _k2 in rpt.commutant_exponents)
        ok = ok and len(rpt.commutant_exponents) == 7 * 7
    report("3 commutant/tensor structure", ok, time.time() - t0, 5.0,
           "commutant words in the |exp| <= 3 box are exactly the q-monomials "
           "at two irrational fluxes")


def test_04_gauge_equivalence():
    t0 = time.time()
    ok = True
    base = fl.build_wavefunction(GOLDEN, 0)
    for units in range(1, 8):
        s = fl.gauge_intertwiner(units)
        gauged = fl.build_wavefunction(GOLDEN, units)
        for name in ("p1", "p2", "q1", "q2"):
            lhs = s @ getattr(gauged, name)
            rhs = getattr(base, name) @ s
            ok = ok and lhs.equals(rhs, GOLDEN)
    report("4 gauge equivalence", ok, time.time() - t0, 1.0,
           "diag(e^{-i u phi m1 m2}) intertwines gauge 0 and gauge u exactly, "
           "u = 1..7")


def test_05_harper_spectra():
    t0 = time.time()
    # flux 0: single band [-4, 4] at grid resolution
    est0 = fl.spectrum(fl.Flux.rational(0, 1), 200)
    ok = len(est0.bands) == 1
    ok = ok and abs(est0.bands[0][0] + 4) < 1e-3 and abs(est0.bands[0][1] - 4) < 1e-3

    # flux 1/2 against the closed form +-2 sqrt(cos^2 k1 + cos^2 k2)
    k_grid = 200
    est_half = fl.spectrum(fl.Flux.rational(1, 2), k_grid)
    ks = 2 * np.pi * np.arange(k_grid) / k_grid
    kk1, kk2 = np.meshgrid(ks, ks, indexing="ij")
    mag = 2 * np.sqrt(np.cos(kk1) ** 2 + np.cos(kk2) ** 2).ravel()
    oracle = np.sort(np.concatenate([-mag, mag]))
    ok = ok and np.max(np.abs(est_half.samples - oracle)) < 1e-6
    ok = ok and abs(est_half.samples[0] + 2 * math.sqrt(2)) < 1e-6
    ok = ok and abs(est_half.samples[-1] - 2 * math.sqrt(2)) < 1e-6

    # flux 1/3: negation symmetry of the sample multiset
    est_third = fl.spectrum(fl.Flux.rational(1, 3), 60)
    ok = ok and np.max(np.abs(est_third.samples + est_third.samples[::-1])) < 1e-9

    # flux 1/4: Bloch union equals the exact periodic truncation of the
    # plane-representation hopping operator on an 8 x 8 torus
    flux = fl.Flux.rational(1, 4)
    q, w = 4, 2
    L = q * w
    rep = fl.build_wavefunction(flux)
    win = ((0, L - 1), (0, L - 1))
    m1 = fl.truncate(rep.q1, win, "periodic", flux).matrix
    m2 = fl.truncate(rep.q2, win, "periodic", flux).matrix
    torus = np.sort(np.linalg.eigvalsh(m1 + m1.conj().T + m2 + m2.conj().T))
    k1s = np.repeat(2 * np.pi * np.arange(w) / L, L)
    k2s = np.tile(2 * np.pi * np.arange(L) / L, w)
    bloch = np.sort(np.linalg.eigvalsh(
        _bloch_builder([1], 4)(np.zeros(k1s.size, int), k1s, k2s,
                               np.empty((k1s.size, 4, 4), dtype=complex))).ravel())
    ok = ok and np.max(np.abs(torus - bloch)) < 1e-9
    report("5 Harper spectra", ok, time.time() - t0, 30.0,
           "flux 0 band, flux 1/2 closed form, flux 1/3 symmetry, flux 1/4 "
           "Bloch vs torus truncation")


def test_06_butterfly_dataset():
    t0 = time.time()
    ds = fl.butterfly(30, 40)
    again = fl.butterfly(30, 40)
    deterministic = ds == again
    sym = ds.symmetry_report()
    farey = {Fraction(nu, q) for q in range(1, 11) for nu in range(q)
             if math.gcd(nu, q) == 1}
    counts_ok = (len(fl.butterfly(10, 8).entries) == len(farey) == 32
                 and sum(1 for f in farey if f != 0) == 31)
    ok = deterministic and sym.all_pass and counts_ok
    flux, energy = sym.checks
    report("6 butterfly dataset", ok, time.time() - t0, 120.0,
           f"{ds.n_rows()} rows at q_max=30, k_grid=40; deterministic; "
           f"reflection dev {flux.value:.1e}, negation "
           f"dev {energy.value:.1e}; 31 nonzero fluxes at "
           f"q_max=10")


def test_07_landau_suite():
    t0 = time.time()
    ops = fl.build_landau(1.0, 1.0, 30)
    brackets = fl.bracket_report(ops)          # interior residuals < 1e-10
    motion = fl.lorentz_check(ops)             # eq-of-motion residuals < 1e-8
    levels = fl.hamiltonian_spectrum(ops, 8)
    ladder_ok = np.max(np.abs(levels - (np.arange(1, 9) - 0.5))) < 1e-8
    degens = fl.level_degeneracies(ops, 4)
    ok = (brackets.all_pass and motion.all_pass and ladder_ok
          and degens == [30, 30, 30, 30])
    report("7 Landau suite", ok, time.time() - t0, 10.0,
           "brackets, (r/m)(n - 1/2) ladder with momentum-mode degeneracy, "
           "Lorentz equations, angular-momentum identity")


def test_08_flux_periodicity():
    t0 = time.time()
    # classification output, byte for byte
    cls_a = json.dumps(str(fl.classify(fl.Flux.rational(1, 3))))
    cls_b = json.dumps(str(fl.classify(fl.Flux.rational(4, 3))))
    cls_c = json.dumps(str(fl.classify(GOLDEN)))
    cls_d = json.dumps(str(fl.classify(fl.Flux.irrational(GOLDEN.value + 1.0))))
    ok = cls_a == cls_b and cls_c == cls_d

    # invariant basis rendering, byte for byte
    basis_a = "\n".join(str(el) for el in derive_invariant_basis(2, GOLDEN))
    algebra._last_basis = None  # derive Phi + 1's basis, not read Phi's back
    basis_b = "\n".join(str(el) for el in derive_invariant_basis(
        2, fl.Flux.irrational(GOLDEN.value + 1.0)))
    ok = ok and basis_a == basis_b

    # spectra, byte for byte
    spec_a = fl.spectrum(fl.Flux.rational(1, 3), 24)
    spec_b = fl.spectrum(fl.Flux.rational(4, 3), 24)
    ok = ok and spec_a.samples.tobytes() == spec_b.samples.tobytes()
    ok = ok and json.dumps(spec_a.to_json_dict()) == json.dumps(spec_b.to_json_dict())
    report("8 flux periodicity", ok, time.time() - t0, 1.0,
           "classify, invariant basis and spectra identical at Phi and Phi + 1")
