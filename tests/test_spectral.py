"""Bloch matrices, Harper spectra, butterfly datasets and approximants."""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fluxlattice import reporting, spectral
from fluxlattice.algebra import AlgebraElement, Monomial, generator, harper_element, multiply
from fluxlattice.cli import main
from fluxlattice.phases import TWO_PI, ExactPhase, Flux, RationalFluxError
from fluxlattice.spectral import (
    ButterflyDataset,
    approximant_spectra,
    butterfly,
    flux_values,
    hausdorff_distance,
    spectrum,
)

rng = random.Random(0)

DATA = Path(__file__).parent / "data"


def random_reduced_fraction(q_max=12):
    while True:
        q = rng.randint(1, q_max)
        nu = rng.randint(0, q - 1)
        if math.gcd(nu, q) == 1:
            return nu, q


def bloch_stack(nu, q, k1, k2):
    """The Bloch stack at momenta (k1[i], k2[i]), built in a fresh buffer."""
    return spectral._bloch_builder([nu], q)(np.zeros(len(k1), int), k1, k2,
                                            np.empty((len(k1), q, q), dtype=complex))


def bloch_at(nu, q, k1, k2):
    """The Bloch matrix at one momentum pair."""
    return bloch_stack(nu, q, np.array([k1]), np.array([k2]))[0]


def reference_bloch_stack(num, q, k1, k2):
    """Reference: the Harper Bloch stack entry by entry, as it was first
    hand-coded: diagonal 2 cos(k2 + 2 pi num m / q), unit off-diagonals and
    the corners e^{-+i q k1}."""
    m = np.arange(q)
    mats = np.zeros((len(k1), q, q), dtype=complex)
    mats[:, m, m] = 2.0 * np.cos(k2[:, None] + TWO_PI * num * m[None, :] / q)
    if q > 1:
        idx = np.arange(q - 1)
        mats[:, idx, idx + 1] += 1.0
        mats[:, idx + 1, idx] += 1.0
    corner = np.exp(-1j * q * k1)
    mats[:, 0, q - 1] += corner
    mats[:, q - 1, 0] += np.conj(corner)
    return mats


def same_stack_bits(a, b):
    """Same shape and bit-identical complex entries, as `tobytes` compares
    them (-0.0 does not match 0.0), without copying either stack."""
    return a.dtype == b.dtype == complex and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def reduced_fractions(q_max):
    return [(nu, q) for q in range(1, q_max + 1) for nu in range(q) if math.gcd(nu, q) == 1]


class TestBlochMatrix:
    def test_zero_flux_scalar(self):
        m = bloch_at(0, 1, 0.3, 0.7)
        assert m.shape == (1, 1)
        assert abs(m[0, 0] - (2 * math.cos(0.3) + 2 * math.cos(0.7))) < 1e-14

    def test_half_flux_closed_form(self):
        m = bloch_at(1, 2, 0.0, 0.0)
        assert np.allclose(m, [[2, 2], [2, -2]])
        assert np.allclose(np.linalg.eigvalsh(m), [-2 * math.sqrt(2), 2 * math.sqrt(2)])

    def test_hermitian_at_random_momenta(self):
        for _ in range(100):
            nu, q = random_reduced_fraction()
            k1, k2 = rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
            m = bloch_at(nu, q, k1, k2)
            assert np.max(np.abs(m - m.conj().T)) < 1e-14

    def test_rejects_non_reduced(self):
        # the flux check every dataset reader applies before a Bloch stack is built
        with pytest.raises(ValueError, match="lowest terms"):
            spectral._validate_fraction(2, 4)
        with pytest.raises(ValueError):
            spectral._validate_fraction(3, 2)
        with pytest.raises(ValueError):
            spectral._validate_fraction(0, 0)

    @pytest.mark.parametrize("k_grid", [4, 5, 6, 7, 8, 10, 12, 16, 24, 40])
    def test_grid_stacks_are_the_hand_coded_bytes(self, k_grid):
        # the reduced grid the solve builds, for every reduced flux with q <= 30
        ks = TWO_PI * np.arange(k_grid) / k_grid
        for nu, q in reduced_fractions(30):
            i = np.arange((k_grid // math.gcd(q, k_grid)) * k_grid)
            k1, k2 = ks[i // k_grid], ks[i % k_grid]
            assert same_stack_bits(bloch_stack(nu, q, k1, k2),
                                   reference_bloch_stack(nu, q, k1, k2)), (nu, q)

    def test_random_momenta_stacks_are_the_hand_coded_bytes(self):
        gen = np.random.default_rng(0)
        for nu, q in reduced_fractions(59):
            k1, k2 = gen.uniform(0, TWO_PI, 50), gen.uniform(0, TWO_PI, 50)
            assert same_stack_bits(bloch_stack(nu, q, k1, k2),
                                   reference_bloch_stack(nu, q, k1, k2)), (nu, q)

    @pytest.mark.parametrize("element", [
        harper_element(),
        AlgebraElement([(0.5 - 0.25j, Monomial((0, 0, 1, 2), ExactPhase(3, 1, 0))),
                        (1.5, Monomial((0, 0, -3, 0), ExactPhase(-1, 0, 0))),
                        (0.75j, Monomial((0, 0, 0, -1), ExactPhase(2, 0, 0)))]),
    ], ids=["harper", "theta phases"])
    def test_a_stack_of_mixed_numerators_is_the_per_numerator_stacks(self, monkeypatch,
                                                                      element):
        # each row at its own numerator, in any order, has the bits of a
        # stack at that numerator alone, also where a term's value is a
        # phase of theta and so differs between numerators
        monkeypatch.setattr(spectral, "_HAMILTONIAN", element)
        gen = np.random.default_rng(1)
        for q in range(1, 16):
            nums = [nu for nu in range(q) if math.gcd(nu, q) == 1]
            which = gen.integers(len(nums), size=40)
            k1, k2 = gen.uniform(-TWO_PI, TWO_PI, 40), gen.uniform(-TWO_PI, TWO_PI, 40)
            mixed = spectral._bloch_builder(nums, q)(which, k1, k2,
                                                     np.empty((40, q, q), dtype=complex))
            for j, nu in enumerate(nums):
                rows = which == j
                assert same_stack_bits(mixed[rows], bloch_stack(nu, q, k1[rows], k2[rows])), (
                    nu, q)


class TestRepresentation:
    """_bloch_builder evaluates whatever element spectral._HAMILTONIAN holds;
    on monomials it must be a representation of the q-pair relations."""

    @staticmethod
    def rep_at(monkeypatch, nu, q, k1, k2):
        def rep(element):
            monkeypatch.setattr(spectral, "_HAMILTONIAN", element)
            return bloch_at(nu, q, k1, k2)
        return rep

    def test_reads_the_harper_element(self):
        assert spectral._HAMILTONIAN == harper_element()

    @pytest.mark.parametrize("nu,q", reduced_fractions(8))
    def test_products_follow_the_algebra(self, monkeypatch, nu, q):
        # rep(x) rep(y) = rep(x y), with multiply's exact reordering phases
        # and shifts past q, so S D S^-1 D^-1 = e^{-i th} as in `algebra`
        gen = random.Random(q * 100 + nu)
        rep = self.rep_at(monkeypatch, nu, q, gen.uniform(0, TWO_PI), gen.uniform(0, TWO_PI))

        def monomial():
            return AlgebraElement([(complex(gen.uniform(-1, 1), gen.uniform(-1, 1)), Monomial(
                (0, 0, gen.randint(-2 * q, 2 * q), gen.randint(-2 * q, 2 * q)),
                ExactPhase(gen.randint(-5, 5), gen.randint(0, 1), 0)))])
        for _ in range(5):
            x, y = monomial(), monomial()
            assert np.max(np.abs(rep(x) @ rep(y) - rep(multiply(x, y)))) < 1e-12
        s, d = rep(generator("q1")), rep(generator("q2"))
        commutator = s @ d @ s.conj().T @ d.conj().T
        assert np.max(np.abs(commutator - np.exp(-1j * TWO_PI * nu / q) * np.eye(q))) < 1e-12

    @pytest.mark.parametrize("nu,q", [(0, 1), (1, 2), (1, 3), (3, 8)])
    def test_kernel_acts_by_scalars(self, monkeypatch, nu, q):
        # classify's kernel (qZ)^2: q1^q and q2^q are e^{i q k1} and e^{-i q k2}
        k1, k2 = 0.37, 1.91
        rep = self.rep_at(monkeypatch, nu, q, k1, k2)
        assert np.max(np.abs(rep(generator("q1", q)) - np.exp(1j * q * k1) * np.eye(q))) < 1e-12
        assert np.max(np.abs(rep(generator("q2", q)) - np.exp(-1j * q * k2) * np.eye(q))) < 1e-12


class TestSpectrum:
    def test_zero_flux_band(self):
        est = spectrum(Flux.rational(0, 1), 200)
        assert len(est.bands) == 1
        lo, hi = est.bands[0]
        assert abs(lo + 4.0) < 1e-3 and abs(hi - 4.0) < 1e-3

    def test_half_flux_against_closed_form(self):
        k_grid = 200
        est = spectrum(Flux.rational(1, 2), k_grid)
        ks = 2 * np.pi * np.arange(k_grid) / k_grid
        kk1, kk2 = np.meshgrid(ks, ks, indexing="ij")
        mag = 2 * np.sqrt(np.cos(kk1) ** 2 + np.cos(kk2) ** 2).ravel()
        oracle = np.sort(np.concatenate([-mag, mag]))
        assert np.max(np.abs(est.samples - oracle)) < 1e-6
        (lo1, hi1), (lo2, hi2) = est.bands
        assert abs(lo1 + 2 * math.sqrt(2)) < 1e-6
        assert abs(hi2 - 2 * math.sqrt(2)) < 1e-6
        assert abs(hi1) < 1e-9 and abs(lo2) < 1e-9  # touching at zero

    def test_third_flux_symmetric(self):
        est = spectrum(Flux.rational(1, 3), 60)
        assert len(est.bands) == 3
        assert np.max(np.abs(est.samples + est.samples[::-1])) < 1e-9

    def test_samples_in_norm_bound(self):
        for _ in range(5):
            nu, q = random_reduced_fraction()
            est = spectrum(Flux.rational(nu, q), 12)
            assert est.samples[0] >= -4 - 1e-12
            assert est.samples[-1] <= 4 + 1e-12
            assert len(est.bands) <= q

    def test_reduction_matches_full_grid(self):
        # solving one k1 per residue class must reproduce the full-grid multiset
        for nu, q, k_grid in ((1, 3, 12), (2, 5, 15), (1, 4, 10)):
            est = spectrum(Flux.rational(nu, q), k_grid)
            ks = 2 * np.pi * np.arange(k_grid) / k_grid
            full = []
            for k1 in ks:
                for k2 in ks:
                    full.extend(np.linalg.eigvalsh(bloch_at(nu, q, k1, k2)))
            assert np.max(np.abs(est.samples - np.sort(full))) < 1e-12

    def test_irrational_rejected(self):
        with pytest.raises(ValueError, match="rational"):
            spectrum(Flux.golden(), 10)

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError, match="k_grid"):
            spectrum(Flux.rational(1, 2), 3)

    def test_flux_periodicity_bytes(self):
        a = spectrum(Flux.rational(1, 3), 24)
        b = spectrum(Flux.rational(4, 3), 24)
        assert a.samples.tobytes() == b.samples.tobytes()
        assert a.bands == b.bands


class TestButterfly:
    def test_q_max_one(self):
        ds = butterfly(1, 20)
        assert [(n, d) for n, d, _s in ds.entries] == [(0, 1)]
        samples = ds.entries[0][2]
        assert samples.min() >= -4 - 1e-12 and samples.max() <= 4 + 1e-12

    def test_q_max_two_adds_half(self):
        ds = butterfly(2, 20)
        assert [(n, d) for n, d, _s in ds.entries] == [(0, 1), (1, 2)]
        half = ds.entries[1][2]
        assert half.min() >= -2 * math.sqrt(2) - 1e-9
        assert half.max() <= 2 * math.sqrt(2) + 1e-9

    def test_flux_count_against_farey_oracle(self):
        # independent brute-force Farey enumeration
        farey = {Fraction(nu, q) for q in range(1, 11) for nu in range(q)
                 if math.gcd(nu, q) == 1 or (nu == 0 and q == 1)}
        assert len(flux_values(10)) == len(farey) == 32
        nonzero = [f for f in flux_values(10) if f != 0]
        assert len(nonzero) == 31
        ds = butterfly(10, 8)
        assert len(ds.entries) == 32

    def test_symmetries(self):
        report = butterfly(10, 12).symmetry_report()
        flux, energy = report.checks
        assert report.all_pass
        assert flux.value < 1e-9
        assert energy.value < 1e-9

    def test_symmetry_report_keeps_a_nan_deviation(self):
        # a NaN must survive the running maximum: Python's max(0.0, nan) is 0.0
        ds = butterfly(3, 4)
        {(n, d): s for n, d, s in ds.entries}[1, 3][5] = np.nan
        report = ds.symmetry_report()
        flux, energy = report.checks
        assert math.isnan(flux.value)
        assert math.isnan(energy.value)
        assert report.all_pass is False

    def test_an_asymmetric_dataset_fails_both_measured_checks(self):
        # negative control: lift the samples of 1/3 off those of its reflection 2/3
        ds = butterfly(4, 8)
        lifted = [(n, d, s + 1e-6 if (n, d) == (1, 3) else s) for n, d, s in ds.entries]
        report = ButterflyDataset(4, 8, lifted).symmetry_report()
        assert [c.name for c in report.checks] == ["flux_reflection", "energy_negation"]
        for check in report.checks:
            assert check.holds is False
            assert check.value > check.bound == spectral.SYMMETRY_TOLERANCE

    def test_symmetry_report_names_a_missing_reflection(self):
        # as read from a partial file
        ds = butterfly(3, 4)
        partial = ButterflyDataset(3, 4, [e for e in ds.entries if e[:2] != (2, 3)])
        with pytest.raises(ValueError, match="flux 1/3: its reflection 2/3"):
            partial.symmetry_report()

    def test_symmetry_report_names_a_sample_count_mismatch(self):
        ds = butterfly(3, 4)
        short = [(n, d, s[:-1] if (n, d) == (2, 3) else s) for n, d, s in ds.entries]
        with pytest.raises(ValueError, match="flux 1/3: its reflection 2/3"):
            ButterflyDataset(3, 4, short).symmetry_report()

    def test_deterministic(self):
        assert butterfly(5, 8) == butterfly(5, 8)

    def test_rows_sorted(self):
        ds = butterfly(4, 6)
        rows = [(n, d, e) for n, d, samples in ds.entries for e in samples]
        keys = [(Fraction(n, d), e) for n, d, e in rows]
        assert keys == sorted(keys)


class TestSerialization:
    def test_csv_round_trip(self, tmp_path):
        ds = butterfly(6, 6)
        path = tmp_path / "bfly.csv"
        ds.to_csv(path)
        back = ButterflyDataset.from_csv(path, q_max=6, k_grid=6)
        assert back == ds
        header = path.read_text().splitlines()[0]
        assert header == "phi_num,phi_den,energy"

    def test_json_round_trip(self, tmp_path):
        ds = butterfly(5, 6)
        path = tmp_path / "bfly.json"
        ds.to_json(path)
        back = ButterflyDataset.from_json(path)
        assert back == ds
        assert back.q_max == 5 and back.k_grid == 6

    def test_csv_bytes_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        butterfly(5, 6).to_csv(p1)
        butterfly(5, 6).to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()


def harper_power(k):
    """H^k in the algebra, from k - 1 exact products."""
    power = harper_element()
    for _ in range(k - 1):
        power = multiply(power, harper_element())
    return power


def bloch_trace(power, num, q):
    """The trace q tau(power) of power's Bloch matrix at flux num/q and every
    momentum: tau is the identity word's coefficient, each exact phase taken
    at theta = 2 pi num/q.  A word q1^a q2^b has trace 0 unless q divides a
    and b, so None when a word other than the identity does."""
    tau = 0
    for c, mono in power.terms():
        _j1, _j2, a, b = mono.exponents
        if mono.exponents == (0, 0, 0, 0):
            tau += c * mono.phase.evaluate(TWO_PI * num / q)
        elif a % q == b % q == 0:
            return None
    return q * tau


def trace_miss(samples, k, trace, k_grid):
    """|sum of samples^k - k_grid^2 trace| for one flux's samples, which hold
    every eigenvalue at each of k_grid^2 momenta, and its tolerance.

    LAPACK's eigenvalues are within about q eps ||H|| of the exact ones,
    and ||H|| <= 4 (four unitary hops), so each |E| <= 4 and E^k moves by at
    most k q 4^k eps; the n = k_grid^2 q samples move the sum by n k q 4^k
    eps.  Rounding the powers, their pairwise sum and tau adds at most
    (k + log2 n) n 4^k eps."""
    n = samples.size
    q = n // k_grid**2
    tol = (k * q + k + math.log2(n)) * n * 4.0**k * np.finfo(float).eps
    return abs(np.sum(samples**k) - k_grid**2 * trace), tol


class TestTraceIdentities:
    """Samples read back from both formats obey the exact traces of the
    algebra, Sum_samples E^k = K^2 q tau(H^k), at every flux where no other
    word of H^k has both q-exponents divisible by q, with no reference
    solve."""

    K = 8

    @pytest.fixture(scope="class")
    def read_back(self, tmp_path_factory):
        ds = butterfly(12, self.K)
        work = tmp_path_factory.mktemp("traces")
        ds.to_csv(work / "b.csv")
        ds.to_json(work / "b.json")
        return {"csv": ButterflyDataset.from_csv(work / "b.csv", 12, self.K),
                "json": ButterflyDataset.from_json(work / "b.json")}

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("k,checked", [
        (2, set(range(3, 13))),
        # decided on the words of H^k, not by q > k: 3 passes at k = 4 (its
        # q1^3 q2 has b = 1) and 5 at k = 6, while q1^4 drops 4 at both
        (4, {3, *range(5, 13)}),
        (6, {5, *range(7, 13)}),
    ])
    def test_round_tripped_samples_obey_the_traces(self, read_back, fmt, k, checked):
        power = harper_power(k)
        seen = set()
        for num, q, samples in read_back[fmt].entries:
            trace = bloch_trace(power, num, q)
            if trace is not None:
                miss, tol = trace_miss(samples, k, trace, self.K)
                assert miss <= tol, (num, q, k, miss, tol)
                seen.add(q)
        assert seen == checked

    def test_another_fluxs_trace_is_missed(self, read_back):
        # negative control: tau(H^4) = 28 + 8 cos(2 pi Phi), so the 1/5
        # samples miss the 2/5 trace by 8 q K^2 (cos 2pi/5 - cos 4pi/5)
        [samples] = [s for n, q, s in read_back["json"].entries if (n, q) == (1, 5)]
        miss, tol = trace_miss(samples, 4, bloch_trace(harper_power(4), 2, 5), self.K)
        expected = 8 * 5 * self.K**2 * (math.cos(TWO_PI / 5) - math.cos(2 * TWO_PI / 5))
        assert miss > tol
        assert abs(miss - expected) <= tol


class TestGoldenFiles:
    """butterfly(3, 4) as the serializers wrote it before the readers were
    merged; every writer and reader must reproduce it byte for byte."""

    CSV = DATA / "butterfly_3_4.csv"
    JSON = DATA / "butterfly_3_4.json"

    def test_readers_agree(self):
        from_csv = ButterflyDataset.from_csv(self.CSV, q_max=3, k_grid=4)
        assert from_csv == ButterflyDataset.from_json(self.JSON)
        assert [(n, d) for n, d, _ in from_csv.entries] == [(0, 1), (1, 3), (1, 2), (2, 3)]
        assert from_csv.n_rows() == 144

    @pytest.mark.parametrize("reader", ["csv", "json"])
    def test_writers_reproduce_bytes(self, tmp_path, reader):
        if reader == "csv":
            ds = ButterflyDataset.from_csv(self.CSV, q_max=3, k_grid=4)
        else:
            ds = ButterflyDataset.from_json(self.JSON)
        ds.to_csv(tmp_path / "b.csv")
        ds.to_json(tmp_path / "b.json")
        assert (tmp_path / "b.csv").read_bytes() == self.CSV.read_bytes()
        assert (tmp_path / "b.json").read_bytes() == self.JSON.read_bytes()

    def test_solver_matches_golden(self):
        golden = ButterflyDataset.from_csv(self.CSV, q_max=3, k_grid=4)
        fresh = butterfly(3, 4)
        assert [(n, d) for n, d, _ in fresh.entries] == [(n, d) for n, d, _ in golden.entries]
        for (_, _, a), (_, _, b) in zip(fresh.entries, golden.entries):
            assert np.max(np.abs(a - b)) < 1e-12


# Reference serializers: the line-by-line CSV reader and writer and the
# json.dump writer.  The numpy readers and the chunked writers must agree
# with them exactly.
def reference_group(rows):
    by_flux = {}
    for n, d, e in rows:
        by_flux.setdefault((int(n), int(d)), []).append(float(e))
    return [(n, d, np.array(es)) for (n, d), es in sorted(
        by_flux.items(), key=lambda item: Fraction(*item[0]))]


def reference_from_csv(path, q_max=0, k_grid=0):
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "phi_num,phi_den,energy":
            raise ValueError(f"unexpected CSV header {header!r}")
        entries = reference_group(line.rstrip("\n").split(",") for line in fh)
    return ButterflyDataset(q_max, k_grid, entries)


def reference_to_csv(ds, path):
    with open(path, "w") as fh:
        fh.write("phi_num,phi_den,energy\n")
        for num, den, samples in ds.entries:
            prefix = f"{num},{den},"
            fh.writelines(prefix + repr(float(e)) + "\n" for e in samples)


def reference_from_json(path):
    with open(path) as fh:
        doc = json.load(fh)
    entries = reference_group((*point["phi"], point["E"]) for point in doc["points"])
    return ButterflyDataset(doc["q_max"], doc["k_grid"], entries)


def reference_to_json(ds, path):
    doc = {"q_max": ds.q_max, "k_grid": ds.k_grid,
           "points": [{"phi": [n, d], "E": e}
                      for n, d, samples in ds.entries for e in samples.tolist()]}
    with open(path, "w") as fh:
        json.dump(doc, fh)


def same_bits(a, b):
    """Same fluxes in the same order and bit-identical float64 samples, so
    NaN matches NaN and -0.0 does not match 0.0."""
    return ([(n, d) for n, d, _ in a.entries] == [(n, d) for n, d, _ in b.entries]
            and all(x.dtype == y.dtype == np.float64 and x.tobytes() == y.tobytes()
                    for (_, _, x), (_, _, y) in zip(a.entries, b.entries)))


def read_quietly(reader, path, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return reader(path, *args)


class TestAgainstReference:
    def test_butterfly_bytes_and_values(self, tmp_path, monkeypatch):
        ds = butterfly(7, 10)
        reference_to_csv(ds, tmp_path / "ref.csv")
        reference_to_json(ds, tmp_path / "ref.json")

        def no_dump(*args, **kwargs):
            raise AssertionError("to_json must not run json.dump")
        monkeypatch.setattr(json, "dump", no_dump)
        ds.to_csv(tmp_path / "new.csv")
        ds.to_json(tmp_path / "new.json")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "ref.json").read_bytes()

        from_csv = read_quietly(ButterflyDataset.from_csv, tmp_path / "ref.csv", 7, 10)
        assert same_bits(from_csv, reference_from_csv(tmp_path / "ref.csv", 7, 10))
        assert from_csv == ds
        from_json = read_quietly(ButterflyDataset.from_json, tmp_path / "ref.json")
        assert same_bits(from_json, reference_from_json(tmp_path / "ref.json"))
        assert from_json == ds

    def test_interleaved_rows_group_like_the_reference(self, tmp_path):
        ds = butterfly(5, 6)
        shuffle = random.Random(5)
        queues = {(n, d): samples.tolist() for n, d, samples in ds.entries}
        rows = []
        while queues:
            key = shuffle.choice(sorted(queues))
            take = queues[key][:shuffle.randint(1, 40)]
            del queues[key][:len(take)]
            if not queues[key]:
                del queues[key]
            rows += [(*key, e) for e in take]
        assert len(rows) == ds.n_rows()
        assert sum(a[:2] != b[:2] for a, b in zip(rows, rows[1:])) > 2 * len(ds.entries)
        csv_path, json_path = tmp_path / "mixed.csv", tmp_path / "mixed.json"
        csv_path.write_text("phi_num,phi_den,energy\n"
                            + "".join(f"{n},{d},{e!r}\n" for n, d, e in rows))
        json_path.write_text(json.dumps({"q_max": 5, "k_grid": 6, "points": [
            {"phi": [n, d], "E": e} for n, d, e in rows]}))
        from_csv = read_quietly(ButterflyDataset.from_csv, csv_path, 5, 6)
        assert same_bits(from_csv, reference_from_csv(csv_path, 5, 6))
        assert from_csv == ds
        from_json = read_quietly(ButterflyDataset.from_json, json_path)
        assert same_bits(from_json, reference_from_json(json_path))
        assert from_json == ds

    def test_empty_files(self, tmp_path):
        csv_path, json_path = tmp_path / "empty.csv", tmp_path / "empty.json"
        csv_path.write_text("phi_num,phi_den,energy\n")
        json_path.write_text('{"q_max": 2, "k_grid": 4, "points": []}')
        from_csv = read_quietly(ButterflyDataset.from_csv, csv_path, 2, 4)
        from_json = read_quietly(ButterflyDataset.from_json, json_path)
        for got in (from_csv, from_json):
            assert got.entries == [] and got.n_rows() == 0
        assert from_csv == reference_from_csv(csv_path, 2, 4)
        assert from_json == reference_from_json(json_path)
        from_json.to_json(tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == json_path.read_bytes()

    def test_special_values(self, tmp_path):
        ds = ButterflyDataset(3, 4, [
            (0, 1, np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324])),
            (1, 2, np.array([], dtype=np.float64)),
            (1, 3, np.array([-1.7976931348623157e308, 0.1, 1 / 3])),
        ])
        nonempty = ButterflyDataset(3, 4, [ds.entries[0], ds.entries[2]])
        ds.to_json(tmp_path / "new.json")
        reference_to_json(ds, tmp_path / "ref.json")
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "ref.json").read_bytes()
        assert b"NaN" in (tmp_path / "new.json").read_bytes()
        ds.to_csv(tmp_path / "new.csv")
        reference_to_csv(ds, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert same_bits(ButterflyDataset.from_csv(tmp_path / "new.csv", 3, 4), nonempty)
        assert same_bits(ButterflyDataset.from_json(tmp_path / "new.json"), nonempty)

    @pytest.mark.parametrize("text", [
        "phi,den,energy\n0,1,0.5\n",
        "phi_num,phi_den,energy\n0,1\n",
        "phi_num,phi_den,energy\n0,1,0.5,7\n",
        "phi_num,phi_den,energy\n0,1,0.5\n1,2,abc\n",
        "phi_num,phi_den,energy\nx,1,0.5\n",
        "phi_num,phi_den,energy\n1.0,2,0.5\n",
        "phi_num,phi_den,energy\n# 0,1,0.5\n",
    ], ids=["header", "short", "long", "energy", "numerator", "float-numerator",
            "comment"])
    def test_malformed_csv_raises(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError):
            reference_from_csv(path)
        with pytest.raises(ValueError):
            ButterflyDataset.from_csv(path)

    @pytest.mark.parametrize("doc", [
        {"q_max": 2, "k_grid": 2, "points": [{"phi": [1.7, 2], "E": 1.0}]},
        {"q_max": 2, "k_grid": 2, "points": [{"phi": [1, 2]}]},
        {"q_max": 2, "k_grid": 2, "points": [{"phi": [1, 2, 3], "E": 1.0}]},
        {"q_max": 2, "k_grid": 2},
        [{"phi": [1, 2], "E": 1.0}],
    ], ids=["float-numerator", "no-energy", "long-phi", "no-points", "top-level-list"])
    def test_malformed_json_raises(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="butterfly"):
            ButterflyDataset.from_json(path)

    @pytest.mark.parametrize("point", [5, 0, 0.5, True, "abc"])
    def test_bare_json_point_raises(self, tmp_path, point):
        # np.fromiter would broadcast a bare number to the row (5, 5, 5.0)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"q_max": 2, "k_grid": 2, "points": [point]}))
        with pytest.raises(ValueError, match="malformed butterfly point"):
            ButterflyDataset.from_json(path)

    @pytest.mark.parametrize("doc", [
        {"q_max": "x", "k_grid": 4, "points": []},
        {"q_max": 2, "k_grid": None, "points": []},
        {"q_max": 2, "k_grid": 4, "points": [{"phi": [1, 2], "E": "nan"}]},
        {"q_max": 2, "k_grid": 4, "points": [{"phi": [1, 2], "E": True}]},
    ], ids=["string-q_max", "null-k_grid", "string-energy", "bool-energy"])
    def test_json_header_and_energies_are_typed(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="malformed butterfly"):
            ButterflyDataset.from_json(path)

    def test_json_flux_past_int64_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"q_max": 2, "k_grid": 2,
                                    "points": [{"phi": [1, 2**64], "E": 0.5}]}))
        with pytest.raises(ValueError, match="malformed butterfly"):
            ButterflyDataset.from_json(path)

    @pytest.mark.parametrize("flux", [(1, 0), (2, 4), (0, 2), (1, 1), (-1, 3)],
                             ids=["zero-den", "unreduced", "zero-unreduced", "one",
                                  "negative"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_unreduced_flux_rows_raise(self, tmp_path, fmt, flux):
        rows = [(0, 1, 0.5), (*flux, 0.25), (1, 2, -0.5)]
        path = tmp_path / f"bad.{fmt}"
        if fmt == "csv":
            path.write_text("phi_num,phi_den,energy\n"
                            + "".join(f"{n},{d},{e!r}\n" for n, d, e in rows))
            reader = ButterflyDataset.from_csv
        else:
            path.write_text(json.dumps({"q_max": 4, "k_grid": 2, "points": [
                {"phi": [n, d], "E": e} for n, d, e in rows]}))
            reader = ButterflyDataset.from_json
        with pytest.raises(ValueError, match=f"{flux[0]}/{flux[1]}|denominator"):
            reader(path)

    @pytest.mark.parametrize("flux,message", [
        ((2, 4), "lowest terms"),
        ((1, 0), "denominator must be positive"),
        ((3, 2), "must satisfy"),
        ((-1, 2), "must satisfy"),
    ], ids=["unreduced", "zero-den", "past-one", "negative"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_reader_says_why_a_flux_is_refused(self, tmp_path, fmt, flux, message):
        num, den = flux
        path = tmp_path / f"bad.{fmt}"
        if fmt == "csv":
            path.write_text(f"phi_num,phi_den,energy\n0,1,0.5\n{num},{den},0.25\n")
            reader = ButterflyDataset.from_csv
        else:
            path.write_text(json.dumps({"q_max": 4, "k_grid": 2, "points": [
                {"phi": [0, 1], "E": 0.5}, {"phi": [num, den], "E": 0.25}]}))
            reader = ButterflyDataset.from_json
        with pytest.raises(ValueError, match=message):
            reader(path)

    def test_nan_dataset_equals_itself_and_its_round_trips(self, tmp_path):
        ds = ButterflyDataset(2, 4, [(0, 1, np.array([-1.0, np.nan, 0.0])),
                                     (1, 2, np.array([np.nan, 2.0]))])
        assert ds == ds
        ds.to_csv(tmp_path / "nan.csv")
        ds.to_json(tmp_path / "nan.json")
        assert ButterflyDataset.from_csv(tmp_path / "nan.csv", 2, 4) == ds
        assert ButterflyDataset.from_json(tmp_path / "nan.json") == ds
        # 0.0 still matches -0.0, and other values still differ
        signed = ButterflyDataset(2, 4, [(0, 1, np.array([-1.0, np.nan, -0.0])),
                                         ds.entries[1]])
        assert signed == ds
        shifted = ButterflyDataset(2, 4, [(0, 1, np.array([-1.0, 1.0, 0.0])),
                                          ds.entries[1]])
        assert shifted != ds
        # another type compares by identity
        assert ds.__eq__(ds.entries) is NotImplemented
        assert ds != ds.entries

    W = spectral._COMPARE_CHUNK
    NANS = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000,
                     0x7FF0000000000001, 0x7FF8000000000001], dtype=np.uint64).view(np.float64)
    RUNS = {
        "run-longer-than-a-pass": [(0, 1, np.array([-1.0, -1.0, *[0.1] * (3 * W + 5), 2.0]))],
        "run-across-a-pass": [(0, 1, np.concatenate(
            [np.linspace(-2, 0, W - 3), [0.5] * 7, np.linspace(0.6, 2, W)]))],
        "signed-zeros": [(0, 1, np.array([-1.0, -0.0, -0.0, 0.0, 0.0, -0.0, 0.0, 1.0])),
                         (1, 2, np.array([*[0.0] * (W - 1), -0.0, -0.0, 0.0]))],
        "nan-payloads": [(0, 1, np.concatenate([[-1.0], NANS, NANS[::-1]]))],
        "specials-and-an-empty-flux": [
            (0, 1, np.array([-np.inf, -np.inf, -5e-324, 5e-324, 5e-324, np.inf, np.inf])),
            (1, 3, np.array([], dtype=np.float64)),
            (1, 2, np.array([5e-324] * (W + 1)))],
        # the first write is not the first flux's
        "empty-first-flux": [(0, 1, np.array([], dtype=np.float64)),
                             (1, 2, np.array([-0.5, 0.0, 0.0, 0.5]))],
        "only-empty-fluxes": [(0, 1, np.array([], dtype=np.float64)),
                              (1, 2, np.array([], dtype=np.float64))],
    }

    @pytest.mark.parametrize("entries", RUNS.values(), ids=RUNS.keys())
    def test_runs_of_equal_bits_write_the_reference_bytes(self, tmp_path, entries):
        # each run is formatted once and its line repeated; the bytes must
        # be the row-by-row writer's and json.dump's
        ds = ButterflyDataset(3, 4, entries)
        ds.to_csv(tmp_path / "new.csv")
        reference_to_csv(ds, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        ds.to_json(tmp_path / "new.json")
        reference_to_json(ds, tmp_path / "ref.json")
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "ref.json").read_bytes()

    @pytest.mark.parametrize("fmt,row", [("csv", "0,1,0.1\n"),
                                         ("json", '{"phi": [0, 1], "E": 0.1}')],
                             ids=["csv", "json"])
    def test_one_long_run_is_written_in_bounded_pieces(self, tmp_path, fmt, row):
        # 10^6 equal samples are one run; writing it whole would hold the
        # whole file as one string (8 MB of CSV, 26 MB of JSON)
        ds = ButterflyDataset(1, 4, [(0, 1, np.full(10**6, 0.1))])
        path = tmp_path / f"long.{fmt}"
        tracemalloc.start()
        try:
            getattr(ds, f"to_{fmt}")(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024, peak
        assert path.read_bytes().count(row.encode()) == 10**6

    def test_each_run_is_formatted_once_a_pass(self, tmp_path, monkeypatch):
        # runs are found once per pass of _COMPARE_CHUNK samples, so a run
        # is formatted again only where a pass cuts it, not at each write
        ds = butterfly(12, 24)
        calls = []
        number = spectral._json_number

        def counting(e):
            calls.append(e)
            return number(e)
        monkeypatch.setattr(spectral, "_json_number", counting)
        path = tmp_path / "b.json"
        ds.to_json(path)
        head = len('{"q_max": 12, "k_grid": 24, "points": [{')
        points = path.read_text()[head:-3].split("}, {")
        runs = 1 + sum(a != b for a, b in zip(points, points[1:]))
        passes = sum(-(-samples.size // spectral._COMPARE_CHUNK)
                     for _n, _d, samples in ds.entries)
        assert len(points) == 216_000
        assert len(calls) <= runs + passes, (len(calls), runs, passes)

    def test_one_string_a_pass(self):
        # the writer's one bound: each string it yields is one pass
        ds = butterfly(12, 24)
        strings = list(spectral._rows(ds.entries, "{},{},", repr, "\n"))
        passes = sum(-(-samples.size // spectral._COMPARE_CHUNK)
                     for _n, _d, samples in ds.entries)
        assert len(strings) == passes
        assert max(s.count("\n") for s in strings) <= spectral._COMPARE_CHUNK

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_cli_files_match_the_reference_writers(self, tmp_path, capsys, fmt):
        # the README example size
        out = tmp_path / f"cli.{fmt}"
        assert main(["butterfly", "--q-max", "10", "--k-grid", "20",
                     "--format", fmt, "--out", str(out)]) == 0
        capsys.readouterr()
        writer = reference_to_csv if fmt == "csv" else reference_to_json
        writer(butterfly(10, 20), tmp_path / f"ref.{fmt}")
        assert out.read_bytes() == (tmp_path / f"ref.{fmt}").read_bytes()


def block_cases():
    """CSV bodies for the block reader, named by what they exercise."""
    w = spectral._READ_BYTES
    # 12-byte distinct lines up to just short of the first block's end,
    # then a run of 100 equal lines across it
    lead = w // 12 - 20
    straddle = ([f"0,1,{1000 + i}.25\n" for i in range(lead)] + ["0,1,0.5\n"] * 100
                + [f"1,2,{1000 + i}.75\n" for i in range(40)])
    assert 12 * lead < w < 12 * lead + 800
    rng = np.random.default_rng(15)
    fluxes = [(0, 1), (1, 2), (1, 3)]
    distinct = [f"{n},{d},{e!r}\n" for (n, d), e in zip(
        (fluxes[i] for i in rng.integers(0, 3, 20_000)), rng.normal(size=20_000).tolist())]
    assert len("".join(distinct)) > 3 * w
    return {
        "run-across-a-block": "".join(straddle),
        "signed-zeros": "0,1,-0.0\n0,1,0.0\n0,1,0.0\n0,1,-0.0\n0,1,-0.0\n0,1,0.0\n",
        "nan-and-infinities": "0,1,nan\n0,1,nan\n0,1,inf\n0,1,-inf\n0,1,-inf\n0,1,nan\n",
        "runs-split-by-empty-lines": "0,1,0.5\n\n0,1,0.5\n\n\n0,1,0.5\n0,1,0.25\n\n0,1,0.25\n",
        "last-line-without-newline": "0,1,-1.0\n0,1,0.5\n0,1,0.5",
        "crlf": "0,1,-1.0\r\n0,1,0.5\r\n0,1,0.5\r\n\r\n0,1,0.5\r\n1,2,0.5\r\n",
        "interleaved-fluxes": ("0,1,0.5\n1,2,0.5\n1,2,0.5\n0,1,0.5\n0,1,0.5\n"
                               "1,3,-1.0\n1,2,0.5\n1,3,-1.0\n0,1,0.5\n"),
        "distinct-over-several-blocks": "".join(distinct),
    }


BLOCK_CASES = block_cases()


class TestBlockReader:
    """`from_csv` reads blocks of lines and parses each run of equal lines
    once; it must give the line-by-line reader's bits and numpy's messages."""

    HEADER = "phi_num,phi_den,energy\n"

    @pytest.mark.parametrize("body", BLOCK_CASES.values(), ids=BLOCK_CASES.keys())
    def test_same_bits_as_the_reference(self, tmp_path, body):
        path, ref = tmp_path / "blocks.csv", tmp_path / "ref.csv"
        path.write_bytes((self.HEADER + body).encode())
        # the reference reader takes no empty lines
        ref.write_bytes((self.HEADER + "".join(
            line for line in body.splitlines(keepends=True)
            if line not in ("\n", "\r\n"))).encode())
        got = read_quietly(ButterflyDataset.from_csv, path, 3, 4)
        assert same_bits(got, reference_from_csv(ref, 3, 4))

    @pytest.mark.parametrize("name", ["crlf", "runs-split-by-empty-lines",
                                      "last-line-without-newline"])
    def test_a_read_may_end_at_any_byte(self, tmp_path, monkeypatch, name):
        # the file's own reads are as short as _READ_BYTES too, so that a
        # \r may end one and its \n start the next
        body = BLOCK_CASES[name]
        path, ref = tmp_path / "blocks.csv", tmp_path / "ref.csv"
        path.write_bytes((self.HEADER + body).encode())
        ref.write_bytes((self.HEADER + "".join(
            line for line in body.splitlines(keepends=True)
            if line not in ("\n", "\r\n"))).encode())
        expected = reference_from_csv(ref)

        def short_reads(*args, **kwargs):
            fh = open(*args, **kwargs)
            fh._CHUNK_SIZE = spectral._READ_BYTES
            return fh
        monkeypatch.setattr(spectral, "open", short_reads, raising=False)
        longest = max(map(len, body.splitlines()))
        for read_bytes in range(1, len(body) + 1):
            monkeypatch.setattr(spectral, "_READ_BYTES", read_bytes)
            try:
                got = read_quietly(ButterflyDataset.from_csv, path)
            except ValueError as err:
                # a line is carried whole up to _READ_BYTES and refused once
                # a carried part of it is longer; one longer than two reads
                # always is
                assert read_bytes < longest, (read_bytes, err)
                assert str(err).startswith("malformed butterfly row '0"), err
                continue
            assert 2 * read_bytes >= longest, read_bytes
            assert same_bits(got, expected), read_bytes

    def test_a_line_longer_than_a_read_is_refused_within_a_few_reads(self, tmp_path):
        # the line would be read whole, and its energy as inf
        path = tmp_path / "long.csv"
        path.write_text(self.HEADER + "0,1,0.5\n0,1," + "1" * 4 * 10**6 + "\n0,1,0.5\n")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="malformed butterfly row '0,1,111"):
                ButterflyDataset.from_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * spectral._READ_BYTES, peak

    def test_a_long_first_line_is_refused_unheld(self, tmp_path):
        # the header line was read whole and quoted whole in the message
        path = tmp_path / "long-header.csv"
        path.write_text("x" * 4 * 10**6 + "\n0,1,0.5\n")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="unexpected CSV header 'xxx") as err:
                ButterflyDataset.from_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(str(err.value)) < 200
        assert peak < 2**20, peak

    @pytest.mark.parametrize("text,rows", [
        ("phi_num,phi_den,energy", 0),
        ("phi_num,phi_den,energy \n0,1,0.5\n", 1),
        ("phi_num,phi_den,energy\r\n0,1,0.5\r\n", 1),
        ("phi_num,phi_den,energy  \n0,1,0.5\n", None),
        ("phi_num,phi_den,energy  0,1,0.5\n", None),
    ], ids=["without-newline", "one-space", "crlf", "two-spaces", "cut-row"])
    def test_a_header_line_is_read_within_two_characters(self, tmp_path, text, rows):
        path = tmp_path / "header.csv"
        path.write_bytes(text.encode())
        if rows is None:
            with pytest.raises(ValueError, match="unexpected CSV header"):
                ButterflyDataset.from_csv(path)
        else:
            assert read_quietly(ButterflyDataset.from_csv, path, 2, 4).n_rows() == rows

    @pytest.mark.parametrize("blank", [3, 3 * spectral._READ_BYTES], ids=["few", "many-blocks"])
    def test_body_of_empty_lines_is_an_empty_dataset(self, tmp_path, blank):
        path = tmp_path / "blank.csv"
        path.write_text(self.HEADER + "\n" * blank)
        got = read_quietly(ButterflyDataset.from_csv, path, 2, 4)
        assert got.entries == [] and got.n_rows() == 0

    @pytest.mark.parametrize("body,message", [
        ("0,1,0.5\n0,1,0.5\n0,1,0.5\n0,1,abc\n",
         "malformed butterfly row on line 5: '0,1,abc'"),
        ("0,1,0.5\n\n0,1,0.5,7\n",
         "malformed butterfly row on line 4: '0,1,0.5,7'"),
        ("0,1,0.5\n   \n0,1,0.5\n",
         "malformed butterfly row on line 3: '   '"),
        ("0,1,0.5\n" * 20_000 + "\n0,1,0.25\n1,2\n",
         "malformed butterfly row on line 20004: '1,2'"),
    ], ids=["energy-after-a-run", "long-after-an-empty-line", "whitespace-line",
            "short-in-a-later-block"])
    def test_malformed_rows_name_their_line(self, tmp_path, body, message):
        # lines are counted in the file, the header's being line 1, empty
        # lines and earlier blocks included
        path = tmp_path / "bad.csv"
        path.write_text(self.HEADER + body)
        with pytest.raises(ValueError) as err:
            ButterflyDataset.from_csv(path)
        assert str(err.value) == message

    def test_a_malformed_last_row_is_refused_within_its_block(self, tmp_path):
        # a reader that parsed the whole body again to number the row would
        # hold a record for every row before it
        path = tmp_path / "bad-last.csv"
        rows = 2 * 10**5
        path.write_text(self.HEADER + "0,1,0.5\n" * rows + "1,2\n")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"on line {rows + 2}: '1,2'$"):
                ButterflyDataset.from_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * spectral._READ_BYTES, peak

    def test_each_run_of_equal_lines_is_parsed_once(self, tmp_path, monkeypatch):
        ds = butterfly(12, 24)
        path = tmp_path / "b.csv"
        ds.to_csv(path)
        lines = path.read_text().splitlines()[1:]
        runs = 1 + sum(a != b for a, b in zip(lines, lines[1:]))
        assert len(lines) == 216_000 and runs <= 18_488
        parsed = []
        loadtxt = np.loadtxt

        def counting(data, *args, **kwargs):
            data = list(data)
            parsed.append(len(data))
            return loadtxt(data, *args, **kwargs)
        monkeypatch.setattr(spectral.np, "loadtxt", counting)
        assert same_bits(ButterflyDataset.from_csv(path, 12, 24), ds)
        # a run cut by a block's end is parsed once in each block
        assert sum(parsed) <= runs + len(parsed), (sum(parsed), runs, len(parsed))

    @pytest.mark.parametrize("rows", ["equal", "distinct"])
    def test_reading_holds_the_samples_and_a_few_blocks(self, tmp_path, rows):
        # One block's lines as str objects, numpy's UCS4 copy of them and
        # their records take up to about 20 times the block's bytes, for the
        # shortest rows.  Runs are held as one energy and a length until
        # their flux is joined, so a file of equal rows holds little more
        # than its samples; a file without repeats holds its flux's energies
        # once more while they are joined.  A reader that kept every line
        # would hold some 60 bytes a row more.
        samples, copies = ((np.full(10**6, 0.1), 1) if rows == "equal"
                           else (np.linspace(-4, 4, 2 * 10**5), 2))
        path = tmp_path / "big.csv"
        ButterflyDataset(1, 4, [(0, 1, samples)]).to_csv(path)
        tracemalloc.start()
        try:
            got = ButterflyDataset.from_csv(path, 1, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert same_bits(got, ButterflyDataset(1, 4, [(0, 1, samples)]))
        assert peak < copies * samples.nbytes + 32 * spectral._READ_BYTES, peak


def interleaved_rows(ds, seed):
    """ds's rows with each flux's rows in order but cut into random runs of
    1 to 40 rows and interleaved with the other fluxes' runs."""
    shuffle = random.Random(seed)
    queues = {(n, d): samples.tolist() for n, d, samples in ds.entries}
    rows = []
    while queues:
        key = shuffle.choice(sorted(queues))
        take = queues[key][:shuffle.randint(1, 40)]
        del queues[key][:len(take)]
        if not queues[key]:
            del queues[key]
        rows += [(*key, e) for e in take]
    return rows


def json_text(q_max, k_grid, rows):
    return json.dumps({"q_max": q_max, "k_grid": k_grid, "points": [
        {"phi": [n, d], "E": e} for n, d, e in rows]})


THREE_POINTS = json_text(2, 4, [(0, 1, -1.0), (1, 2, 0.5), (1, 2, 1.5)])


class TestJsonReader:
    """`from_json` reads exactly the layout `to_json` writes, in blocks of
    _READ_BYTES, and parses each run of equal points once; it must give
    json.load's bits and refuse every other layout."""

    @pytest.mark.parametrize("read_bytes", [101, 127, 509])
    def test_small_blocks_read_the_reference_bits(self, tmp_path, monkeypatch,
                                                   read_bytes):
        ds = butterfly(5, 6)
        whole, mixed = tmp_path / "whole.json", tmp_path / "mixed.json"
        ds.to_json(whole)
        # the rows of test_interleaved_rows_group_like_the_reference
        mixed.write_text(json_text(5, 6, interleaved_rows(ds, 5)))
        monkeypatch.setattr(spectral, "_READ_BYTES", read_bytes)
        for path in (whole, mixed):
            got = read_quietly(ButterflyDataset.from_json, path)
            assert same_bits(got, reference_from_json(path)) and got == ds

    @pytest.mark.parametrize("text", ['{"q_max": 2, "k_grid": 4, "points": []}', THREE_POINTS],
                             ids=["no-points", "three-points"])
    def test_a_read_may_end_at_any_byte_after_the_head(self, tmp_path, monkeypatch, text):
        path, longer = tmp_path / "b.json", tmp_path / "longer.json"
        path.write_text(text)
        longer.write_text(text + "x")
        head = len('{"q_max": 2, "k_grid": 4, "points": [')
        for read_bytes in range(head, len(text) + 2):
            monkeypatch.setattr(spectral, "_READ_BYTES", read_bytes)
            assert same_bits(ButterflyDataset.from_json(path), reference_from_json(path))
            with pytest.raises(ValueError, match="malformed butterfly"):
                ButterflyDataset.from_json(longer)

    @pytest.mark.parametrize("text", [
        THREE_POINTS[:-3] + "]}",
        THREE_POINTS.replace("[{", "[", 1),
        THREE_POINTS.replace("0.5}, {", "0.5, {"),
        THREE_POINTS[:-1],
        THREE_POINTS[:-2],
        THREE_POINTS[:-3],  # its last point alone is well formed
        '{"q_max": 2, "k_grid": 4, "points": []}'[:-1],
        '{"q_max": 2, "k_grid": 4, "points": []}'[:-2],
    ], ids=["last-without-brace", "first-without-brace", "middle-without-brace",
            "cut-by-one", "cut-by-two", "cut-by-three",
            "no-points-cut-by-one", "no-points-cut-by-two"])
    def test_broken_framing_raises(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ValueError):
            reference_from_json(path)
        with pytest.raises(ValueError, match="malformed butterfly"):
            ButterflyDataset.from_json(path)

    DOC = json.loads(THREE_POINTS)
    OTHER_LAYOUTS = {
        "indented": json.dumps(DOC, indent=2),
        "trailing-newline": THREE_POINTS + "\n",
        "swapped-point-keys": THREE_POINTS.replace('"phi": [1, 2], "E": 0.5',
                                                   '"E": 0.5, "phi": [1, 2]'),
        "extra-top-level-key": json.dumps({**DOC, "note": 1}),
    }

    @pytest.mark.parametrize("text", OTHER_LAYOUTS.values(), ids=OTHER_LAYOUTS.keys())
    def test_other_layouts_raise(self, tmp_path, text):
        # valid JSON of the same dataset, which to_json never writes
        path = tmp_path / "other.json"
        path.write_text(text)
        assert reference_from_json(path).n_rows() == 3
        with pytest.raises(ValueError, match="malformed butterfly"):
            ButterflyDataset.from_json(path)

    def test_a_body_without_separators_is_refused_within_a_few_reads(self, tmp_path):
        path = tmp_path / "long.json"
        path.write_text(THREE_POINTS[:-3].replace("1.5", "1." + "5" * 4 * 10**6) + "}]}")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="malformed butterfly point"):
                ButterflyDataset.from_json(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * spectral._READ_BYTES, peak

    def test_each_run_of_equal_points_is_parsed_once(self, tmp_path, monkeypatch):
        ds = butterfly(12, 24)
        path = tmp_path / "b.json"
        ds.to_json(path)
        points = [(*p["phi"], p["E"]) for p in json.loads(path.read_text())["points"]]
        runs = 1 + sum(a != b for a, b in zip(points, points[1:]))
        assert len(points) == 216_000 and runs <= 18_488
        parsed = []
        loadtxt = np.loadtxt

        def counting(data, *args, **kwargs):
            data = list(data)
            parsed.append(len(data))
            return loadtxt(data, *args, **kwargs)
        monkeypatch.setattr(spectral.np, "loadtxt", counting)
        assert same_bits(ButterflyDataset.from_json(path), ds)
        # a run cut by a block's end is parsed once in each block
        assert sum(parsed) <= runs + len(parsed), (sum(parsed), runs, len(parsed))

    @pytest.mark.parametrize("rows", ["equal", "distinct"])
    def test_reading_holds_the_samples_and_a_few_blocks(self, tmp_path, rows):
        # the CSV reader's bound: one block's point strings, their object
        # array and their records, and each run held as one energy and a
        # length until its flux is joined; json.load held every point
        samples, copies = ((np.full(10**6, 0.1), 1) if rows == "equal"
                           else (np.linspace(-4, 4, 2 * 10**5), 2))
        path = tmp_path / "big.json"
        ButterflyDataset(1, 4, [(0, 1, samples)]).to_json(path)
        tracemalloc.start()
        try:
            got = ButterflyDataset.from_json(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert same_bits(got, ButterflyDataset(1, 4, [(0, 1, samples)]))
        assert peak < copies * samples.nbytes + 32 * spectral._READ_BYTES, peak


def chunk_bytes(k, q, lanes, itemsize=16):
    """The _STACK_CHUNK_BYTES that give each of `lanes` lanes a chunk of k
    Bloch matrices at denominator q, each itemsize q^2 bytes of entries (16
    complex, 8 real) plus its row temporaries."""
    return k * lanes * (itemsize * q * q + 64 * q + 64)


def held_rule(dens, k_grid, sweep=False):
    """The figure the held-memory rule gives after each q in dens, term by
    term: every flux's samples, bands and objects, plus the largest one-solve
    transient and the slack.  A spectrum solves one flux on its reduced grid
    of n_k points, and at gcd(q, k_grid) = 1 those eigenvalues are its
    samples; a sweep solves every reduced nu/q at q in one stack, one real
    matrix a Chambers class.  A solve's transient is its eigenvalues when
    they are not the samples and, for each lane that has a chunk to solve,
    one chunk plus one more matrix."""
    held = transient = 0
    figures = []
    itemsize = 8 if sweep else 16
    for q in dens:
        fluxes = sum(math.gcd(nu, q) == 1 for nu in range(q)) if sweep else 1
        if sweep:
            rows = eigs = fluxes * spectral._chambers_classes(q, k_grid)[2].size
        else:
            rows = (k_grid // math.gcd(q, k_grid)) * k_grid
            eigs = 0 if math.gcd(q, k_grid) == 1 else rows
        step = max(1, spectral._STACK_CHUNK_BYTES
                   // chunk_bytes(1, q, spectral._LANES, itemsize))
        lanes = min(spectral._LANES, math.ceil(rows / step))
        held += fluxes * (8 * q * k_grid * k_grid + 128 * q + 512)
        transient = max(transient,
                        8 * q * eigs + chunk_bytes(min(rows, step) + 1, q, lanes, itemsize))
        figures.append(held + transient + spectral._SLACK_BYTES)
    return figures


class TestAllocationBudget:
    def test_spectrum_budget_is_what_the_solve_holds(self, monkeypatch):
        # q = 4, k_grid = 8: gcd 4, so n_k = 16 points in one chunk
        [nbytes] = held_rule([4], 8)
        monkeypatch.setattr(reporting, "ALLOCATION_BUDGET_BYTES", nbytes)
        assert spectrum(Flux.rational(1, 4), 8).samples.size == 4 * 8 * 8
        monkeypatch.setattr(reporting, "ALLOCATION_BUDGET_BYTES", nbytes - 1)
        with pytest.raises(ValueError, match="allocation budget"):
            spectrum(Flux.rational(1, 4), 8)

    @pytest.mark.parametrize("k_grid,crossing", [(7, 8), (8, 5), (7, 5), (8, 8)])
    def test_approximants_refused_before_any_solve(self, monkeypatch, k_grid, crossing):
        # golden at depth 5 has q = 1, 2, 3, 5, 8; the figure counts every
        # flux's samples up to q plus the largest one-flux transient
        dens = [1, 2, 3, 5, 8]
        nbytes = held_rule(dens, k_grid)[dens.index(crossing)]
        solved = []
        monkeypatch.setattr(spectral, "spectrum", lambda *args: solved.append(args))
        monkeypatch.setattr(reporting, "ALLOCATION_BUDGET_BYTES", nbytes - 1)
        with pytest.raises(ValueError, match=f"q={crossing}, k_grid={k_grid} needs {nbytes} "):
            approximant_spectra(Flux.golden(), 5, k_grid)
        assert solved == []

    def test_butterfly_sizes_the_whole_sweep_first(self, monkeypatch):
        # q_max = 3, k_grid = 6: 0/1, 1/2, then 1/3 and 2/3 in one stack
        nbytes = held_rule([1, 2, 3], 6, sweep=True)[-1]
        solved = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a: solved.append(a.shape) or eigvalsh(a))
        monkeypatch.setattr(reporting, "ALLOCATION_BUDGET_BYTES", nbytes - 1)
        with pytest.raises(ValueError, match="allocation budget"):
            butterfly(3, 6)
        assert solved == []
        monkeypatch.setattr(reporting, "ALLOCATION_BUDGET_BYTES", nbytes)
        assert 8 * butterfly(3, 6).n_rows() == 8 * 36 * (1 + 2 + 3 + 3)
        assert len(solved) == 3

    def test_huge_sweep_refused_before_listing_fluxes(self, monkeypatch):
        listed = []
        monkeypatch.setattr(spectral, "flux_values", lambda q_max: listed.append(q_max))
        with pytest.raises(ValueError, match=r"through q=116, k_grid=20 "):
            butterfly(10**9, 20)
        assert listed == []

    def test_a_refusal_comes_before_any_solve(self, monkeypatch):
        # the whole reduced grid of 0/1 at k_grid 1000 peaks at about 10.4 MB
        # traced, but the rule's upper bound is 12.5 MB
        shapes = count_eigvalsh(monkeypatch)
        monkeypatch.setattr(reporting, "ALLOCATION_BUDGET_BYTES", 12 * 10**6)
        with pytest.raises(ValueError, match="allocation budget"):
            spectrum(Flux.rational(0, 1), 1000)
        assert shapes == []

    def test_chunked_requests_fit_a_small_budget(self, monkeypatch):
        # the whole q = 169 stack at k_grid 12 is 66 MB; the solve holds 4 MB
        monkeypatch.setattr(reporting, "ALLOCATION_BUDGET_BYTES", 16 * 2**20)
        assert spectrum(Flux.rational(70, 169), 12).samples.size == 169 * 144
        seq = approximant_spectra(Flux.sqrt2(), 6, 12)
        assert seq.convergents[-1] == Fraction(70, 169)

    def test_cli_output_does_not_depend_on_the_budget(self, monkeypatch, capsys):
        argv = ["spectrum", "--flux", "sqrt2", "--depth", "6", "--k-grid", "12",
                "--format", "json"]
        assert main(argv) == 0
        default = capsys.readouterr()
        monkeypatch.setattr(reporting, "ALLOCATION_BUDGET_BYTES", 16 * 2**20)
        assert main(argv) == 0
        assert capsys.readouterr() == default


def traced_request(monkeypatch, request):
    """The largest figure the request passes to require_allocation, the
    tracemalloc peak of running it, and the bytes of samples it returns."""
    figures = []
    require = spectral.require_allocation
    monkeypatch.setattr(spectral, "require_allocation",
                        lambda nbytes, what: figures.append(nbytes) or require(nbytes, what))
    tracemalloc.start()
    try:
        result = request()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if isinstance(result, ButterflyDataset):
        samples = 8 * result.n_rows()
    else:
        samples = sum(est.samples.nbytes for est in getattr(result, "spectra", [result]))
    return max(figures), peak, samples


@pytest.mark.parametrize("request_", [
    lambda: spectrum(Flux.rational(0, 1), 1000),
    lambda: spectrum(Flux.rational(1, 2), 200),
    lambda: spectrum(Flux.rational(3, 7), 64),
    lambda: spectrum(Flux.rational(70, 169), 12),
    lambda: spectrum(Flux.rational(21, 34), 68),
    lambda: spectrum(Flux.rational(1, 8), 800),
    lambda: approximant_spectra(Flux.golden(), 8, 40),
    lambda: approximant_spectra(Flux.sqrt2(), 6, 12),
    lambda: approximant_spectra(Flux.golden(), 5, 400),
    lambda: butterfly(12, 24),
    lambda: butterfly(30, 10),
    lambda: butterfly(20, 40),
], ids=["spectrum 0/1 k1000", "spectrum 1/2 k200", "spectrum 3/7 k64",
        "spectrum 70/169 k12", "spectrum 21/34 k68", "spectrum 1/8 k800",
        "approximants golden 8 k40",
        "approximants sqrt2 6 k12", "approximants golden 5 k400", "butterfly 12 k24",
        "butterfly 30 k10", "butterfly 20 k40"])
def test_sized_figure_bounds_what_the_request_holds(monkeypatch, request_):
    """The figure a request is sized at is at least the tracemalloc peak of
    running it, and at most three times that peak, in one lane and in two.
    The returned samples are counted exactly, so a sweep that returns many
    of them is sized close to its peak; the rest of the figure bounds the
    rest of the peak with at least 15 % to spare.  tracemalloc sees the
    numpy arrays and Python objects of every thread, not LAPACK's
    workspace, which numpy allocates outside it."""
    for lanes in (1, 2):
        with monkeypatch.context() as patch:
            patch.setattr(spectral, "_LANES", lanes)
            figure, peak, samples = traced_request(patch, request_)
        assert peak <= figure <= 3 * peak
        assert figure - samples >= 1.15 * (peak - samples)


def reference_solve_reduced(num, den, k_grid):
    """Reference: the whole Bloch stack of the reduced grid in one eigvalsh
    call, as the solve was first written."""
    ks = TWO_PI * np.arange(k_grid) / k_grid
    g = math.gcd(den, k_grid)
    kk1, kk2 = np.meshgrid(ks[: k_grid // g], ks, indexing="ij")
    return np.linalg.eigvalsh(bloch_stack(num, den, kk1.ravel(), kk2.ravel())), g


def reference_spectrum(num, den, k_grid):
    """Reference samples and bands: the whole-stack solve, its eigenvalues
    tiled gcd(q, k_grid) times and then sorted, as the spectrum was first
    assembled, and its per-band [min, max] intervals sorted and merged
    wherever one starts below the running top of the last."""
    eigs, g = reference_solve_reduced(num, den, k_grid)
    merged = []
    for lo, hi in sorted(zip(eigs.min(axis=0).tolist(), eigs.max(axis=0).tolist())):
        if merged and lo < merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return np.sort(np.tile(eigs.ravel(), g)), tuple((lo, hi) for lo, hi in merged)


def count_eigvalsh(monkeypatch):
    """Record the shape of every np.linalg.eigvalsh argument."""
    shapes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or eigvalsh(a))
    return shapes


class TestChunkedSolve:
    def test_sort_then_repeat_is_the_tiled_sort(self):
        # every reduced flux with q <= 14 at grids that share all, some or no
        # factors with q; tobytes tells 0.0 from -0.0
        for q in range(1, 15):
            for nu in (nu for nu in range(q) if math.gcd(nu, q) == 1):
                for k_grid in (4, 5, 6, 7, 8, 10, 12, 16, 20, 24, 40):
                    est = spectrum(Flux.rational(nu, q), k_grid)
                    ref_samples, ref_bands = reference_spectrum(nu, q, k_grid)
                    assert est.samples.tobytes() == ref_samples.tobytes(), (nu, q, k_grid)
                    assert est.bands == ref_bands

    @pytest.mark.parametrize("nu,q,k_grid,ratio", [
        (1, 8, 800, 1.25), (1, 2, 1000, 1.75), (2, 5, 601, 1.6), (1, 7, 401, 1.85),
        (0, 1, 1000, 1.5)])
    def test_solve_holds_no_copy_of_the_samples(self, nu, q, k_grid, ratio):
        # at gcd(q, k_grid) > 1 the samples, the reduced eigenvalues
        # (1/gcd(q, k_grid) of the samples) and one chunk; at gcd 1 the
        # sorted eigenvalues are the samples, so only one chunk comes on
        # top, and a repeated copy beside them would hold twice the samples
        tracemalloc.start()
        try:
            est = spectrum(Flux.rational(nu, q), k_grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= ratio * est.samples.nbytes

    def test_large_stack_is_never_held_whole(self):
        # the q = 169 stack at k_grid 12 is 144 matrices, 66 MB; one lane's
        # chunk is 8 of them, 3.7 MB, and each of two lanes' is 4
        tracemalloc.start()
        try:
            spectrum(Flux.rational(70, 169), 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_small_stacks_are_one_call(self, monkeypatch):
        shapes = count_eigvalsh(monkeypatch)
        butterfly(3, 6)
        # one stack a denominator, over every Chambers class of each of its
        # fluxes: folded residues {0, 1, 2, 3} at q = 1 (0/1), {0, 2} at
        # q = 2 (1/2) and {0, 3} at q = 3 (1/3 and 2/3)
        assert shapes == [(10, 1, 1), (3, 2, 2), (6, 3, 3)]


def real_stack(nu, q, k1, k2):
    """The real Bloch stack at momenta (k1[i], k2[i]), built in a fresh
    buffer."""
    return spectral._bloch_builder([nu], q)(np.zeros(len(k1), int), k1, k2,
                                            np.empty((len(k1), q, q)))


def solve_classes(nu, q, k_grid):
    """Reference: the class solve of one flux, one stack per flux; the
    eigenvalues of one real Bloch matrix per Chambers class, at its real
    representative, and each class's number of grid points."""
    k1, k2, counts = spectral._class_momenta(q, k_grid)
    return np.linalg.eigvalsh(real_stack(nu, q, k1, k2)), counts


def class_deviation(nu, q, k_grid):
    """Largest distance between the class solve's samples, each class's
    eigenvalues repeated by its count, and the per-point reference."""
    eigs, counts = solve_classes(nu, q, k_grid)
    assert counts.sum() == k_grid ** 2
    samples = np.sort(np.repeat(eigs, counts, axis=0).ravel())
    return float(np.max(np.abs(samples - reference_spectrum(nu, q, k_grid)[0])))


class TestChambersClasses:
    @pytest.mark.parametrize("k_grid", [4, 5, 6, 7, 8, 12, 16, 24, 40])
    def test_class_solve_is_the_per_point_solve(self, k_grid):
        for nu, q in reduced_fractions(30):
            assert class_deviation(nu, q, k_grid) < 1e-12, (nu, q, k_grid)

    def test_each_representative_has_its_class_sum(self):
        # c = cos(q k1) + cos(q k2) at the real representative is the sum of
        # cosines of the class's folded residues, exactly at c = +-2
        for k_grid in range(4, 41):
            for q in range(1, 51):
                f1, f2, _counts = spectral._chambers_classes(q, k_grid)
                k1, k2, _counts = spectral._class_momenta(q, k_grid)
                c = np.cos(TWO_PI * f1 / k_grid) + np.cos(TWO_PI * f2 / k_grid)
                got = np.cos(q * k1) + np.cos(q * k2)
                assert np.max(np.abs(got - c)) <= 1e-15, (q, k_grid)
                edges = np.abs(c) == 2
                assert edges[0] and np.array_equal(got[edges], c[edges]), (q, k_grid)

    @pytest.mark.parametrize("k_grid", [4, 7, 12, 24, 40])
    def test_the_real_stack_is_the_complex_stack_at_the_representative(self, k_grid):
        # the real solve drops an imaginary part of at most 1e-15 and keeps
        # every bit of the real part, a symmetric matrix
        for nu, q in reduced_fractions(30):
            k1, k2, _counts = spectral._class_momenta(q, k_grid)
            mats, real = bloch_stack(nu, q, k1, k2), real_stack(nu, q, k1, k2)
            assert np.max(np.abs(mats.imag)) <= 1e-15, (nu, q)
            assert real.dtype == np.float64 and mats.real.tobytes() == real.tobytes(), (nu, q)
            assert np.array_equal(real, real.transpose(0, 2, 1)), (nu, q)

    def test_a_key_without_the_second_residue_fails(self, monkeypatch):
        # negative control: one class per first folded residue, its second
        # residue taken as 0, keeps the counts but not the samples
        classes = spectral._chambers_classes

        def first_residue_only(den, k_grid):
            f1, _f2, counts = classes(den, k_grid)
            firsts, key = np.unique(f1, return_inverse=True)
            return firsts, np.zeros_like(firsts), np.bincount(key, weights=counts).astype(int)
        monkeypatch.setattr(spectral, "_chambers_classes", first_residue_only)
        assert class_deviation(1, 3, 8) > 1e-3

    def test_butterfly_samples_are_the_per_point_samples(self):
        ds = butterfly(8, 12)
        assert [(n, d) for n, d, _s in ds.entries] == [
            (f.numerator, f.denominator) for f in flux_values(8)]
        for nu, q, samples in ds.entries:
            assert samples.size == q * 144
            assert np.max(np.abs(samples - reference_spectrum(nu, q, 12)[0])) < 1e-12

    @pytest.mark.parametrize("lanes", [1, 2, 3])
    @pytest.mark.parametrize("per_chunk", [None, 5])
    def test_butterfly_is_the_per_flux_class_solve_bit_for_bit(self, monkeypatch, lanes,
                                                               per_chunk):
        # each denominator is one stack, split back into its fluxes; with 5
        # real matrices a lane's chunk at q = 9 every larger stack spans
        # several chunks, which cut across fluxes and run in every lane
        monkeypatch.setattr(spectral, "_LANES", lanes)
        if per_chunk:
            monkeypatch.setattr(spectral, "_STACK_CHUNK_BYTES",
                                chunk_bytes(per_chunk, 9, lanes, 8))
        shapes = count_eigvalsh(monkeypatch)
        ds = butterfly(9, 12)
        assert (len(shapes) > 9) == bool(per_chunk)
        assert [(n, d) for n, d, _s in ds.entries] == [
            (f.numerator, f.denominator) for f in flux_values(9)]
        for nu, q, samples in ds.entries:
            eigs, counts = solve_classes(nu, q, 12)
            expected = np.repeat(eigs, counts, axis=0).ravel()
            expected.sort()
            assert np.array_equal(samples.view(np.int64), expected.view(np.int64)), (nu, q)

    def test_class_count_is_the_number_of_classes(self):
        # the sweep is sized by this count, without building the classes
        for k_grid in range(4, 41):
            for q in range(1, 50):
                assert spectral._class_count(q, k_grid) == (
                    spectral._chambers_classes(q, k_grid)[2].size), (q, k_grid)

    def test_butterfly_sizes_its_sweep_once(self, monkeypatch):
        walks = []
        require_held = spectral._require_held
        monkeypatch.setattr(spectral, "_require_held",
                            lambda *args: walks.append(args) or require_held(*args))
        butterfly(5, 8)
        assert len(walks) == 1

    @pytest.mark.parametrize("request_,sha256", [
        ("approximant_spectra(Flux.golden(), 10, 16).spectra",
         {1: "f80dbf6bfd09a173b00981be90b53f30270443ae11f5148c422d4c3a7bf8d51f",
          2: "f80dbf6bfd09a173b00981be90b53f30270443ae11f5148c422d4c3a7bf8d51f"}),
        ("approximant_spectra(Flux.sqrt2(), 6, 12).spectra",
         {1: "ccab867228c46d5ec08cbc41f60c6b2311ec4785a7a73b048d8d1d9a86baaa5f",
          2: "509a278d8b7e187e8d5dfcd2b7f4f7c6f770c01d435da7bf2ee0bbff2b74bf2e"}),
        ("[spectrum(Flux.rational(70, 169), 12)]",
         {1: "e698f234a9d6f1f30f35d8dcd84b387498a98cb87b1d116e2a71481e71fec6e5",
          2: "8abff24329a37c9126e46ecfc028b35436239ecbb61a29cd9c4129463ca58327"}),
    ], ids=["golden 10 k16", "sqrt2 6 k12", "spectrum 70/169 k12"])
    def test_spectrum_keeps_the_per_point_bits(self, request_, sha256):
        # the samples and bands of the per-point solve, as numpy 2.4.6 with
        # its bundled OpenBLAS computes them at one and at two BLAS threads
        # (threaded OpenBLAS moves the q = 169 bits; two threads need two
        # CPUs); the class solve would move the samples by about 1e-14 and
        # report 8 bands, not 7, at golden 5/8
        for threads, expected in sha256.items():
            assert run_python(["-c", PINNED_DIGEST.format(request=request_)],
                              threads) == expected + "\n", threads


PINNED_DIGEST = """
import hashlib
from fluxlattice.phases import Flux
from fluxlattice.spectral import approximant_spectra, spectrum
digest = hashlib.sha256()
for est in {request}:
    digest.update(est.samples.tobytes())
    digest.update(repr(est.bands).encode())
print(digest.hexdigest())
"""


def run_python(args, openblas_threads):
    """stdout of `python args...` in a fresh process that imports this
    checkout's package, with OPENBLAS_NUM_THREADS set to openblas_threads,
    or with no BLAS thread setting at all when it is None."""
    src = str(Path(spectral.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(openblas_threads)
    return subprocess.run([sys.executable, *args], stdout=subprocess.PIPE, text=True,
                          env=env, timeout=120, check=True).stdout


def lane_of_this_thread():
    """The lane the calling thread runs: 0 in the main thread."""
    thread = threading.current_thread()
    return 0 if thread is threading.main_thread() else int(thread.name.rsplit(" ", 1)[1])


def chunks_by_lane(n, per_chunk, lanes):
    """The size of every chunk each lane solves, in order, when n points are
    solved per_chunk at a time: lane i takes chunks i, i + used, ... where
    used is the number of lanes that get a chunk."""
    sizes = [min(per_chunk, n - lo) for lo in range(0, n, per_chunk)]
    used = min(lanes, len(sizes))
    return {lane: sizes[lane::used] for lane in range(used)}


ALL_LANES = pytest.mark.parametrize("lanes", [1, 2, 3])


class TestLanes:
    @ALL_LANES
    @pytest.mark.parametrize("k_grid", [7, 8, 12, 16])
    @pytest.mark.parametrize("nu,q", [(0, 1), (1, 2), (2, 5), (3, 8), (8, 13), (21, 34)])
    def test_bit_identical_to_the_whole_stack(self, monkeypatch, lanes, nu, q, k_grid):
        monkeypatch.setattr(spectral, "_LANES", lanes)
        ref_samples, ref_bands = reference_spectrum(nu, q, k_grid)
        n_k = (k_grid // math.gcd(q, k_grid)) * k_grid
        # one matrix a chunk, a short last chunk, and fewer chunks than lanes
        short = next(c for c in range(2, n_k) if n_k % c)
        fewer = [-(-n_k // (lanes - 1))] if lanes > 1 else []
        for per_chunk in (1, short, *fewer):
            solved, eigvalsh = {}, np.linalg.eigvalsh
            with monkeypatch.context() as patch:
                patch.setattr(spectral, "_STACK_CHUNK_BYTES", chunk_bytes(per_chunk, q, lanes))
                patch.setattr(np.linalg, "eigvalsh", lambda a: solved.setdefault(
                    lane_of_this_thread(), []).append(a.shape[0]) or eigvalsh(a))
                est = spectrum(Flux.rational(nu, q), k_grid)
            assert solved == chunks_by_lane(n_k, per_chunk, lanes), per_chunk
            assert est.samples.tobytes() == ref_samples.tobytes(), per_chunk
            assert est.bands == ref_bands

    @ALL_LANES
    def test_every_point_is_solved_once_by_its_lane(self, monkeypatch, lanes):
        # 40 points of 1/3 in chunks of 3: lane i solves chunks i, i + lanes, ...
        monkeypatch.setattr(spectral, "_LANES", lanes)
        monkeypatch.setattr(spectral, "_STACK_CHUNK_BYTES", chunk_bytes(3, 3, lanes))
        ks = TWO_PI * np.arange(8) / 8
        solved = []

        def momenta(i):
            solved.append((lane_of_this_thread(), i))
            return 0 * i, ks[i // 8], ks[i % 8]
        eigs = spectral._solve_points([1], 3, 40, momenta)
        points = np.concatenate([i for _lane, i in solved])
        assert np.array_equal(np.sort(points), np.arange(40))
        for lane in range(lanes):
            assert [i[0] for solver, i in solved if solver == lane] == list(
                range(3 * lane, 40, 3 * lanes))
        whole = np.linalg.eigvalsh(bloch_stack(1, 3, *momenta(np.arange(40))[1:]))
        assert eigs.tobytes() == whole.tobytes()

    @ALL_LANES
    def test_each_lane_reuses_one_buffer(self, monkeypatch, lanes):
        # a fresh chunk each time can leave the allocator holding two
        monkeypatch.setattr(spectral, "_LANES", lanes)
        monkeypatch.setattr(spectral, "_STACK_CHUNK_BYTES", chunk_bytes(5, 3, lanes))
        stacks, eigvalsh = [], np.linalg.eigvalsh

        def keep(a):
            stacks.append((lane_of_this_thread(), a))
            return eigvalsh(a)
        monkeypatch.setattr(np.linalg, "eigvalsh", keep)
        spectrum(Flux.rational(1, 3), 8)
        sizes, firsts = {}, {}
        for lane, a in stacks:
            sizes.setdefault(lane, []).append(a.shape[0])
            assert np.shares_memory(a, firsts.setdefault(lane, a))
        assert sizes == chunks_by_lane(64, 5, lanes)
        assert not any(np.shares_memory(firsts[a], firsts[b])
                       for a in firsts for b in firsts if a < b)

    @ALL_LANES
    def test_only_a_solve_of_several_chunks_starts_threads(self, monkeypatch, lanes):
        monkeypatch.setattr(spectral, "_LANES", lanes)
        started = []

        class Recorded(threading.Thread):
            def start(self):
                started.append(self.name)
                super().start()
        monkeypatch.setattr(threading, "Thread", Recorded)
        spectrum(Flux.rational(1, 3), 8)
        assert started == []
        monkeypatch.setattr(spectral, "_STACK_CHUNK_BYTES", chunk_bytes(5, 3, lanes))
        spectrum(Flux.rational(1, 3), 8)
        assert started == [f"spectral lane {lane}" for lane in range(1, lanes)]

    @pytest.mark.parametrize("lanes", [2, 3])
    @pytest.mark.parametrize("failing", [0, 1])
    def test_an_error_in_a_lane_is_raised_after_every_lane_ends(self, monkeypatch, lanes,
                                                                 failing):
        monkeypatch.setattr(spectral, "_LANES", lanes)
        monkeypatch.setattr(spectral, "_STACK_CHUNK_BYTES", chunk_bytes(5, 3, lanes))
        eigvalsh = np.linalg.eigvalsh

        def fail_in_one_lane(a):
            if lane_of_this_thread() == failing:
                raise np.linalg.LinAlgError(f"lane {failing}")
            return eigvalsh(a)
        monkeypatch.setattr(np.linalg, "eigvalsh", fail_in_one_lane)
        before = threading.active_count()
        with pytest.raises(np.linalg.LinAlgError, match=f"lane {failing}"):
            spectrum(Flux.rational(1, 3), 8)
        assert threading.active_count() == before


def test_many_lanes_switching_often_keep_every_row(monkeypatch):
    # eight lanes, more than the CPUs of a small host, with the interpreter
    # switching threads every microsecond: a lost or misplaced row moves bytes
    monkeypatch.setattr(spectral, "_LANES", 8)
    monkeypatch.setattr(spectral, "_STACK_CHUNK_BYTES", chunk_bytes(1, 8, 8))
    ref_samples, ref_bands = reference_spectrum(3, 8, 16)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            est = spectrum(Flux.rational(3, 8), 16)
            assert est.samples.tobytes() == ref_samples.tobytes()
            assert est.bands == ref_bands
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("cpus,environ,lanes", [
    (2, {}, 1),
    (2, {"OPENBLAS_NUM_THREADS": "1"}, 2),
    (4, {"OPENBLAS_NUM_THREADS": "2"}, 2),
    (4, {"OPENBLAS_NUM_THREADS": "3"}, 1),
    (2, {"OPENBLAS_NUM_THREADS": "8"}, 1),
    (2, {"OPENBLAS_NUM_THREADS": "0"}, 1),
    (2, {"OPENBLAS_NUM_THREADS": ""}, 1),
    (2, {"OPENBLAS_NUM_THREADS": "x"}, 1),
    (2, {"OPENBLAS_NUM_THREADS": "-1"}, 1),
    (4, {"OMP_NUM_THREADS": "1"}, 4),
    (4, {"MKL_NUM_THREADS": "2"}, 2),
    (4, {"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 1),
    (4, {"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "0", "MKL_NUM_THREADS": "2"}, 2),
])
def test_lanes_are_the_cpus_the_blas_leaves_idle(cpus, environ, lanes):
    assert spectral._lane_count(cpus, environ) == lanes


def test_never_more_lanes_than_cpus():
    for cpus in range(1, 9):
        for value in ("1", "2", "3", "0", "", "x", "-1", "16"):
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
                assert 1 <= spectral._lane_count(cpus, {var: value}) <= cpus


def test_cli_output_does_not_depend_on_the_blas_threads():
    # the text stdout is the same bytes; the JSON prints band edges in full,
    # and threaded OpenBLAS moves the q = 169 edges by about 1e-14
    argv = ["-m", "fluxlattice", "spectrum", "--flux", "sqrt2", "--depth", "6",
            "--k-grid", "12", "--format"]
    assert run_python([*argv, "text"], None) == run_python([*argv, "text"], 1)
    default, one = (json.loads(run_python([*argv, "json"], threads)) for threads in (None, 1))
    floats = ("hausdorff_distances", "spectra")
    assert ({k: v for k, v in default.items() if k not in floats}
            == {k: v for k, v in one.items() if k not in floats})
    np.testing.assert_allclose(default["hausdorff_distances"], one["hausdorff_distances"],
                               rtol=0, atol=1e-12)
    for a, b in zip(default["spectra"], one["spectra"], strict=True):
        assert (a["phi"], a["n_samples"]) == (b["phi"], b["n_samples"])
        np.testing.assert_allclose(a["bands"], b["bands"], rtol=0, atol=1e-12)


class TestHausdorff:
    def test_simple_values(self):
        assert hausdorff_distance(np.array([0.0]), np.array([3.0])) == 3.0
        assert hausdorff_distance(np.array([0.0, 1.0]), np.array([0.0, 1.0])) == 0.0

    def test_a_nan_sample_gives_nan_in_either_order(self):
        # Python's max(0.0, nan) is 0.0, which dropped the NaN in one order
        with_nan, without = np.array([0.0, math.nan]), np.array([0.0])
        assert math.isnan(hausdorff_distance(with_nan, without))
        assert math.isnan(hausdorff_distance(without, with_nan))

    def test_against_brute_force(self):
        for _ in range(20):
            a = np.sort(np.array([rng.uniform(-4, 4) for _ in range(rng.randint(1, 12))]))
            b = np.sort(np.array([rng.uniform(-4, 4) for _ in range(rng.randint(1, 12))]))
            brute = max(
                max(min(abs(x - y) for y in b) for x in a),
                max(min(abs(x - y) for y in a) for x in b),
            )
            assert abs(hausdorff_distance(a, b) - brute) < 1e-12

    @pytest.mark.parametrize("chunk", [1, 3, 4096])
    def test_chunked_comparison_is_bit_identical(self, monkeypatch, chunk):
        def whole(x, y):
            # the comparison as first written, every sample at once
            pos = np.searchsorted(y, x)
            left = y[np.clip(pos - 1, 0, y.size - 1)]
            right = y[np.clip(pos, 0, y.size - 1)]
            return float(np.max(np.minimum(np.abs(x - left), np.abs(x - right))))
        monkeypatch.setattr(spectral, "_COMPARE_CHUNK", chunk)
        gen = np.random.default_rng(chunk)
        for size_a, size_b in [(1, 1), (7, 2), (12, 30), (5000, 9000)]:
            a = np.sort(gen.uniform(-4, 4, size_a))
            b = np.sort(gen.uniform(-4, 4, size_b))
            assert hausdorff_distance(a, b) == max(whole(a, b), whole(b, a))
        for empty in ([], [1.0]), ([1.0], []), ([], []):
            with pytest.raises(ValueError):
                hausdorff_distance(*map(np.array, empty))

    def test_comparison_temporaries_are_bounded(self):
        # 10**6 samples a side; compared whole, the temporaries were 48 MB
        gen = np.random.default_rng(0)
        a = np.sort(gen.uniform(-4, 4, 10**6))
        b = np.sort(gen.uniform(-4, 4, 10**6))
        tracemalloc.start()
        try:
            hausdorff_distance(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < spectral._SLACK_BYTES


class TestTorusConsistency:
    @pytest.mark.parametrize("nu,q,w", [(1, 3, 2), (2, 5, 1), (1, 4, 2)])
    def test_bloch_union_matches_periodic_truncation(self, nu, q, w):
        # eigenvalues of the hopping operator on an L x L torus, L = q*w,
        # equal the Bloch eigenvalues over k1 in 2pi/L*{0..w-1} and k2 over
        # the full 2pi/L grid (w must be even when nu is odd, or the phases
        # do not close around the torus)
        import fluxlattice as fl

        flux = Flux.rational(nu, q)
        L = q * w
        rep = fl.build_wavefunction(flux)
        win = ((0, L - 1), (0, L - 1))
        m1 = fl.truncate(rep.q1, win, "periodic", flux).matrix
        m2 = fl.truncate(rep.q2, win, "periodic", flux).matrix
        torus = np.sort(np.linalg.eigvalsh(m1 + m1.conj().T + m2 + m2.conj().T))
        k1s = np.repeat(2 * np.pi * np.arange(w) / L, L)
        k2s = np.tile(2 * np.pi * np.arange(L) / L, w)
        bloch = np.sort(np.linalg.eigvalsh(bloch_stack(nu, q, k1s, k2s)).ravel())
        assert torus.size == L * L
        assert np.max(np.abs(torus - bloch)) < 1e-9


class TestApproximants:
    def test_golden_convergents(self):
        seq = approximant_spectra(Flux.golden(), 5, 8)
        assert seq.convergents == [Fraction(1, 1), Fraction(1, 2), Fraction(2, 3),
                                   Fraction(3, 5), Fraction(5, 8)]
        assert len(seq.spectra) == 5
        assert len(seq.distances) == 4

    def test_depth_one_no_distances(self):
        seq = approximant_spectra(Flux.sqrt2(), 1, 8)
        assert seq.distances == []
        assert len(seq.spectra) == 1

    def test_distances_shrink_overall(self):
        # numerically confirmed trend; asserted with the factor-2 slack
        seq = approximant_spectra(Flux.golden(), 8, 30)
        for d0, d1 in zip(seq.distances, seq.distances[1:]):
            assert d1 <= 2 * d0
        assert seq.distances[-1] < seq.distances[0]

    def test_depth_errors(self):
        with pytest.raises(ValueError, match="depth"):
            approximant_spectra(Flux.golden(), 10_000, 8)
        with pytest.raises(RationalFluxError):
            approximant_spectra(Flux.rational(1, 3), 3, 8)
