"""Bloch matrices, Harper spectra, butterfly datasets and approximants."""

import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fluxlattice import spectral
from fluxlattice.phases import Flux, RationalFluxError
from fluxlattice.spectral import (
    ButterflyDataset,
    approximant_spectra,
    bloch_matrix,
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


class TestBlochMatrix:
    def test_zero_flux_scalar(self):
        m = bloch_matrix(0, 1, 0.3, 0.7)
        assert m.shape == (1, 1)
        assert abs(m[0, 0] - (2 * math.cos(0.3) + 2 * math.cos(0.7))) < 1e-14

    def test_half_flux_closed_form(self):
        m = bloch_matrix(1, 2, 0.0, 0.0)
        assert np.allclose(m, [[2, 2], [2, -2]])
        assert np.allclose(np.linalg.eigvalsh(m), [-2 * math.sqrt(2), 2 * math.sqrt(2)])

    def test_hermitian_at_random_momenta(self):
        for _ in range(100):
            nu, q = random_reduced_fraction()
            k1, k2 = rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
            m = bloch_matrix(nu, q, k1, k2)
            assert np.max(np.abs(m - m.conj().T)) < 1e-14

    def test_rejects_non_reduced(self):
        with pytest.raises(ValueError, match="lowest terms"):
            bloch_matrix(2, 4, 0.0, 0.0)
        with pytest.raises(ValueError):
            bloch_matrix(3, 2, 0.0, 0.0)
        with pytest.raises(ValueError):
            bloch_matrix(0, 0, 0.0, 0.0)


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
                    full.extend(np.linalg.eigvalsh(bloch_matrix(nu, q, k1, k2)))
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
        assert report["symmetric"]
        assert report["flux_reflection_deviation"] < 1e-9
        assert report["energy_negation_deviation"] < 1e-9

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


class TestAllocationBudget:
    def test_spectrum_budget_is_the_bloch_stack(self, monkeypatch):
        # q = 4, k_grid = 8: gcd 4, so 2 * 8 complex 4 x 4 matrices = 4096 bytes
        monkeypatch.setattr(spectral, "ALLOCATION_BUDGET_BYTES", 4096)
        assert spectrum(Flux.rational(1, 4), 8).samples.size == 4 * 8 * 8
        monkeypatch.setattr(spectral, "ALLOCATION_BUDGET_BYTES", 4095)
        with pytest.raises(ValueError, match="allocation budget"):
            spectrum(Flux.rational(1, 4), 8)

    @pytest.mark.parametrize("k_grid,largest", [(7, 8), (8, 5)])
    def test_approximants_refused_before_any_solve(self, monkeypatch, k_grid, largest):
        # golden at depth 5 has q = 1, 2, 3, 5, 8; at k_grid 8 the q = 8 stack
        # shrinks by gcd 8, so the q = 5 stack is the largest
        nbytes = max((k_grid // math.gcd(q, k_grid)) * k_grid * q * q * 16
                     for q in (1, 2, 3, 5, 8))
        assert nbytes == k_grid * k_grid * largest * largest * 16
        solved = []
        monkeypatch.setattr(spectral, "spectrum", lambda *args: solved.append(args))
        monkeypatch.setattr(spectral, "ALLOCATION_BUDGET_BYTES", nbytes - 1)
        with pytest.raises(ValueError, match=f"q={largest},"):
            approximant_spectra(Flux.golden(), 5, k_grid)
        assert solved == []


class TestHausdorff:
    def test_simple_values(self):
        assert hausdorff_distance(np.array([0.0]), np.array([3.0])) == 3.0
        assert hausdorff_distance(np.array([0.0, 1.0]), np.array([0.0, 1.0])) == 0.0

    def test_against_brute_force(self):
        for _ in range(20):
            a = np.sort(np.array([rng.uniform(-4, 4) for _ in range(rng.randint(1, 12))]))
            b = np.sort(np.array([rng.uniform(-4, 4) for _ in range(rng.randint(1, 12))]))
            brute = max(
                max(min(abs(x - y) for y in b) for x in a),
                max(min(abs(x - y) for y in a) for x in b),
            )
            assert abs(hausdorff_distance(a, b) - brute) < 1e-12


class TestTorusConsistency:
    @pytest.mark.parametrize("nu,q,w", [(1, 3, 2), (2, 5, 1), (1, 4, 2)])
    def test_bloch_union_matches_periodic_truncation(self, nu, q, w):
        # eigenvalues of the hopping operator on an L x L torus, L = q*w,
        # equal the Bloch eigenvalues over k1 in 2pi/L*{0..w-1} and k2 over
        # the full 2pi/L grid (w must be even when nu is odd, or the phases
        # do not close around the torus)
        import fluxlattice as fl
        from fluxlattice.spectral import _bloch_stack

        flux = Flux.rational(nu, q)
        L = q * w
        rep = fl.build_wavefunction(flux)
        win = ((0, L - 1), (0, L - 1))
        m1 = fl.truncate(rep.q1, win, "periodic", flux).matrix
        m2 = fl.truncate(rep.q2, win, "periodic", flux).matrix
        torus = np.sort(np.linalg.eigvalsh(m1 + m1.conj().T + m2 + m2.conj().T))
        k1s = np.repeat(2 * np.pi * np.arange(w) / L, L)
        k2s = np.tile(2 * np.pi * np.arange(L) / L, w)
        bloch = np.sort(np.linalg.eigvalsh(_bloch_stack(nu, q, k1s, k2s)).ravel())
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
