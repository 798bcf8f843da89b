"""Bloch matrices, Harper spectra, butterfly datasets and approximants."""

import hashlib
import json
import math
import random
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fluxlattice import spectral
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
    return spectral._bloch_stack(nu, q, k1, k2, np.empty((len(k1), q, q), dtype=complex))


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


class TestRepresentation:
    """_bloch_stack evaluates whatever element spectral._HAMILTONIAN holds;
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
        assert report["symmetric"]
        assert report["flux_reflection_deviation"] < 1e-9
        assert report["energy_negation_deviation"] < 1e-9

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

    W = spectral._ROWS_PER_WRITE
    NANS = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000,
                     0x7FF0000000000001, 0x7FF8000000000001], dtype=np.uint64).view(np.float64)
    RUNS = {
        "run-longer-than-a-write": [(0, 1, np.array([-1.0, -1.0, *[0.1] * (3 * W + 5), 2.0]))],
        "run-across-a-write": [(0, 1, np.concatenate(
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


def held_rule(dens, k_grid):
    """The figure the held-memory rule gives after each q in dens, term by
    term: every flux's samples, bands and objects, plus the largest one-flux
    transient (reduced eigenvalues and one chunk plus one more matrix)
    and the slack."""
    held = transient = 0
    figures = []
    for q in dens:
        samples = q * k_grid * k_grid
        n_k = (k_grid // math.gcd(q, k_grid)) * k_grid
        chunk = min(n_k, max(1, spectral._STACK_CHUNK_BYTES // (16 * q * q)))
        held += 8 * samples + 128 * q + 512
        transient = max(transient, 8 * q * n_k + (chunk + 1) * (16 * q * q + 56 * q + 64))
        figures.append(held + transient + spectral._SLACK_BYTES)
    return figures


class TestAllocationBudget:
    def test_spectrum_budget_is_what_the_solve_holds(self, monkeypatch):
        # q = 4, k_grid = 8: gcd 4, so n_k = 16 points in one chunk
        [nbytes] = held_rule([4], 8)
        monkeypatch.setattr(spectral, "ALLOCATION_BUDGET_BYTES", nbytes)
        assert spectrum(Flux.rational(1, 4), 8).samples.size == 4 * 8 * 8
        monkeypatch.setattr(spectral, "ALLOCATION_BUDGET_BYTES", nbytes - 1)
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
        monkeypatch.setattr(spectral, "ALLOCATION_BUDGET_BYTES", nbytes - 1)
        with pytest.raises(ValueError, match=f"q={crossing}, k_grid={k_grid} needs {nbytes} "):
            approximant_spectra(Flux.golden(), 5, k_grid)
        assert solved == []

    def test_butterfly_sizes_the_whole_sweep_first(self, monkeypatch):
        # q_max = 3, k_grid = 6: 0/1, 1/2, 1/3 and 2/3, sized in that order
        nbytes = held_rule([1, 2, 3, 3], 6)[-1]
        solved = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a: solved.append(a.shape) or eigvalsh(a))
        monkeypatch.setattr(spectral, "ALLOCATION_BUDGET_BYTES", nbytes - 1)
        with pytest.raises(ValueError, match="allocation budget"):
            butterfly(3, 6)
        assert solved == []
        monkeypatch.setattr(spectral, "ALLOCATION_BUDGET_BYTES", nbytes)
        assert 8 * butterfly(3, 6).n_rows() == 8 * 36 * (1 + 2 + 3 + 3)
        assert len(solved) == 4

    def test_huge_sweep_refused_before_listing_fluxes(self, monkeypatch):
        listed = []
        monkeypatch.setattr(spectral, "flux_values", lambda q_max: listed.append(q_max))
        with pytest.raises(ValueError, match=r"through q=116, k_grid=20 "):
            butterfly(10**9, 20)
        assert listed == []

    def test_a_refusal_comes_before_any_solve(self, monkeypatch):
        # the whole reduced grid of 0/1 at k_grid 1000 peaks at about 27 MB traced,
        # but the rule's upper bound is 44 MB
        shapes = count_eigvalsh(monkeypatch)
        monkeypatch.setattr(spectral, "ALLOCATION_BUDGET_BYTES", 32 * 2**20)
        with pytest.raises(ValueError, match="allocation budget"):
            spectrum(Flux.rational(0, 1), 1000)
        assert shapes == []

    def test_chunked_requests_fit_a_small_budget(self, monkeypatch):
        # the whole q = 169 stack at k_grid 12 is 66 MB; the solve holds 5 MB
        monkeypatch.setattr(spectral, "ALLOCATION_BUDGET_BYTES", 16 * 2**20)
        assert spectrum(Flux.rational(70, 169), 12).samples.size == 169 * 144
        seq = approximant_spectra(Flux.sqrt2(), 6, 12)
        assert seq.convergents[-1] == Fraction(70, 169)

    def test_cli_output_does_not_depend_on_the_budget(self, monkeypatch, capsys):
        argv = ["spectrum", "--flux", "sqrt2", "--depth", "6", "--k-grid", "12",
                "--format", "json"]
        assert main(argv) == 0
        default = capsys.readouterr()
        monkeypatch.setattr(spectral, "ALLOCATION_BUDGET_BYTES", 16 * 2**20)
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
    running it, and at most three times that peak.  The returned samples are
    counted exactly, so a sweep that returns many of them is sized close to
    its peak; the rest of the figure bounds the rest of the peak with at
    least 15 % to spare.  tracemalloc sees the numpy arrays and Python
    objects, not LAPACK's workspace, which numpy allocates outside it."""
    figure, peak, samples = traced_request(monkeypatch, request_)
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
    assembled."""
    eigs, g = reference_solve_reduced(num, den, k_grid)
    bands = spectral._merge_bands(list(zip(eigs.min(axis=0).tolist(),
                                           eigs.max(axis=0).tolist())))
    return np.sort(np.tile(eigs.ravel(), g)), bands


def count_eigvalsh(monkeypatch):
    """Record the shape of every np.linalg.eigvalsh argument."""
    shapes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or eigvalsh(a))
    return shapes


class TestChunkedSolve:
    @pytest.mark.parametrize("k_grid", [7, 8, 12, 16])
    @pytest.mark.parametrize("nu,q", [(0, 1), (1, 2), (2, 5), (3, 8), (8, 13), (21, 34)])
    def test_bit_identical_to_the_whole_stack(self, monkeypatch, nu, q, k_grid):
        flux = Flux.rational(nu, q)
        ref_samples, ref_bands = reference_spectrum(nu, q, k_grid)
        n_k = (k_grid // math.gcd(q, k_grid)) * k_grid
        # one matrix per chunk, then the fewest per chunk that leave a short
        # last chunk
        short = next(c for c in range(2, n_k) if n_k % c)
        for per_chunk in (1, short):
            with monkeypatch.context() as patch:
                patch.setattr(spectral, "_STACK_CHUNK_BYTES", per_chunk * 16 * q * q)
                shapes = count_eigvalsh(patch)
                est = spectrum(flux, k_grid)
            assert [s[0] for s in shapes] == [per_chunk] * (n_k // per_chunk) + (
                [n_k % per_chunk] if n_k % per_chunk else [])
            assert est.samples.tobytes() == ref_samples.tobytes()
            assert est.bands == ref_bands

    def test_chunks_are_built_in_one_buffer(self, monkeypatch):
        # a fresh chunk each time can leave the allocator holding two
        stacks, eigvalsh = [], np.linalg.eigvalsh

        def keep(a):
            stacks.append(a)
            return eigvalsh(a)
        monkeypatch.setattr(spectral, "_STACK_CHUNK_BYTES", 5 * 16 * 3 * 3)
        monkeypatch.setattr(np.linalg, "eigvalsh", keep)
        spectrum(Flux.rational(1, 3), 8)
        assert [s.shape[0] for s in stacks] == [5] * 12 + [4]
        assert all(np.shares_memory(s, stacks[0]) for s in stacks)

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

    @pytest.mark.parametrize("nu,q,k_grid,ratio", [(1, 8, 800, 1.25), (1, 2, 1000, 1.75)])
    def test_solve_holds_no_copy_of_the_samples(self, nu, q, k_grid, ratio):
        # the samples, the reduced eigenvalues (1/gcd(q, k_grid) of the
        # samples) and one chunk; a tiled copy beside its sorted copy would
        # hold twice the samples
        tracemalloc.start()
        try:
            est = spectrum(Flux.rational(nu, q), k_grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= ratio * est.samples.nbytes

    def test_large_stack_is_never_held_whole(self):
        # the q = 169 stack at k_grid 12 is 144 matrices, 66 MB; one chunk is
        # 9 of them, 4.1 MB
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
        # 0/1, 1/3, 1/2 and 2/3, each over all its Chambers classes: folded
        # residues {0, 1, 2, 3} at q = 1, {0, 3} at q = 3 and {0, 2} at q = 2
        assert shapes == [(10, 1, 1), (3, 3, 3), (3, 2, 2), (3, 3, 3)]


def class_deviation(nu, q, k_grid):
    """Largest distance between the class solve's samples, each class's
    eigenvalues repeated by its count, and the per-point reference."""
    eigs, counts = spectral._solve_classes(nu, q, k_grid)
    assert counts.sum() == k_grid ** 2
    samples = np.sort(np.repeat(eigs, counts, axis=0).ravel())
    return float(np.max(np.abs(samples - reference_spectrum(nu, q, k_grid)[0])))


class TestChambersClasses:
    @pytest.mark.parametrize("k_grid", [4, 5, 6, 7, 8, 12, 16, 24, 40])
    def test_class_solve_is_the_per_point_solve(self, k_grid):
        for nu, q in reduced_fractions(30):
            assert class_deviation(nu, q, k_grid) < 1e-12, (nu, q, k_grid)

    def test_a_key_without_the_second_residue_fails(self, monkeypatch):
        # negative control: one class per first folded residue, solved at
        # k2 = 0, keeps the counts but not the samples
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

    def test_butterfly_sizes_its_sweep_once(self, monkeypatch):
        walks = []
        require_held = spectral._require_held
        monkeypatch.setattr(spectral, "_require_held",
                            lambda *args: walks.append(args) or require_held(*args))
        butterfly(5, 8)
        assert len(walks) == 1

    @pytest.mark.parametrize("request_,sha256", [
        (lambda: approximant_spectra(Flux.golden(), 10, 16).spectra,
         "f80dbf6bfd09a173b00981be90b53f30270443ae11f5148c422d4c3a7bf8d51f"),
        (lambda: approximant_spectra(Flux.sqrt2(), 6, 12).spectra,
         "509a278d8b7e187e8d5dfcd2b7f4f7c6f770c01d435da7bf2ee0bbff2b74bf2e"),
        (lambda: [spectrum(Flux.rational(70, 169), 12)],
         "8abff24329a37c9126e46ecfc028b35436239ecbb61a29cd9c4129463ca58327"),
    ], ids=["golden 10 k16", "sqrt2 6 k12", "spectrum 70/169 k12"])
    def test_spectrum_keeps_the_per_point_bits(self, request_, sha256):
        # the samples and bands of the per-point solve, as numpy 2.4.6 with
        # its bundled OpenBLAS computes them; the class solve would move the
        # samples by about 1e-14 and report 8 bands, not 7, at golden 5/8
        digest = hashlib.sha256()
        for est in request_():
            digest.update(est.samples.tobytes())
            digest.update(repr(est.bands).encode())
        assert digest.hexdigest() == sha256


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
        with pytest.raises(ValueError):
            hausdorff_distance(np.array([]), np.array([1.0]))

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
