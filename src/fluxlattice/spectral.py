"""Harper spectra at rational flux via Bloch reduction, and butterfly sweeps.

At flux nu/q the nearest-neighbour hopping operator reduces over magnetic
momenta (k1, k2) to the q x q Hermitian family with diagonal
2*cos(k2 + 2*pi*nu*m/q), unit super/subdiagonals and corner entries
e^{-+ i q k1} closing the cycle.  The matrix depends on k1 only through
e^{i q k1}, so it is exactly periodic in k1 with period 2*pi/q; the sweep
solves one representative per residue class of the uniform grid and
replicates, which never changes the reported samples.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .phases import TWO_PI, Flux

__all__ = [
    "SpectrumEstimate",
    "ButterflyDataset",
    "ApproximantSequence",
    "bloch_matrix",
    "spectrum",
    "butterfly",
    "approximant_spectra",
    "hausdorff_distance",
    "flux_values",
]


# Largest array one request may allocate; requests are sized before building.
ALLOCATION_BUDGET_BYTES = 1 << 30


def require_allocation(nbytes: int, what: str) -> None:
    """Refuse a request whose largest array would exceed the budget."""
    if nbytes > ALLOCATION_BUDGET_BYTES:
        raise ValueError(f"{what} needs {nbytes} bytes, over the "
                         f"{ALLOCATION_BUDGET_BYTES} byte allocation budget")


def _require_bloch_stack(den: int, k_grid: int) -> None:
    nbytes = (k_grid // math.gcd(den, k_grid)) * k_grid * den * den * 16
    require_allocation(nbytes, f"the Bloch stack at q={den}, k_grid={k_grid}")


def _require_sweep(q_max: int, k_grid: int) -> None:
    """Size the samples of a whole butterfly sweep before it starts: each
    reduced nu/q holds q * k_grid^2 floats.  Counting stops at the first q
    over budget, so a huge q_max is refused without listing its fluxes."""
    floats = 0
    for q in range(1, q_max + 1):
        floats += q * k_grid * k_grid * sum(math.gcd(nu, q) == 1 for nu in range(q))
        require_allocation(8 * floats, f"the butterfly samples up to q={q} at k_grid={k_grid}")


def _validate_k_grid(k_grid: int) -> None:
    if k_grid < 4:
        raise ValueError("k_grid must be at least 4")


def _validate_fraction(num: int, den: int) -> None:
    if den < 1:
        raise ValueError(f"denominator must be positive, got {den}")
    if not (0 <= num < den or (num == 0 and den == 1)):
        raise ValueError(f"flux fraction {num}/{den} must satisfy 0 <= nu < q")
    if math.gcd(num, den) != 1:
        raise ValueError(f"flux fraction {num}/{den} is not in lowest terms")


def _bloch_stack(num: int, den: int, k1: np.ndarray, k2: np.ndarray) -> np.ndarray:
    """Stack of Bloch matrices, one per (k1[i], k2[i])."""
    q = den
    n = len(k1)
    m = np.arange(q)
    mats = np.zeros((n, q, q), dtype=complex)
    mats[:, m, m] = 2.0 * np.cos(k2[:, None] + TWO_PI * num * m[None, :] / q)
    if q > 1:
        idx = np.arange(q - 1)
        mats[:, idx, idx + 1] += 1.0
        mats[:, idx + 1, idx] += 1.0
    corner = np.exp(-1j * q * k1)
    mats[:, 0, q - 1] += corner
    mats[:, q - 1, 0] += np.conj(corner)
    return mats


def bloch_matrix(num: int, den: int, k1: float, k2: float) -> np.ndarray:
    """The q x q Bloch matrix at momenta (k1, k2) for reduced flux num/den.

    For q = 1 this is the scalar 2*cos(k1) + 2*cos(k2); for q = 2 the corner
    terms add onto the existing off-diagonals.
    """
    _validate_fraction(num, den)
    return _bloch_stack(num, den, np.array([k1]), np.array([k2]))[0]


@dataclass(frozen=True, eq=False)
class SpectrumEstimate:
    """Sampled Harper spectrum at one rational flux.

    `samples` is the sorted multiset of Bloch eigenvalues over the uniform
    k_grid x k_grid momentum grid; `bands` are the per-band [min, max]
    intervals with strictly overlapping bands merged (touching bands are
    kept separate).
    """

    flux: Flux
    samples: np.ndarray
    bands: tuple[tuple[float, float], ...]
    k_grid: int

    def to_json_dict(self) -> dict:
        return {
            "phi": [self.flux.numerator, self.flux.denominator],
            "k_grid": self.k_grid,
            "bands": [[lo, hi] for lo, hi in self.bands],
            "n_samples": int(self.samples.size),
        }


def _merge_bands(band_ranges: list[tuple[float, float]]) -> tuple[tuple[float, float], ...]:
    merged: list[list[float]] = []
    for lo, hi in sorted(band_ranges):
        if merged and lo < merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


def _solve_reduced(num: int, den: int, k_grid: int) -> tuple[np.ndarray, int]:
    """Eigenvalues over one k1 representative per residue class, and the
    replication factor gcd(q, k_grid)."""
    ks = TWO_PI * np.arange(k_grid) / k_grid
    g = math.gcd(den, k_grid)
    k1_reps = ks[: k_grid // g]
    kk1, kk2 = np.meshgrid(k1_reps, ks, indexing="ij")
    mats = _bloch_stack(num, den, kk1.ravel(), kk2.ravel())
    return np.linalg.eigvalsh(mats), g


def spectrum(flux: Flux, k_grid: int) -> SpectrumEstimate:
    """Harper spectrum at a rational flux over a uniform k grid on [0, 2pi)^2."""
    if not flux.is_rational:
        raise ValueError("spectrum needs a rational flux; use approximant_spectra "
                         "for an irrational one")
    _validate_k_grid(k_grid)
    num, den = flux.numerator, flux.denominator
    _require_bloch_stack(den, k_grid)
    eigs, g = _solve_reduced(num, den, k_grid)
    bands = _merge_bands([(float(eigs[:, m].min()), float(eigs[:, m].max()))
                          for m in range(den)])
    samples = np.sort(np.tile(eigs.ravel(), g))
    return SpectrumEstimate(flux, samples, bands, k_grid)


def flux_values(q_max: int) -> list[Fraction]:
    """All reduced fractions nu/q in [0, 1) with q <= q_max, ascending."""
    if q_max < 1:
        raise ValueError("q_max must be at least 1")
    out = {Fraction(0, 1)}
    for q in range(2, q_max + 1):
        for nu in range(1, q):
            if math.gcd(nu, q) == 1:
                out.add(Fraction(nu, q))
    return sorted(out)


_ROW = np.dtype([("num", np.int64), ("den", np.int64), ("energy", np.float64)])


def _group_by_flux(rows: np.ndarray) -> list[tuple[int, int, np.ndarray]]:
    """Per-flux sample arrays from `_ROW` records, in ascending Phi.  Each
    run of equal (nu, q) is one slice; the runs of a flux are joined in file
    order, so interleaved rows group as well."""
    nums, dens = rows["num"], rows["den"]
    starts = np.flatnonzero((nums[1:] != nums[:-1]) | (dens[1:] != dens[:-1])) + 1
    bounds = [0, *starts.tolist(), rows.size] if rows.size else []
    runs: dict[tuple[int, int], list[np.ndarray]] = {}
    for lo, hi in zip(bounds, bounds[1:]):
        runs.setdefault((int(nums[lo]), int(dens[lo])), []).append(rows["energy"][lo:hi])
    return [(n, d, np.concatenate(parts)) for (n, d), parts in sorted(
        runs.items(), key=lambda item: Fraction(*item[0]))]


_CSV_HEADER = "phi_num,phi_den,energy"
# Rows per write.  Bounded chunks keep each transient string and float list
# small enough to be reused; one chunk per flux left about 0.8 MB more
# resident after `butterfly(12, 24).to_csv`.
_ROWS_PER_WRITE = 256


def _json_point(obj: dict):
    """json.load hook: each point object becomes its (nu, q, energy) row as
    it is parsed, so the reader never holds a dict and a list per point."""
    return (*obj["phi"], float(obj["E"])) if "E" in obj else obj


@dataclass
class ButterflyDataset:
    """Rows (Phi = nu/q, eigenvalue sample) for every reduced flux with
    q <= q_max, ordered by (Phi ascending, energy ascending).

    `entries` holds one (nu, q, sorted float64 samples) triple per flux.
    The CSV and JSON writers stream the rows in bounded chunks and write
    the bytes a row-by-row writer and `json.dump` would; the readers parse
    the rows into one record array and group it by runs of equal flux.
    """

    q_max: int
    k_grid: int
    entries: list[tuple[int, int, np.ndarray]]

    def n_rows(self) -> int:
        return sum(samples.size for _n, _d, samples in self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ButterflyDataset):
            return NotImplemented
        return (self.q_max == other.q_max and self.k_grid == other.k_grid
                and len(self.entries) == len(other.entries)
                and all(a[0] == b[0] and a[1] == b[1] and np.array_equal(a[2], b[2])
                        for a, b in zip(self.entries, other.entries)))

    def _chunks(self) -> Iterator[tuple[int, int, list[float]]]:
        """(nu, q, samples as floats) in file order, _ROWS_PER_WRITE at a time."""
        for num, den, samples in self.entries:
            for lo in range(0, samples.size, _ROWS_PER_WRITE):
                yield num, den, samples[lo:lo + _ROWS_PER_WRITE].tolist()

    def to_csv(self, path: str | Path) -> None:
        """Write `phi_num,phi_den,energy` rows, one joined string per chunk;
        each energy is its shortest round-trip repr."""
        with open(path, "w") as fh:
            fh.write(_CSV_HEADER + "\n")
            for num, den, chunk in self._chunks():
                prefix = f"{num},{den},"
                fh.write(prefix + ("\n" + prefix).join(map(repr, chunk)) + "\n")

    @classmethod
    def from_csv(cls, path: str | Path, q_max: int = 0, k_grid: int = 0) -> "ButterflyDataset":
        """Read what `to_csv` writes, parsing the rows with numpy; rows of a
        flux may be interleaved with others and blank lines are skipped.  A
        wrong header or a malformed row raises ValueError."""
        with open(path) as fh:
            header = fh.readline().strip()
            if header != _CSV_HEADER:
                raise ValueError(f"unexpected CSV header {header!r}")
            body = fh.tell()
            # np.loadtxt warns on an empty body; a header-only file is empty
            empty = not fh.read(1)
            fh.seek(body)
            rows = (np.zeros(0, _ROW) if empty else
                    np.loadtxt(fh, dtype=_ROW, delimiter=",", comments=None, ndmin=1))
        return cls(q_max, k_grid, _group_by_flux(rows))

    def to_json(self, path: str | Path) -> None:
        """Write `{"q_max": .., "k_grid": .., "points": [{"phi": [nu, q],
        "E": e}, ...]}`, the bytes `json.dump` gives, one chunk at a time
        through the C encoder; NaN and Infinity are spelled as json spells
        them."""
        head = json.dumps({"q_max": self.q_max, "k_grid": self.k_grid, "points": []})
        chunks = (json.dumps([{"phi": [n, d], "E": e} for e in chunk])[1:-1]
                  for n, d, chunk in self._chunks())
        with open(path, "w") as fh:
            fh.write(head[:-2])
            for i, chunk in enumerate(chunks):
                fh.write(", " + chunk if i else chunk)
            fh.write("]}")

    @classmethod
    def from_json(cls, path: str | Path) -> "ButterflyDataset":
        """Read what `to_json` writes; points of a flux may be interleaved
        with others."""
        with open(path) as fh:
            doc = json.load(fh, object_hook=_json_point)
        points = doc["points"]
        rows = np.fromiter(points, dtype=_ROW, count=len(points))
        return cls(doc["q_max"], doc["k_grid"], _group_by_flux(rows))

    def symmetry_report(self, tol: float = 1e-9) -> dict:
        """Deviations from the Phi -> 1 - Phi and E -> -E symmetries."""
        table = {(n, d): s for n, d, s in self.entries}
        flux_dev = 0.0
        energy_dev = 0.0
        for (n, d), samples in table.items():
            partner = table[((d - n) % d, d)]
            flux_dev = max(flux_dev, float(np.max(np.abs(samples - partner))))
            energy_dev = max(energy_dev, float(np.max(np.abs(samples + samples[::-1]))))
        return {
            "flux_reflection_deviation": flux_dev,
            "energy_negation_deviation": energy_dev,
            "symmetric": flux_dev <= tol and energy_dev <= tol,
            "tolerance": tol,
        }


def butterfly(q_max: int, k_grid: int) -> ButterflyDataset:
    """Harper spectra for every reduced flux with denominator up to q_max."""
    _validate_k_grid(k_grid)
    _require_sweep(q_max, k_grid)
    entries = []
    for phi in flux_values(q_max):
        est = spectrum(Flux.rational(phi.numerator, phi.denominator), k_grid)
        entries.append((phi.numerator, phi.denominator, est.samples))
    return ButterflyDataset(q_max, k_grid, entries)


def hausdorff_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Hausdorff distance between two sorted sample sets on the line."""
    def directed(x: np.ndarray, y: np.ndarray) -> float:
        pos = np.searchsorted(y, x)
        left = y[np.clip(pos - 1, 0, y.size - 1)]
        right = y[np.clip(pos, 0, y.size - 1)]
        return float(np.max(np.minimum(np.abs(x - left), np.abs(x - right))))
    return max(directed(a, b), directed(b, a))


@dataclass
class ApproximantSequence:
    """Spectra along the continued-fraction convergents of an irrational flux,
    with Hausdorff distances between consecutive sample sets."""

    flux: Flux
    convergents: list[Fraction]
    spectra: list[SpectrumEstimate]
    distances: list[float]


def approximant_spectra(flux: Flux, depth: int, k_grid: int) -> ApproximantSequence:
    convergents = flux.convergents(depth)
    # size every stack before solving any: gcd(q, k_grid) makes it non-monotone in q
    for c in convergents:
        _require_bloch_stack(c.denominator, k_grid)
    spectra = [spectrum(Flux.rational(c.numerator, c.denominator), k_grid)
               for c in convergents]
    distances = [hausdorff_distance(s0.samples, s1.samples)
                 for s0, s1 in zip(spectra, spectra[1:])]
    return ApproximantSequence(flux, convergents, spectra, distances)
