"""Harper spectra at rational flux via Bloch reduction, and butterfly sweeps.

At flux nu/q the Bloch matrices are the hopping element
`algebra.harper_element()` in the q-dimensional representation of the
magnetic translations at momenta (k1, k2): diagonal 2*cos(k2 + 2*pi*nu*m/q),
unit super/subdiagonals and corners e^{-+ i q k1}.  A matrix depends on k1
only through e^{i q k1}, so it is exactly periodic in k1 with period 2*pi/q;
`spectrum` solves one representative per residue class of the uniform grid,
sorts those eigenvalues and repeats each one gcd(q, k_grid) times, which
never changes the reported samples.

Its eigenvalues depend on (k1, k2) only through cos(q k1) + cos(q k2)
(Chambers, Phys. Rev. 140, A135 (1965)).  On the grid k = 2*pi*j/k_grid,
cos(q k) depends only on the residue q*j mod k_grid folded under
r <-> k_grid - r, so `butterfly` solves one matrix per unordered pair of
folded residues, at (k1, k2) = 2*pi*(f1, f2)/(q*k_grid), and repeats its
eigenvalues by the pair's number of grid points.  The samples agree with
the per-point solve to about 5e-14, not bit for bit.  `spectrum` keeps the
per-point solve: its band edges are grid extrema, and at even q the two
central bands touch within about 1e-15, so whether they merge rests on
those last bits.

Bloch matrices are built and solved _STACK_CHUNK_BYTES at a time (at least
one) through the same LAPACK call as one batched call, so the eigenvalues
are bit-identical.  One rule sizes every request before its first solve:
every returned flux's samples stay held, plus the largest transient of one
flux solve (its reduced eigenvalues and one chunk of matrices) and a fixed
slack.  The budget bounds memory, not run time.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .algebra import harper_element
from .phases import TWO_PI, Flux

__all__ = [
    "SpectrumEstimate",
    "ButterflyDataset",
    "ApproximantSequence",
    "spectrum",
    "butterfly",
    "approximant_spectra",
    "hausdorff_distance",
    "flux_values",
]


# Most memory one request may hold.
ALLOCATION_BUDGET_BYTES = 1 << 30


def require_allocation(nbytes: int, what: str) -> None:
    """Refuse a request that would hold more than the budget."""
    if nbytes > ALLOCATION_BUDGET_BYTES:
        raise ValueError(f"{what} needs {nbytes} bytes, over the "
                         f"{ALLOCATION_BUDGET_BYTES} byte allocation budget")


_HAMILTONIAN = harper_element()  # the one element every Bloch matrix represents
# Bloch matrices built and solved at once; a larger stack is solved in chunks.
_STACK_CHUNK_BYTES = 1 << 22
# Samples hausdorff_distance compares at once, with 48 bytes of temporaries each.
_COMPARE_CHUNK = 1 << 12
# What no _require_held term counts: small arrays and one comparison chunk.
_SLACK_BYTES = 1 << 18


def _chunk_length(den: int) -> int:
    """Bloch matrices per solved chunk at denominator den, at least one."""
    return max(1, _STACK_CHUNK_BYTES // (16 * den * den))


def _require_held(dens: Iterable[int], k_grid: int, what: str) -> None:
    """Check k_grid, then refuse at the first q over budget a request that
    solves one flux per q in `dens`, so a lazy sweep is never listed whole.
    Each flux holds its samples, 128 bytes a band and 512 of objects; on top
    come the largest solve transient (the reduced eigenvalues, which bound
    a butterfly flux's class eigenvalues too, and one chunk of matrices with
    their row temporaries, plus one more matrix) and _SLACK_BYTES."""
    if k_grid < 4:
        raise ValueError("k_grid must be at least 4")
    held = transient = 0
    for q in dens:
        n_k = (k_grid // math.gcd(q, k_grid)) * k_grid
        held += 8 * q * k_grid * k_grid + 128 * (q + 4)
        transient = max(transient, 8 * q * n_k
                        + (min(n_k, _chunk_length(q)) + 1) * (16 * q * q + 56 * q + 64))
        require_allocation(held + transient + _SLACK_BYTES,
                           f"{what} through q={q}, k_grid={k_grid}")


def _validate_fraction(num: int, den: int) -> None:
    if den < 1:
        raise ValueError(f"denominator must be positive, got {den}")
    if not (0 <= num < den or (num == 0 and den == 1)):
        raise ValueError(f"flux fraction {num}/{den} must satisfy 0 <= nu < q")
    if math.gcd(num, den) != 1:
        raise ValueError(f"flux fraction {num}/{den} is not in lowest terms")


def _bloch_stack(num: int, q: int, k1: np.ndarray, k2: np.ndarray,
                 out: np.ndarray) -> np.ndarray:
    """Fill out, of shape (len(k1), q, q), with the stack of Bloch matrices
    and return it, one per (k1[i], k2[i]): _HAMILTONIAN in the
    representation q1 -> S, q2 -> D at flux num/q.  S sends site m to m - 1
    and closes the cycle with e^{i q k1}; D = diag(e^{-i(k2 + th m)}), so
    S D S^-1 D^-1 = e^{-i th} as in `algebra`.  A term c * phase * q1^a q2^b
    adds c * phase(th) * S^a D^b: column m lands in row (m - a) mod q."""
    theta, m = TWO_PI * num / q, np.arange(q)
    angle, qk1 = k2[:, None] + TWO_PI * num * m / q, q * k1[:, None]
    out[...] = 0
    # q2 terms first: at q = 1 all terms share one entry, summed in this
    # order as 2 cos(k2) + cos(k1) + cos(k1), bit for bit as hand-coded
    for c, mono in sorted(_HAMILTONIAN.terms(), key=lambda t: abs(t[1].exponents[2])):
        _j1, _j2, a, b = mono.exponents
        wraps, rows = np.divmod(m - a, q)
        entries = c * mono.phase.evaluate(theta) * np.exp(-1j * (b * angle + wraps * qk1))
        out[:, rows, m] += entries
        del entries  # freed before the next term's are computed
    return out


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


def _solve_points(num: int, den: int, n: int,
                  momenta: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Eigenvalues of the n Bloch matrices at the momenta (k1, k2) =
    momenta(i) of the point indices i = 0 .. n - 1, solved in order,
    _STACK_CHUNK_BYTES of matrices at a time, into one (n, q) array: each
    chunk asks for its own momenta, so no array of n momenta is held.  Every
    chunk is built in one buffer: a fresh 4 MiB array per chunk can leave
    the allocator holding two."""
    step = _chunk_length(den)
    eigs = np.empty((n, den))
    chunk = np.empty((min(step, n), den, den), dtype=complex)
    for lo in range(0, n, step):
        k1, k2 = momenta(np.arange(lo, min(lo + step, n)))
        eigs[lo:lo + step] = np.linalg.eigvalsh(
            _bloch_stack(num, den, k1, k2, chunk[:k1.size]))
    return eigs


def _chambers_classes(den: int, k_grid: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The folded residues f1 <= f2 of every Chambers class of the k_grid x
    k_grid grid at denominator den, and its number of grid points: j has
    residue den*j mod k_grid, folded under r <-> k_grid - r, and a class is
    an unordered pair of folded residues."""
    r = den * np.arange(k_grid) % k_grid
    per_residue = np.bincount(np.minimum(r, k_grid - r))
    folded = np.flatnonzero(per_residue)
    a, b = np.triu_indices(folded.size)
    counts = per_residue[folded[a]] * per_residue[folded[b]] * np.where(a == b, 1, 2)
    return folded[a], folded[b], counts


def _solve_classes(num: int, den: int, k_grid: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of one Bloch matrix per Chambers class, at (k1, k2) =
    2*pi*(f1, f2)/(q*k_grid), and each class's number of grid points."""
    f1, f2, counts = _chambers_classes(den, k_grid)
    scale = TWO_PI / (den * k_grid)
    return _solve_points(num, den, counts.size, lambda i: (scale * f1[i], scale * f2[i])), counts


def spectrum(flux: Flux, k_grid: int) -> SpectrumEstimate:
    """Harper spectrum at a rational flux over a uniform k grid on [0, 2pi)^2."""
    if not flux.is_rational:
        raise ValueError("spectrum needs a rational flux; use approximant_spectra "
                         "for an irrational one")
    num, den = flux.numerator, flux.denominator
    _require_held([den], k_grid, "the spectrum")
    # one k1 representative per residue class, each solved once
    ks = TWO_PI * np.arange(k_grid) / k_grid
    g = math.gcd(den, k_grid)
    eigs = _solve_points(num, den, (k_grid // g) * k_grid,
                         lambda i: (ks[i // k_grid], ks[i % k_grid]))
    bands = _merge_bands(list(zip(eigs.min(axis=0).tolist(), eigs.max(axis=0).tolist())))
    flat = eigs.ravel()
    flat.sort()
    return SpectrumEstimate(flux, np.repeat(flat, g), bands, k_grid)


def _reduced_fluxes(q_max: int) -> Iterator[tuple[int, int]]:
    """(nu, q) of every reduced nu/q in [0, 1) with q <= q_max, lazily."""
    return ((nu, q) for q in range(1, q_max + 1) for nu in range(q) if math.gcd(nu, q) == 1)


def flux_values(q_max: int) -> list[Fraction]:
    """All reduced fractions nu/q in [0, 1) with q <= q_max, ascending."""
    if q_max < 1:
        raise ValueError("q_max must be at least 1")
    return sorted(Fraction(nu, q) for nu, q in _reduced_fluxes(q_max))


_ROW = np.dtype([("num", np.int64), ("den", np.int64), ("energy", np.float64)])


def _group_by_flux(rows: np.ndarray) -> list[tuple[int, int, np.ndarray]]:
    """Per-flux sample arrays from `_ROW` records, in ascending Phi.  Each
    run of equal (nu, q) is one slice; the runs of a flux are joined in file
    order, so interleaved rows group as well.  A (nu, q) that is not a
    reduced flux in [0, 1) raises ValueError."""
    nums, dens = rows["num"], rows["den"]
    starts = np.flatnonzero((nums[1:] != nums[:-1]) | (dens[1:] != dens[:-1])) + 1
    bounds = [0, *starts.tolist(), rows.size] if rows.size else []
    runs: dict[tuple[int, int], list[np.ndarray]] = {}
    for lo, hi in zip(bounds, bounds[1:]):
        runs.setdefault((int(nums[lo]), int(dens[lo])), []).append(rows["energy"][lo:hi])
    for num, den in runs:
        _validate_fraction(num, den)
    return [(n, d, np.concatenate(parts)) for (n, d), parts in sorted(
        runs.items(), key=lambda item: Fraction(*item[0]))]


_CSV_HEADER = "phi_num,phi_den,energy"
# Rows per write.  Bounded chunks keep each transient string and run list
# small enough to be reused; one chunk per flux left about 0.8 MB more
# resident after `butterfly(12, 24).to_csv`.
_ROWS_PER_WRITE = 256


def _json_point(obj: dict):
    """json.load hook: each point object becomes its (nu, q, energy) row as
    it is parsed, so the reader never holds a dict and a list per point."""
    if "phi" not in obj:
        return obj
    try:
        (num, den), energy = obj["phi"], obj["E"]
        if type(num) is int and type(den) is int and type(energy) in (int, float):
            return num, den, float(energy)
    except (KeyError, TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"malformed butterfly point {obj!r}")


def _rows(entries: list[tuple[int, int, np.ndarray]], head: str,
          number: Callable[[float], str], tail: str) -> Iterator[str]:
    """Each row `head.format(nu, q) + number(e) + tail` of entries, one joined
    string per write of at most _ROWS_PER_WRITE rows of a flux; each run of
    equal bits is formatted once and repeated, and -0.0 and 0.0, or two NaN
    payloads, are runs of their own."""
    for num, den, samples in entries:
        prefix = head.format(num, den)
        for lo in range(0, samples.size, _ROWS_PER_WRITE):
            part = samples[lo:lo + _ROWS_PER_WRITE]
            bits = part.view(np.int64)
            cuts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
            yield "".join([f"{prefix}{number(e)}{tail}" * n for e, n in zip(
                part[cuts].tolist(), np.diff(cuts, append=part.size).tolist())])


def _json_number(e: float) -> str:
    """e as json spells it: float.__repr__, or NaN, Infinity or -Infinity."""
    return repr(e) if math.isfinite(e) else json.dumps(e)


@dataclass
class ButterflyDataset:
    """Rows (Phi = nu/q, eigenvalue sample) for every reduced flux with
    q <= q_max, ordered by (Phi ascending, energy ascending).

    `entries` holds one (nu, q, sorted float64 samples) triple per flux.
    Both writers take their rows from one generator, `_rows`, and write the
    bytes a row-by-row writer and `json.dump` would, at most _ROWS_PER_WRITE
    rows a write: within a write the samples fall into runs of equal bits,
    and each run's row is formatted once and repeated.  The readers parse
    the rows into one record array and group it by runs of equal flux.
    """

    q_max: int
    k_grid: int
    entries: list[tuple[int, int, np.ndarray]]

    def n_rows(self) -> int:
        return sum(samples.size for _n, _d, samples in self.entries)

    def __eq__(self, other) -> bool:
        """Same sizes, fluxes and samples; NaN samples match NaN (so a
        dataset equals its round trips) and 0.0 matches -0.0."""
        if not isinstance(other, ButterflyDataset):
            return NotImplemented
        return (self.q_max == other.q_max and self.k_grid == other.k_grid
                and len(self.entries) == len(other.entries)
                and all(a[0] == b[0] and a[1] == b[1]
                        and np.array_equal(a[2], b[2], equal_nan=True)
                        for a, b in zip(self.entries, other.entries)))

    def to_csv(self, path: str | Path) -> None:
        """Write `phi_num,phi_den,energy` rows through `_rows`; each energy is
        its shortest round-trip repr."""
        with open(path, "w") as fh:
            fh.write(_CSV_HEADER + "\n")
            fh.writelines(_rows(self.entries, "{},{},", repr, "\n"))

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
        "E": e}, ...]}`, the bytes `json.dump` gives, through `_rows`: each
        point follows its `", "` separator, which the first write drops.  NaN
        and Infinity are spelled as json spells them."""
        head = json.dumps({"q_max": self.q_max, "k_grid": self.k_grid, "points": []})
        rows = _rows(self.entries, ', {{"phi": [{}, {}], "E": ', _json_number, "}")
        with open(path, "w") as fh:
            fh.write(head[:-2])
            fh.write(next(rows, ", ")[2:])
            fh.writelines(rows)
            fh.write("]}")

    @classmethod
    def from_json(cls, path: str | Path) -> "ButterflyDataset":
        """Read what `to_json` writes; points of a flux may be interleaved
        with others.  A malformed document or point raises ValueError."""
        with open(path) as fh:
            doc = json.load(fh, object_hook=_json_point)
        try:
            points, q_max, k_grid = doc["points"], doc["q_max"], doc["k_grid"]
            if type(q_max) is not int or type(k_grid) is not int:
                raise TypeError
            # np.fromiter would broadcast a bare number to a whole row
            odd = [point for point in points if type(point) is not tuple]
            if odd:
                raise ValueError(f"malformed butterfly point {odd[0]!r}")
            rows = np.fromiter(points, dtype=_ROW, count=len(points))
        except (KeyError, TypeError, OverflowError):
            raise ValueError("malformed butterfly JSON: expected {q_max, k_grid, "
                             "points: [{phi: [nu, q], E}, ...]}") from None
        return cls(q_max, k_grid, _group_by_flux(rows))

    def symmetry_report(self, tol: float = 1e-9) -> dict:
        """Deviations from the Phi -> 1 - Phi and E -> -E symmetries."""
        table = {(n, d): s for n, d, s in self.entries}
        flux_dev = energy_dev = 0.0
        for (n, d), samples in table.items():
            partner = table.get(((d - n) % d, d))
            if partner is None or partner.size != samples.size:
                raise ValueError(f"flux {n}/{d}: its reflection {(d - n) % d}/{d} "
                                 "is missing or has another sample count")
            flux_dev = max(flux_dev, float(np.max(np.abs(samples - partner))))
            energy_dev = max(energy_dev, float(np.max(np.abs(samples + samples[::-1]))))
        return {
            "flux_reflection_deviation": flux_dev,
            "energy_negation_deviation": energy_dev,
            "symmetric": flux_dev <= tol and energy_dev <= tol,
            "tolerance": tol,
        }


def butterfly(q_max: int, k_grid: int) -> ButterflyDataset:
    """Harper spectra for every reduced flux with denominator up to q_max,
    one Bloch solve per Chambers class."""
    _require_held((q for _nu, q in _reduced_fluxes(q_max)), k_grid, "the butterfly sweep")
    entries = []
    for phi in flux_values(q_max):
        num, den = phi.numerator, phi.denominator
        eigs, counts = _solve_classes(num, den, k_grid)
        samples = np.repeat(eigs, counts, axis=0).ravel()
        samples.sort()
        entries.append((num, den, samples))
    return ButterflyDataset(q_max, k_grid, entries)


def hausdorff_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Hausdorff distance between two sorted sample sets on the line, each
    compared against the other _COMPARE_CHUNK samples at a time."""
    def directed(x: np.ndarray, y: np.ndarray) -> float:
        worst = []
        for lo in range(0, x.size, _COMPARE_CHUNK):
            part = x[lo:lo + _COMPARE_CHUNK]
            pos = np.searchsorted(y, part)
            left = y[np.clip(pos - 1, 0, y.size - 1)]
            right = y[np.clip(pos, 0, y.size - 1)]
            worst.append(np.max(np.minimum(np.abs(part - left), np.abs(part - right))))
        return float(np.max(worst))
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
    _require_held([c.denominator for c in convergents], k_grid, "the approximant sequence")
    spectra = [spectrum(Flux.rational(c.numerator, c.denominator), k_grid)
               for c in convergents]
    distances = [hausdorff_distance(s0.samples, s1.samples)
                 for s0, s1 in zip(spectra, spectra[1:])]
    return ApproximantSequence(flux, convergents, spectra, distances)
