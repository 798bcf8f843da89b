"""Harper spectra at rational flux via Bloch reduction, and butterfly sweeps.

At flux nu/q the Bloch matrices are the hopping element
`algebra.harper_element()` in the q-dimensional representation of the
magnetic translations at momenta (k1, k2): diagonal 2*cos(k2 + 2*pi*nu*m/q),
unit super/subdiagonals and corners e^{-+ i q k1}.  A matrix depends on k1
only through e^{i q k1}, so it is exactly periodic in k1 with period 2*pi/q;
`spectrum` solves one representative per residue class of the uniform grid
and sorts those eigenvalues: they are the samples when gcd(q, k_grid) = 1,
and each is repeated gcd(q, k_grid) times otherwise, which never changes
the reported samples.

Its eigenvalues depend on (k1, k2) only through cos(q k1) + cos(q k2)
(Chambers, Phys. Rev. 140, A135 (1965)).  On the grid k = 2*pi*j/k_grid,
cos(q k) depends only on the residue q*j mod k_grid folded under
r <-> k_grid - r, so `butterfly` solves one matrix per Chambers class and
repeats its eigenvalues by the class's number of grid points.  A class is
one real representative (k1, k2) of the c = cos(q k1) + cos(q k2) that the
folded residues give, shared by values of c that round to it
(_class_momenta); the matrix there is real symmetric, solved in a float64
stack, which LAPACK solves about twice as fast as a complex one.  The
classes depend on q alone, so the sweep solves every reduced nu/q of a
denominator as one stack, row by row at its own numerator, and splits the
eigenvalues back into fluxes.  The samples agree with the per-point solve
to about 5e-14, not bit for bit.  `spectrum` keeps the complex per-point
solve: its band edges are grid extrema, and at even q the two central bands
touch within about 1e-15, so whether they merge rests on those last bits.

A stack is built by a _bloch_builder, which prepares each term of the
Hamiltonian once per denominator and exponentiates only the entries whose
exponent can be nonzero, with the bits of exponentiating every entry.
Bloch matrices are built and solved _STACK_CHUNK_BYTES at a time (at least
one) through the same LAPACK call as one batched call, so the eigenvalues
are bit-identical.  A solve of more than one chunk runs in up to _LANES
lanes, one per CPU that the BLAS leaves idle at the thread count its
environment sets (one lane when none is set, since the BLAS then uses
every CPU).  Lane i builds and solves chunks i, i + lanes, ... in its own
buffer of _STACK_CHUNK_BYTES // _LANES, into disjoint rows of one
eigenvalue array, so lanes change neither the matrices nor the LAPACK
call.  One rule sizes every request before its first solve: every
returned flux's samples stay held, plus the largest transient of one
stack's solve (its class step, its eigenvalues, unless they are the
samples, and every lane's chunk of matrices) and a fixed slack, against
reporting.ALLOCATION_BUDGET_BYTES.  A matrix costs the chunk and the rule
the same _matrix_bytes(q, dtype), its 16 q^2 bytes of complex entries or 8
q^2 of real ones, and its row temporaries.  The budget bounds memory, not
run time.
"""

from __future__ import annotations

import json
import math
import os
import re
import threading
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import TextIO

import numpy as np

from .algebra import harper_element
from .phases import TWO_PI, Flux
from .reporting import RelationReport, require_allocation

__all__ = [
    "SpectrumEstimate",
    "ButterflyDataset",
    "ApproximantSequence",
    "spectrum",
    "butterfly",
    "approximant_spectra",
    "hausdorff_distance",
    "flux_values",
    "SYMMETRY_TOLERANCE",
]

SYMMETRY_TOLERANCE = 1e-9

_HAMILTONIAN = harper_element()  # the one element every Bloch matrix represents
# Bloch matrices built and solved at once, shared by the lanes; a larger
# stack is solved in chunks.
_STACK_CHUNK_BYTES = 1 << 22
# Samples hausdorff_distance compares at once, with 48 bytes of temporaries
# each, and samples `_rows` joins into one write, however long their runs:
# one write a flux left about 0.8 MB more resident after
# `butterfly(12, 24).to_csv`.
_COMPARE_CHUNK = 1 << 12
# What no _require_held term counts: small arrays and one comparison chunk.
_SLACK_BYTES = 1 << 18


def _lane_count(cpus: int, environ: Mapping[str, str]) -> int:
    """Solve lanes on `cpus` usable CPUs: the CPUs over the BLAS's thread
    count, the first positive integer among its environment settings, and
    one lane when there is none, since the BLAS then uses every CPU."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            threads = int(environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            return max(1, cpus // threads)
    return 1


_LANES = _lane_count(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                     else os.cpu_count() or 1, os.environ)


def _matrix_bytes(den: int, dtype: type) -> int:
    """Bytes a Bloch matrix of dtype at denominator den costs: its entries and
    the row temporaries of a _bloch_builder build.  Its exponentials are
    complex for a real out too, and tracemalloc puts the temporaries of
    either at 45-71 q a matrix and about 2 KB a build, for q from 1 to 300
    and 8 to 64 matrices."""
    return np.dtype(dtype).itemsize * den * den + 64 * den + 64


def _chunk_length(den: int, dtype: type) -> int:
    """Bloch matrices of dtype per lane's chunk at denominator den, at least
    one."""
    return max(1, _STACK_CHUNK_BYTES // _LANES // _matrix_bytes(den, dtype))


def _require_held(solves: Iterable[tuple[int, int, int, int]], k_grid: int, what: str,
                  dtype: type = complex) -> None:
    """Check k_grid, then refuse at the first q over budget a request whose
    solves (q, fluxes, rows, classes) each return `fluxes` fluxes at
    denominator q from one stack of `rows` Bloch matrices of dtype, solved
    at `classes` Chambers classes (0 for a per-point solve), so a lazy sweep
    is never listed whole.  Each flux holds its samples, 128 bytes a band
    and 512 of objects; on top come the largest solve transient and
    _SLACK_BYTES.  A solve's transient is 136 bytes a class, for the
    106-109 a `_class_count` pair that tracemalloc puts `_class_momenta`'s
    peak at (k_grid 40 to 3000) and the 24 its arrays hold through the
    solve; its eigenvalues, 8 q bytes a row, unless there are as many rows
    as sample rows (a spectrum at gcd(q, k_grid) = 1), when they are the
    samples; and each busy lane's chunk plus one more matrix, at
    _matrix_bytes each."""
    if k_grid < 4:
        raise ValueError("k_grid must be at least 4")
    held = transient = 0
    for q, fluxes, rows, classes in solves:
        step = _chunk_length(q, dtype)
        held += fluxes * (8 * q * k_grid * k_grid + 128 * (q + 4))
        eigs = 0 if rows == fluxes * k_grid * k_grid else 8 * q * rows
        transient = max(transient, 136 * classes + eigs + min(_LANES, -(-rows // step))
                        * (min(rows, step) + 1) * _matrix_bytes(q, dtype))
        require_allocation(held + transient + _SLACK_BYTES,
                           f"{what} through q={q}, k_grid={k_grid}")


def _validate_fraction(num: int, den: int) -> None:
    if den < 1:
        raise ValueError(f"denominator must be positive, got {den}")
    if not 0 <= num < den:
        raise ValueError(f"flux fraction {num}/{den} must satisfy 0 <= nu < q")
    if math.gcd(num, den) != 1:
        raise ValueError(f"flux fraction {num}/{den} is not in lowest terms")


def _bloch_builder(nums: Sequence[int], q: int
                   ) -> Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]:
    """build(which, k1, k2, out) for Bloch stacks at denominator q: it fills
    the C-contiguous out, of shape (len(k1), q, q), with one matrix per row
    i and returns it, _HAMILTONIAN in the representation q1 -> S, q2 -> D at
    flux nums[which[i]]/q and momenta (k1[i], k2[i]), of three arrays with a
    row each.  S sends site m to m - 1 and closes the cycle with
    e^{i q k1}; D = diag(e^{-i(k2 + th m)}), so S D S^-1 D^-1 = e^{-i th} as
    in `algebra`.  A term c * phase * q1^a q2^b adds c * phase(th) * S^a D^b:
    column m lands in row m - a - w q, times e^{-i(b (k2 + th m) + w q k1)},
    for the w = floor((m - a) / q) wraps of its hop.  A float64 out takes
    the real part of each term, so it is the real part of the complex
    stack bit for bit: the matrices themselves where they are real, as at
    a Chambers class's real representative.

    Each term's value c * phase(th) at every numerator, and its one or two
    runs of columns with one w, which fill a stride of the flattened
    matrix, are found once here.  A run exponentiates only if its exponent
    can be nonzero, when b != 0 or w != 0; a run with neither takes the
    term's value, which is e^0 times the value but for the sign of a zero
    part, and out, summed from +0, never keeps that sign, so the matrices
    have the bits of exponentiating every entry.  The first two runs, of
    q2 and q2^-1, fill the same entries, which out holds at zero, with the
    negated exponent: the second takes the first's exponential conjugated,
    which has the bits of exponentiating again, and the two terms are
    summed before they are added, which keeps the bits of adding them in
    turn."""
    m = np.arange(q)
    turns = TWO_PI * np.array(nums)[:, None] * m / q  # th m at each numerator
    runs = []
    # q2 terms first: at q = 1 all terms share one entry, summed in this
    # order as 2 cos(k2) + cos(k1) + cos(k1), bit for bit as hand-coded
    for c, mono in sorted(_HAMILTONIAN.terms(), key=lambda t: abs(t[1].exponents[2])):
        _j1, _j2, a, b = mono.exponents
        value = np.array([c * mono.phase.evaluate(TWO_PI * num / q) for num in nums])
        # columns below a mod q wrap once more than the rest
        for lo, hi, w in ((0, a % q, -(a // q) - 1), (a % q, q, -(a // q))):
            if lo < hi:
                start = (lo - a - w * q) * q + lo  # row m - a - w q, column m
                cols = slice(lo, hi)
                at = slice(start, start + (hi - lo - 1) * (q + 1) + 1, q + 1)
                if len(runs) == 1 and (b or w) and runs[0][1:5] == (-b, -w, cols, at):
                    runs[0] = (*runs[0][:5], value)  # the conjugate partner
                else:
                    runs.append((value, b, w, cols, at, None))

    def build(which: np.ndarray, k1: np.ndarray, k2: np.ndarray,
              out: np.ndarray) -> np.ndarray:
        angle, qk1 = k2[:, None] + turns[which], q * k1[:, None]
        real = out.dtype == np.float64
        out[...] = 0
        flat = out.reshape(len(out), q * q)  # a view of out
        for value, b, w, cols, at, partner in runs:
            v = value[which][:, None]
            if b or w:
                e = np.exp(-1j * (b * angle[:, cols] + w * qk1))
                v = v * e
                if partner is not None:
                    v += np.multiply(np.conjugate(e, out=e), partner[which][:, None], out=e)
                e = None  # freed before the add into out, which copies v
            flat[:, at] += v.real if real else v
        return out
    return build


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


def _solve_points(nums: Sequence[int], den: int, n: int,
                  momenta: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]],
                  dtype: type = complex) -> np.ndarray:
    """Eigenvalues of the n Bloch matrices of dtype at the numerator indices
    and momenta (which, k1, k2) = momenta(i), three arrays as long as i, of
    the point indices i = 0 .. n - 1, each at flux nums[which]/den, solved
    in chunks of _chunk_length(den, dtype) matrices into one (n, den) array:
    each chunk asks for its own momenta, so no array of n momenta is held,
    and every chunk is built by one _bloch_builder.  Lane i solves chunks i,
    i + lanes, ... in order, lane 0 in the calling thread and the others on
    threads started only when there is more than one chunk; every lane
    builds its chunks in one buffer, since a fresh array per chunk can leave
    the allocator holding two.  All lanes are joined before the first
    exception of any lane is raised."""
    build = _bloch_builder(nums, den)
    step = _chunk_length(den, dtype)
    starts = range(0, n, step)
    lanes = min(_LANES, len(starts))
    eigs = np.empty((n, den))
    buffers = [np.empty((min(step, n), den, den), dtype=dtype) for _ in range(lanes)]
    errors: list[BaseException | None] = [None] * lanes

    def solve(lane: int) -> None:
        chunk = buffers[lane]
        try:
            for lo in starts[lane::lanes]:
                which, k1, k2 = momenta(np.arange(lo, min(lo + step, n)))
                eigs[lo:lo + step] = np.linalg.eigvalsh(build(which, k1, k2, chunk[:k1.size]))
        except BaseException as exc:  # raised in the calling thread once all lanes end
            errors[lane] = exc

    threads = [threading.Thread(target=solve, args=(lane,), name=f"spectral lane {lane}")
               for lane in range(1, lanes)]
    for thread in threads:
        thread.start()
    solve(0)
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return eigs


def _grid_points(den: int, k_grid: int) -> int:
    """Momenta `spectrum` solves at denominator den: one k1 per residue class
    of e^{i den k1} on the grid, by every k2."""
    return (k_grid // math.gcd(den, k_grid)) * k_grid


def _class_count(den: int, k_grid: int) -> int:
    """The number of unordered pairs of folded residues at denominator den,
    which bounds the classes of `_class_momenta(den, k_grid)`: the residues
    are the k_grid / g multiples of g = gcd(den, k_grid), which fold to
    f = k_grid // g // 2 + 1 values, and f (f + 1) / 2 unordered pairs."""
    f = k_grid // math.gcd(den, k_grid) // 2 + 1
    return f * (f + 1) // 2


def _class_momenta(den: int, k_grid: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Chambers classes of the k_grid x k_grid grid at denominator den,
    in ascending (k2, k1): the real representative (k1, k2) of each and its
    number of grid points.  Grid point (j1, j2) has c = cos(den k1) +
    cos(den k2), the sum of the cosines of its residues den*j mod k_grid,
    each folded under r <-> k_grid - r.  A class is one representative, bit
    for bit, of one or more values of c: k1 = 0 when c >= 0 and pi/den
    otherwise, and k2 = arccos(c - cos(den k1))/den, where the Bloch matrix
    is real symmetric, with corners +-1."""
    r = den * np.arange(k_grid) % k_grid
    folded, weight = np.unique(np.minimum(r, k_grid - r), return_counts=True)
    cos = np.cos(TWO_PI * folded / k_grid)
    c, key = np.unique(np.add.outer(cos, cos).ravel(), return_inverse=True)
    counts = np.bincount(key, np.outer(weight, weight).ravel())
    del key
    lower = c < 0
    point, key = np.unique(np.arccos(c + np.where(lower, 1.0, -1.0)) / den
                           + 1j * np.where(lower, math.pi / den, 0.0), return_inverse=True)
    return point.imag, point.real, np.bincount(key, counts).astype(int)


def spectrum(flux: Flux, k_grid: int) -> SpectrumEstimate:
    """Harper spectrum at a rational flux over a uniform k grid on [0, 2pi)^2."""
    if not flux.is_rational:
        raise ValueError("spectrum needs a rational flux; use approximant_spectra "
                         "for an irrational one")
    num, den = flux.numerator, flux.denominator
    n = _grid_points(den, k_grid)
    _require_held([(den, 1, n, 0)], k_grid, "the spectrum")
    # one k1 representative per residue class, each solved once
    ks = TWO_PI * np.arange(k_grid) / k_grid
    eigs = _solve_points([num], den, n, lambda i: (0 * i, ks[i // k_grid], ks[i % k_grid]))
    # each row is ascending, so band j's bottom and top never fall as j grows:
    # band j starts a merged band unless it overlaps the top of band j - 1
    lo, hi = eigs.min(axis=0).tolist(), eigs.max(axis=0).tolist()
    first = [j for j in range(den) if j == 0 or lo[j] >= hi[j - 1]]
    bands = tuple((lo[a], hi[b - 1]) for a, b in zip(first, [*first[1:], den]))
    flat = eigs.ravel()
    flat.sort()
    g = math.gcd(den, k_grid)
    return SpectrumEstimate(flux, flat if g == 1 else np.repeat(flat, g), bands, k_grid)


def _numerators(den: int) -> list[int]:
    """Every nu with nu/den a reduced flux in [0, 1)."""
    return [nu for nu in range(den) if math.gcd(nu, den) == 1]


def flux_values(q_max: int) -> list[Fraction]:
    """All reduced fractions nu/q in [0, 1) with q <= q_max, ascending."""
    if q_max < 1:
        raise ValueError("q_max must be at least 1")
    return sorted(Fraction(nu, q) for q in range(1, q_max + 1) for nu in _numerators(q))


_ROW = np.dtype([("num", np.int64), ("den", np.int64), ("energy", np.float64)])


def _group_by_flux(blocks: Iterable[tuple[np.ndarray, np.ndarray]]
                   ) -> list[tuple[int, int, np.ndarray]]:
    """Per-flux sample arrays, in ascending Phi, from blocks of `_ROW`
    records and their run lengths: each record's energy stands for as many
    samples as its run length.  Each run of equal (nu, q) in a block is one
    part; the parts of a flux are joined in file order, so interleaved rows
    group as well.  A (nu, q) that is not a reduced flux in [0, 1) raises
    ValueError."""
    runs: dict[tuple[int, int], list[tuple[np.ndarray, np.ndarray]]] = {}
    for rows, counts in blocks:
        # a copy, so no part holds its block's records
        nums, dens, energies = rows["num"], rows["den"], rows["energy"].copy()
        starts = np.flatnonzero((nums[1:] != nums[:-1]) | (dens[1:] != dens[:-1])) + 1
        bounds = [0, *starts.tolist(), rows.size]
        for lo, hi in zip(bounds, bounds[1:]):
            runs.setdefault((int(nums[lo]), int(dens[lo])), []).append(
                (energies[lo:hi], counts[lo:hi]))
    for num, den in runs:
        _validate_fraction(num, den)
    # each flux's parts are dropped once joined
    return [(n, d, _expand(runs.pop((n, d)))) for n, d in sorted(
        runs, key=lambda flux: Fraction(*flux))]


def _expand(parts: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """The samples of (energies, run lengths) parts, in order, written into
    one array so that at most one part is ever held expanded."""
    out = np.empty(sum(int(counts.sum()) for _e, counts in parts))
    pos = 0
    for energies, counts in parts:
        piece = np.repeat(energies, counts)
        out[pos:pos + piece.size] = piece
        pos += piece.size
    return out


# Characters the readers take at once; a CSV line or a JSON piece longer
# than this, which no row or point is, is refused before the next read.
_READ_BYTES = 1 << 16


def _parsed(block: list[str], row: Callable[[str], str]) -> tuple[np.ndarray, np.ndarray]:
    """(`_ROW` records, run lengths) of one non-empty block of strings: of
    each run of equal consecutive strings only row(first string), a CSV
    row, is parsed, by np.loadtxt, since equal strings give equal bits."""
    strings = np.array(block, dtype=object)
    cuts = np.flatnonzero(np.concatenate(([True], strings[1:] != strings[:-1])))
    records = np.loadtxt([row(s) for s in strings[cuts].tolist()], dtype=_ROW,
                         delimiter=",", comments=None, ndmin=1)
    return records, np.diff(cuts, append=strings.size)


def _pieces(fh: TextIO, text: str, sep: str, what: str, end: str = ""
            ) -> Iterator[list[str]]:
    """Blocks of the pieces of text and then of fh, read _READ_BYTES
    characters at a time and split at sep; the last piece comes last, with
    `end` cut off, as a block of its own, and one without `end` (which only
    the JSON body has) is refused.  The last piece of a read is carried into
    the next, and one longer than _READ_BYTES is refused as a malformed
    butterfly `what`."""
    piece = ""
    while text:
        *pieces, piece = (piece + text).split(sep)
        if len(piece) > _READ_BYTES:
            raise ValueError(f"malformed butterfly {what} {piece[:80]!r}")
        if pieces:
            yield pieces
        text = fh.read(_READ_BYTES)
    if not piece.endswith(end):
        raise ValueError(f"malformed butterfly JSON: expected {end!r} at the end, "
                         f"got {piece[-80:]!r}")
    yield [piece.removesuffix(end)]


def _csv_records(fh: TextIO) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """`_parsed` of the non-empty lines of each block that `_pieces` splits
    the CSV body in fh into at newlines, one pair a block that holds any.  A
    block that fails is parsed again a line at a time, and its first
    malformed row raises its own message with its line number, the header
    being line 1; a line too long to carry raises its own."""
    lineno = 2
    for lines in _pieces(fh, fh.read(_READ_BYTES), "\n", "row"):
        rows = list(filter(None, lines))
        try:
            if rows:
                yield _parsed(rows, str)
        except ValueError:
            for n, text in enumerate(lines, lineno):
                try:
                    if text:
                        _parsed([text], str)
                except ValueError:
                    raise ValueError(f"malformed butterfly row on line {n}: "
                                     f"{text[:80]!r}") from None
            raise
        lineno += len(lines)


_CSV_HEADER = "phi_num,phi_den,energy"


# What `to_json` writes before its points, and each point between its
# `{` and `}`: a JSON integer of at most 18 digits never overflows int64,
# and E is a float repr or json's NaN, Infinity or -Infinity.
_JSON_HEAD = re.compile(r'\{"q_max": (-?\d+), "k_grid": (-?\d+), "points": \[')
_JSON_INT = r"(-?(?:0|[1-9]\d{0,17}))"
_JSON_POINT = re.compile(rf'"phi": \[{_JSON_INT}, {_JSON_INT}\], "E": '
                         r"(-?(?:0|[1-9]\d*)(?:\.\d+)?(?:e[-+]\d+)?|NaN|-?Infinity)")


def _json_row(point: str) -> str:
    """The CSV row `nu,q,E` of a point's text between `{` and `}`."""
    match = _JSON_POINT.fullmatch(point)
    if match is None:
        raise ValueError(f"malformed butterfly point {point[:80]!r}")
    return ",".join(match.groups())


def _json_points(fh: TextIO) -> tuple[int, int, Iterable[list[str]]]:
    """q_max, k_grid and the blocks of point texts between `{` and `}` of a
    `to_json` document, whose head must lie in its first _READ_BYTES: the
    body after the head is `]}`, or `{`, the points joined by `}, {`, and
    `}]}`, which `_pieces` splits and ends."""
    text = fh.read(_READ_BYTES)
    head = _JSON_HEAD.match(text)
    if head is None:
        raise ValueError("malformed butterfly JSON: expected the head "
                         '{"q_max": Q, "k_grid": K, "points": [')
    # the first read may end within two bytes of the head
    body = text[head.end():] + fh.read(2)
    if body == "]}" and not fh.read(1):
        return int(head[1]), int(head[2]), []
    if body[:1] != "{":
        raise ValueError(f"malformed butterfly point {body[:80]!r}")
    return int(head[1]), int(head[2]), _pieces(fh, body[1:], "}, {", "point", "}]}")


def _rows(entries: list[tuple[int, int, np.ndarray]], head: str,
          number: Callable[[float], str], tail: str) -> Iterator[str]:
    """Each row `head.format(nu, q) + number(e) + tail` of entries, one joined
    string per pass of _COMPARE_CHUNK samples of a flux.  The runs of equal
    bits are found once a pass, and each run's row is formatted once in its
    pass and repeated; -0.0 and 0.0, or two NaN payloads, are runs of their
    own."""
    for num, den, samples in entries:
        prefix = head.format(num, den)
        for lo in range(0, samples.size, _COMPARE_CHUNK):
            part = samples[lo:lo + _COMPARE_CHUNK]
            bits = part.view(np.int64)
            cuts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
            yield "".join(f"{prefix}{number(e)}{tail}" * n for e, n in zip(
                part[cuts].tolist(), np.diff(cuts, append=part.size).tolist()))


def _json_number(e: float) -> str:
    """e as json spells it: float.__repr__, or NaN, Infinity or -Infinity."""
    return repr(e) if math.isfinite(e) else json.dumps(e)


@dataclass
class ButterflyDataset:
    """Rows (Phi = nu/q, eigenvalue sample) for every reduced flux with
    q <= q_max, ordered by (Phi ascending, energy ascending).

    `entries` holds one (nu, q, sorted float64 samples) triple per flux.
    Both writers take their rows from one generator, `_rows`, and write the
    bytes a row-by-row writer and `json.dump` would, one write per pass of
    _COMPARE_CHUNK samples: within a pass the samples fall into runs of
    equal bits, and each run's row is formatted once and repeated.  Both
    readers split their text with `_pieces`, _READ_BYTES characters at a
    time, refusing a line or point longer than that and a JSON body that
    does not end in `}]}`, parse each block of non-empty lines or points in
    one `_parsed` call, which parses only the first of each run of equal
    ones, and group the records by flux in `_group_by_flux`.  A malformed
    CSV row is named by its line in the file, found within its block.
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
        """Read what `to_csv` writes through `_csv_records`, holding one
        block of lines at a time; rows of a flux may be interleaved with
        others and empty lines are skipped.  A wrong header or a malformed
        row raises ValueError.  At most len(_CSV_HEADER) + 2 characters of
        the header line are read, so a long first line is refused unheld."""
        limit = len(_CSV_HEADER) + 2
        with open(path) as fh:
            header = fh.readline(limit)
            if header.strip() != _CSV_HEADER or (len(header) == limit
                                                 and not header.endswith("\n")):
                raise ValueError(f"unexpected CSV header {header[:80]!r}")
            return cls(q_max, k_grid, _group_by_flux(_csv_records(fh)))

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
        """Read the layout `to_json` writes through `_json_points`, holding
        one block of points at a time; points of a flux may be interleaved
        with others.  Any other layout (other whitespace or key order, extra
        keys) or a malformed point raises ValueError."""
        with open(path) as fh:
            q_max, k_grid, points = _json_points(fh)
            return cls(q_max, k_grid, _group_by_flux(_parsed(b, _json_row) for b in points))

    def symmetry_report(self) -> RelationReport:
        """The Phi -> 1 - Phi and E -> -E symmetries as two measured checks,
        `flux_reflection` and `energy_negation`, whose values are the largest
        deviations, held to SYMMETRY_TOLERANCE; a NaN sample makes both
        values NaN, so both checks fail."""
        table = {(n, d): s for n, d, s in self.entries}
        flux_dev = energy_dev = 0.0
        for (n, d), samples in table.items():
            partner = table.get(((d - n) % d, d))
            if partner is None or partner.size != samples.size:
                raise ValueError(f"flux {n}/{d}: its reflection {(d - n) % d}/{d} "
                                 "is missing or has another sample count")
            # np.maximum keeps a NaN deviation, which Python's max drops
            flux_dev = float(np.maximum(flux_dev, np.max(np.abs(samples - partner))))
            energy_dev = float(np.maximum(energy_dev,
                                          np.max(np.abs(samples + samples[::-1]))))
        report = RelationReport()
        report.measure("flux_reflection", flux_dev, SYMMETRY_TOLERANCE, "Phi -> 1 - Phi")
        report.measure("energy_negation", energy_dev, SYMMETRY_TOLERANCE, "E -> -E")
        return report


def butterfly(q_max: int, k_grid: int) -> ButterflyDataset:
    """Harper spectra for every reduced flux with denominator up to q_max,
    one real Bloch solve per Chambers class, every flux of a denominator in
    one stack."""
    dens = range(1, q_max + 1)
    _require_held(((q, len(nums), len(nums) * _class_count(q, k_grid),
                    _class_count(q, k_grid))
                   for q, nums in zip(dens, map(_numerators, dens))),
                  k_grid, "the butterfly sweep", float)
    if q_max < 1:
        raise ValueError("q_max must be at least 1")
    entries = []
    for q, nums in zip(dens, map(_numerators, dens)):
        k1, k2, counts = _class_momenta(q, k_grid)
        n_c = counts.size
        eigs = _solve_points(nums, q, len(nums) * n_c,
                             lambda i: (i // n_c, k1[i % n_c], k2[i % n_c]), float)
        for j, num in enumerate(nums):
            samples = np.repeat(eigs[j * n_c:(j + 1) * n_c], counts, axis=0).ravel()
            samples.sort()
            entries.append((num, q, samples))
    entries.sort(key=lambda entry: Fraction(entry[0], entry[1]))
    return ButterflyDataset(q_max, k_grid, entries)


def hausdorff_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Hausdorff distance between two sorted sample sets on the line, each
    compared against the other _COMPARE_CHUNK samples at a time; NaN if
    either set holds a NaN, and ValueError if either is empty."""
    if a.size == 0 or b.size == 0:
        raise ValueError("hausdorff_distance needs two non-empty sample sets, "
                         f"got sizes {a.size} and {b.size}")
    def directed(x: np.ndarray, y: np.ndarray) -> float:
        worst = []
        for lo in range(0, x.size, _COMPARE_CHUNK):
            part = x[lo:lo + _COMPARE_CHUNK]
            pos = np.searchsorted(y, part)
            left = y[np.clip(pos - 1, 0, y.size - 1)]
            right = y[np.clip(pos, 0, y.size - 1)]
            worst.append(np.max(np.minimum(np.abs(part - left), np.abs(part - right))))
        return float(np.max(worst))
    return float(np.maximum(directed(a, b), directed(b, a)))


@dataclass
class ApproximantSequence:
    """Spectra along the continued-fraction convergents of an irrational flux,
    with Hausdorff distances between consecutive sample sets."""

    convergents: list[Fraction]
    spectra: list[SpectrumEstimate]
    distances: list[float]


def approximant_spectra(flux: Flux, depth: int, k_grid: int) -> ApproximantSequence:
    """The spectra of the first depth continued-fraction convergents of an
    irrational flux on k_grid, with the Hausdorff distance of each
    consecutive pair."""
    convergents = flux.convergents(depth)
    _require_held([(c.denominator, 1, _grid_points(c.denominator, k_grid), 0)
                   for c in convergents],
                  k_grid, "the approximant sequence")
    spectra = [spectrum(Flux.rational(c.numerator, c.denominator), k_grid)
               for c in convergents]
    distances = [hausdorff_distance(s0.samples, s1.samples)
                 for s0, s1 in zip(spectra, spectra[1:])]
    return ApproximantSequence(convergents, spectra, distances)
