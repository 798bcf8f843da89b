"""Inputs, operations and output checks of the four benchmark workloads.

`make_spec(name, seed, tiny)` turns a seed into plain-JSON inputs and refuses
any spectral input whose Bloch stack would exceed STACK_BUDGET_BYTES, before
anything is launched.  `build_ops(spec, workdir)` turns those inputs into
the operations a child process times, each with the check that decides
whether it failed.  An operation is one CLI command or one library call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, NamedTuple

import numpy as np

import fluxlattice as fl
from fluxlattice import cli

WORKLOADS = ("butterfly_io", "approximants", "exact", "landau")

# The host-speed kernel (calibration.KERNELS) closest to each workload's work.
HOST_KERNEL = {"butterfly_io": "interpreter", "approximants": "hermitian",
               "exact": "interpreter", "landau": "gemm", "control": "interpreter"}

# Largest complex Bloch stack one spectral input may ask for.  The package
# has no such guard: Flux.parse("pi") at depth 4 reaches q = 33102.
STACK_BUDGET_BYTES = 512 * 2**20

# Stated tolerances of the output checks.
SPECTRUM_TOL = 1e-9       # symmetry deviation, closed forms, pinned distances
NORM_BOUND_TOL = 1e-12    # |E| <= 4 + NORM_BOUND_TOL
LANDAU_LEVEL_TOL = 1e-8   # lowest levels against (|r|/m)(n - 1/2)

# Workload sizes.  TINY is the self-test's; both are seed-independent.
SIZES = {
    "butterfly_io": {"q_max": 12, "k_grid": 24, "json_q_max": 8, "json_k_grid": 16},
    "approximants": {"golden": [10, 16], "sqrt2": [6, 12],
                     "decimal_depth": 5, "decimal_k_grid": 11, "q_band": [130, 132]},
    "exact": {"n_decimals": 7, "n_gauges": 8, "max_exp": 3, "max_j": 6, "torus": 24},
    "landau": {"n_max": 20, "pairs": 2, "levels": 4},
}
TINY = {
    "butterfly_io": {"q_max": 4, "k_grid": 8, "json_q_max": 3, "json_k_grid": 6},
    "approximants": {"golden": [4, 8], "sqrt2": [3, 8],
                     "decimal_depth": 3, "decimal_k_grid": 7, "q_band": [10, 20]},
    "exact": {"n_decimals": 1, "n_gauges": 2, "max_exp": 1, "max_j": 2, "torus": 12},
    "landau": {"n_max": 10, "pairs": 2, "levels": 4},
}

# Values pinned on the seed commit, keyed by "flux depth k_grid": band counts
# per convergent, and Hausdorff distances between consecutive convergent
# spectra, compared within SPECTRUM_TOL.
PINNED_APPROXIMANTS = {
    "golden 10 16": {
        "bands": [1, 2, 3, 5, 7, 13, 21, 34, 55, 89],
        "distances": [1.1715728752538097, 0.5857864376269062, 0.5564803029839308,
                      0.1748523272797089, 0.05571251099216598, 0.03622025713124504,
                      0.014545723219780538, 0.005755343481655267, 0.0025981813402641022]},
    "sqrt2 6 12": {
        "bands": [2, 5, 11, 29, 70, 169],
        "distances": [0.714715078507363, 0.18047759060802426, 0.12346245478225004,
                      0.007791700020275183, 0.001959473752342511]},
    "golden 4 8": {
        "bands": [1, 2, 3, 5],
        "distances": [1.1715728752538097, 0.6821627548042177, 0.5564803029839308]},
    "sqrt2 3 8": {
        "bands": [2, 5, 11],
        "distances": [0.3005015161342677, 0.15742132009618093]},
}
# sha256 of the invariant-basis rendering (one element per line), keyed by
# max_j.  The rendering is exact: integer exponents and symbolic phases, the
# same at every irrational flux.
PINNED_BASIS_SHA256 = {
    6: "367bc61243994f3c3328565006a314d1a8751a6a33fa2a5efd5a27bb3047c25d",
    2: "f6f565d798f1fb79128976efa49569831c6af1eba30c1afabed9dc426f7b32ed",
}


class InputRejected(ValueError):
    """A generated input is outside what the benchmark may launch."""


class CheckFailed(Exception):
    """An operation's output is wrong."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def bloch_stack_bytes(q: int, k_grid: int) -> int:
    """Upper bound on the complex Bloch stack of one spectrum call: a q x q
    complex matrix for every point of the k_grid x k_grid momentum grid."""
    return k_grid * k_grid * q * q * 16


def guard_spectral(q: int, k_grid: int, what: str) -> None:
    size = bloch_stack_bytes(q, k_grid)
    if size > STACK_BUDGET_BYTES:
        raise InputRejected(f"{what}: q={q}, k_grid={k_grid} needs a {size} byte "
                            f"Bloch stack, over the {STACK_BUDGET_BYTES} byte budget")


def convergents_of(value: float, depth: int) -> list[Fraction]:
    """Continued-fraction convergents of value in (0, 1), by Euclid on its
    exact binary fraction; independent of fluxlattice.phases."""
    x = Fraction(value)
    p_prev, p_cur, q_prev, q_cur = 1, 0, 0, 1
    out = []
    for _ in range(depth):
        x = 1 / x
        a = math.floor(x)
        x -= a
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        out.append(Fraction(p_cur, q_cur))
    return out


def named_value(text: str) -> float:
    return {"golden": (math.sqrt(5.0) - 1.0) / 2.0,
            "sqrt2": math.sqrt(2.0) - 1.0}.get(text) or float(text)


def reduced_fluxes(q_max: int) -> list[tuple[int, int]]:
    return [(0, 1)] + [(nu, q) for q in range(2, q_max + 1)
                       for nu in range(1, q) if math.gcd(nu, q) == 1]


# --------------------------------------------------------------------------
# Inputs from a seed


def _decimal_flux(rng: random.Random, depth: int, k_grid: int,
                  band: list[int]) -> str:
    """A 10-digit decimal flux whose depth-th convergent denominator lies in
    band and dominates the earlier ones (at least 4 times the one before), so
    the solve cost barely depends on the seed."""
    for _ in range(1_000_000):
        text = f"0.{rng.randrange(10**9, 10**10)}"
        convs = convergents_of(float(text), depth)
        q_last, q_prev = convs[-1].denominator, convs[-2].denominator
        if band[0] <= q_last <= band[1] and 4 * q_prev <= q_last and q_last % k_grid:
            return text
    raise InputRejected(f"no decimal flux with a depth-{depth} denominator in {band}")


def _torus_fluxes(length: int) -> list[str]:
    """Fluxes p/q whose plane translations descend to a length x length
    torus: twice the denominator divides the length."""
    half = length // 2
    return [f"{p}/{q}" for q in range(2, half + 1) if half % q == 0
            for p in range(1, q) if math.gcd(p, q) == 1]


def make_spec(name: str, seed: int, tiny: bool = False) -> dict:
    """Plain-JSON inputs of one workload for one seed."""
    if name not in WORKLOADS:
        raise InputRejected(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    size = (TINY if tiny else SIZES)[name]
    rng = random.Random(f"{name}:{seed}")
    if name == "butterfly_io":
        spec = dict(size)
        for q_max, k_grid in ((spec["q_max"], spec["k_grid"]),
                              (spec["json_q_max"], spec["json_k_grid"])):
            guard_spectral(q_max, k_grid, f"butterfly q_max={q_max}")
    elif name == "approximants":
        decimal = _decimal_flux(rng, size["decimal_depth"], size["decimal_k_grid"],
                                size["q_band"])
        spec = {"cli": [["golden", *size["golden"]], ["sqrt2", *size["sqrt2"]]],
                "decimal": [decimal, size["decimal_depth"], size["decimal_k_grid"]]}
        for flux, depth, k_grid in spec["cli"] + [spec["decimal"]]:
            for conv in convergents_of(named_value(flux), depth):
                guard_spectral(conv.denominator, k_grid, f"{flux} convergent {conv}")
    elif name == "exact":
        decimals = set()
        while len(decimals) < size["n_decimals"]:
            decimals.add(f"0.{rng.randrange(10**9, 10**10)}")
        fluxes = ["golden", "sqrt2"] + sorted(decimals)
        spec = {"fluxes": fluxes,
                "gauges": rng.sample(range(-8, 9), size["n_gauges"]),
                "cli_gauge": [rng.randrange(-8, 9) for _ in fluxes],
                "phi_units": [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in fluxes],
                "max_exp": size["max_exp"], "max_j": size["max_j"],
                "torus": [rng.choice(_torus_fluxes(size["torus"])), size["torus"]]}
    else:
        pairs = rng.sample([(r, m) for r in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)
                            for m in (0.5, 1.0, 2.0)], size["pairs"])
        spec = {"pairs": [list(p) for p in pairs], "n_max": size["n_max"],
                "levels": size["levels"]}
    spec["workload"] = name
    return spec


# --------------------------------------------------------------------------
# Operations


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], None]


class CliResult(NamedTuple):
    code: int
    stdout: str


def run_cli(argv: list[str]) -> CliResult:
    """fluxlattice.cli.main in this process, with its stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return CliResult(code, buf.getvalue())


def cli_op(argv: list[str], check: Callable[[str], None]) -> Op:
    def check_exit(result: CliResult) -> None:
        require(result.code == 0, f"exit {result.code}")
        check(result.stdout)
    return Op("cli " + " ".join(argv), lambda: run_cli(argv), check_exit)


def build_ops(spec: dict, workdir: str) -> list[Op]:
    return {"butterfly_io": _butterfly_ops, "approximants": _approximant_ops,
            "exact": _exact_ops, "landau": _landau_ops,
            "control": _control_ops}[spec["workload"]](spec, workdir)


def _expected_rows(q_max: int, k_grid: int) -> tuple[int, int]:
    fluxes = reduced_fluxes(q_max)
    return sum(q for _nu, q in fluxes) * k_grid * k_grid, len(fluxes)


def _closed_forms(k_grid: int) -> dict[tuple[int, int], np.ndarray]:
    ks = 2 * np.pi * np.arange(k_grid) / k_grid
    c1, c2 = np.meshgrid(np.cos(ks), np.cos(ks), indexing="ij")
    mag = 2 * np.sqrt(c1**2 + c2**2).ravel()
    return {(0, 1): np.sort((2 * c1 + 2 * c2).ravel()),
            (1, 2): np.sort(np.concatenate([-mag, mag]))}


def _check_dataset(ds, q_max: int, k_grid: int) -> None:
    rows, n_flux = _expected_rows(q_max, k_grid)
    got = sum(samples.size for _nu, _q, samples in ds.entries)
    require(got == rows, f"{got} rows, expected {rows}")
    require(len(ds.entries) == n_flux, f"{len(ds.entries)} fluxes, expected {n_flux}")
    for nu, q, samples in ds.entries:
        require(samples.size == q * k_grid * k_grid, f"flux {nu}/{q}: {samples.size} samples")
        require(float(np.max(np.abs(samples))) <= 4 + NORM_BOUND_TOL, f"flux {nu}/{q}: |E| > 4")
    table = {(nu, q): s for nu, q, s in ds.entries}
    for key, oracle in _closed_forms(k_grid).items():
        if key in table:
            dev = float(np.max(np.abs(table[key] - oracle)))
            require(dev <= SPECTRUM_TOL, f"flux {key[0]}/{key[1]}: closed form off by {dev:.3e}")


_SYMMETRY_RE = re.compile(r"flux reflection deviation (\S+), energy negation deviation (\S+)")
_WROTE_RE = re.compile(r"wrote (\d+) rows for (\d+) flux values")


def _butterfly_ops(spec: dict, workdir: str) -> list[Op]:
    q_max, k_grid = spec["q_max"], spec["k_grid"]
    jq, jk = spec["json_q_max"], spec["json_k_grid"]
    big_csv = os.path.join(workdir, "butterfly.csv")
    small_csv = os.path.join(workdir, "small.csv")
    small_json = os.path.join(workdir, "small.json")
    state: dict[str, Any] = {}

    def check_cli(out: str) -> None:
        sym = _SYMMETRY_RE.search(out)
        require(sym is not None, "no symmetry line")
        require(max(float(sym.group(1)), float(sym.group(2))) <= SPECTRUM_TOL,
                f"symmetry deviation {sym.group(1)}, {sym.group(2)}")
        wrote = _WROTE_RE.search(out)
        require(wrote is not None, "no rows line")
        require((int(wrote.group(1)), int(wrote.group(2))) == _expected_rows(q_max, k_grid),
                f"wrote {wrote.group(1)} rows for {wrote.group(2)} fluxes")

    def solve_small():
        state["ds"] = fl.butterfly(jq, jk)
        return state["ds"]

    def same_as_memory(ds) -> None:
        require(ds == state["ds"], "round trip differs from the in-memory dataset")

    return [
        cli_op(["butterfly", "--q-max", str(q_max), "--k-grid", str(k_grid),
                "--check", "--out", big_csv], check_cli),
        Op("ButterflyDataset.from_csv",
           lambda: fl.ButterflyDataset.from_csv(big_csv, q_max, k_grid),
           lambda ds: _check_dataset(ds, q_max, k_grid)),
        Op("butterfly", solve_small, lambda ds: _check_dataset(ds, jq, jk)),
        Op("ButterflyDataset.to_json", lambda: state["ds"].to_json(small_json),
           lambda _: require(os.path.getsize(small_json) > 0, "empty JSON")),
        Op("ButterflyDataset.from_json", lambda: fl.ButterflyDataset.from_json(small_json),
           same_as_memory),
        Op("ButterflyDataset.to_csv", lambda: state["ds"].to_csv(small_csv),
           lambda _: require(os.path.getsize(small_csv) > 0, "empty CSV")),
        Op("ButterflyDataset.from_csv",
           lambda: fl.ButterflyDataset.from_csv(small_csv, jq, jk), same_as_memory),
    ]


def _hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    """Hausdorff distance of two sorted sample sets, by nearest neighbours
    found with np.interp on the sorted order."""
    def directed(x, y):
        idx = np.interp(x, y, np.arange(y.size))
        lo = np.floor(idx).astype(int)
        hi = np.minimum(lo + 1, y.size - 1)
        return float(np.max(np.minimum(np.abs(x - y[lo]), np.abs(x - y[hi]))))
    return max(directed(a, b), directed(b, a))


def _check_band_counts(convergents: list[Fraction], band_counts: list[int]) -> None:
    """Harper at flux p/q has q bands; for even q the two central ones touch
    at E = 0, where grid samples may overlap and merge them."""
    for conv, count in zip(convergents, band_counts):
        q = conv.denominator
        require(count == q or (q % 2 == 0 and count == q - 1),
                f"convergent {conv}: {count} bands")


def _approximant_ops(spec: dict, workdir: str) -> list[Op]:
    ops = []
    for flux, depth, k_grid in spec["cli"]:
        expected = convergents_of(named_value(flux), depth)
        pinned = PINNED_APPROXIMANTS[f"{flux} {depth} {k_grid}"]

        def check(out, expected=expected, pinned=pinned):
            doc = json.loads(out)
            got = [Fraction(n, d) for n, d in doc["convergents"]]
            require(got == expected, f"convergents {got}")
            bands = [len(s["bands"]) for s in doc["spectra"]]
            require(bands == pinned["bands"], f"band counts {bands}")
            dist = doc["hausdorff_distances"]
            require(len(dist) == len(pinned["distances"]) and all(
                abs(x - y) <= SPECTRUM_TOL for x, y in zip(dist, pinned["distances"])),
                f"Hausdorff distances {dist}")
        ops.append(cli_op(["spectrum", "--flux", flux, "--depth", str(depth),
                           "--k-grid", str(k_grid), "--format", "json"], check))

    text, depth, k_grid = spec["decimal"]

    def check_decimal(seq) -> None:
        expected = convergents_of(float(text), depth)
        require(list(seq.convergents) == expected, f"convergents {seq.convergents}")
        _check_band_counts(expected, [len(s.bands) for s in seq.spectra])
        for conv, est in zip(expected, seq.spectra):
            require(est.samples.size == conv.denominator * k_grid * k_grid,
                    f"convergent {conv}: {est.samples.size} samples")
            require(float(np.max(np.abs(est.samples))) <= 4 + NORM_BOUND_TOL,
                    f"convergent {conv}: |E| > 4")
        for i, dist in enumerate(seq.distances):
            ref = _hausdorff(seq.spectra[i].samples, seq.spectra[i + 1].samples)
            require(abs(dist - ref) <= SPECTRUM_TOL, f"Hausdorff {dist} vs {ref}")

    ops.append(Op(f"approximant_spectra {text} {depth} {k_grid}",
                  lambda: fl.approximant_spectra(fl.Flux.parse(text), depth, k_grid),
                  check_decimal))
    return ops


_RELATION_RE = re.compile(r"^RELATION \S+: (PASS|FAIL)", re.M)


def _all_relations_pass(count: int) -> Callable[[str], None]:
    def check(out: str) -> None:
        status = _RELATION_RE.findall(out)
        require(len(status) == count and set(status) == {"PASS"},
                f"relations {status}, expected {count} PASS")
    return check


def _basis_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _exact_ops(spec: dict, workdir: str) -> list[Op]:
    max_exp, max_j = spec["max_exp"], spec["max_j"]
    fluxes = {text: fl.Flux.parse(text) for text in spec["fluxes"]}
    pinned_sha = PINNED_BASIS_SHA256[max_j]
    ops = []

    def check_scan(rep) -> None:
        require(rep.passed, f"{len(rep.violations)} commutant violations")
        words = (2 * max_exp + 1) ** 2
        require(len(rep.commutant_exponents) == words,
                f"{len(rep.commutant_exponents)} commutant words, expected {words}")

    for text in ("golden", "sqrt2"):
        ops.append(Op(f"commutant_monomial_check {text} {max_exp}",
                      lambda f=fluxes[text]: fl.commutant_monomial_check(f, max_exp),
                      check_scan))

    def check_basis(basis) -> None:
        digest = _basis_digest("\n".join(str(el) for el in basis))
        require(digest == pinned_sha, f"basis digest {digest}")

    def check_report(rep) -> None:
        require(rep.all_pass and len(rep.checks) == 11,
                f"{sum(not c.holds for c in rep.checks)} of {len(rep.checks)} relations fail")

    for i, (text, flux) in enumerate(fluxes.items()):
        ops.append(Op(f"derive_invariant_basis {max_j} {text}",
                      lambda f=flux: fl.derive_invariant_basis(max_j, f), check_basis))
        for gauge in spec["gauges"]:
            ops.append(Op(f"verify_relations {text} gauge {gauge}",
                          lambda f=flux, g=gauge: fl.verify_relations(
                              fl.build_wavefunction(f, g)),
                          check_report))
        prefix = f"almost_heisenberg, Φ ≈ {named_value(text) % 1.0:.10f}"
        ops.append(cli_op(["classify", "--flux", text],
                          lambda out, p=prefix: require(out.strip() == p, out.strip())))
        ops.append(cli_op(["verify", "--flux", text, "--gauge", str(spec["cli_gauge"][i])],
                          _all_relations_pass(11)))
        ops.append(cli_op(["gauge-check", "--flux", text,
                           "--phi-units", str(spec["phi_units"][i])],
                          _all_relations_pass(4)))
        ops.append(cli_op(["invariant", "--flux", text, "--max-j", str(max_j)],
                          lambda out: require(_basis_digest(out.rstrip("\n")) == pinned_sha,
                                              "invariant rendering digest differs")))

    torus_flux, length = spec["torus"]
    flux = fl.Flux.parse(torus_flux)
    window = ((0, length - 1), (0, length - 1))

    def truncate_pair():
        rep = fl.build_wavefunction(flux)
        return [fl.truncate(op, window, "periodic", flux).matrix for op in (rep.q1, rep.q2)]

    def check_torus(mats) -> None:
        eye = np.eye(length * length)
        for m in mats:
            require(np.max(np.abs(m @ m.conj().T - eye)) <= SPECTRUM_TOL, "not unitary")
        q1, q2 = mats
        comm = q1 @ q2 @ q1.conj().T @ q2.conj().T
        dev = float(np.max(np.abs(comm - np.exp(-2j * np.pi * flux.value) * eye)))
        require(dev <= SPECTRUM_TOL, f"q1 q2 q1^-1 q2^-1 = e^(-i th) off by {dev:.3e}")

    ops.append(Op(f"truncate periodic {torus_flux} {length}x{length}", truncate_pair,
                  check_torus))
    return ops


def _landau_ops(spec: dict, workdir: str) -> list[Op]:
    n_max, levels = spec["n_max"], spec["levels"]
    state: dict[str, Any] = {}
    ops = []
    for r, m in spec["pairs"]:
        def check(out, r=r, m=m) -> None:
            doc = json.loads(out)
            require(doc["all_pass"] and all(rel["holds"] for rel in doc["relations"]),
                    "a relation fails")
            n = np.arange(1, min(4, n_max // 2) + 1)
            dev = np.max(np.abs(np.array(doc["lowest_levels"]) - abs(r) / m * (n - 0.5)))
            require(dev <= LANDAU_LEVEL_TOL, f"levels off by {dev:.3e}")
        ops.append(cli_op(["landau", f"--r={r}", f"--m={m}", "--n-max", str(n_max),
                           "--format", "json"], check))

    r, m = spec["pairs"][0]

    def build():
        state["ops"] = fl.build_landau(r, m, n_max)
        return state["ops"]

    ops.append(Op(f"build_landau {r} {m} {n_max}", build,
                  lambda o: require(o.ham.shape == (n_max**2, n_max**2), "wrong dimension")))
    ops.append(Op(f"level_degeneracies {levels}",
                  lambda: fl.level_degeneracies(state["ops"], levels),
                  lambda d: require(d == [n_max] * levels, f"degeneracies {d}")))
    return ops


def _control_ops(spec: dict, workdir: str) -> list[Op]:
    """Negative control: a verify whose representation is deliberately
    corrupted, checked like any verify in the exact workload.  It must be
    counted as a failure."""
    return [cli_op(CONTROL_ARGV, _all_relations_pass(11))]


CONTROL_ARGV = ["verify", "--flux", "golden", "--corrupt"]
CONTROL_SPEC = {"workload": "control"}
