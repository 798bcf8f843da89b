"""Command-line interface.

Every command is deterministic for a given argument set and exits 0 when all
of its checks pass, 1 when a check fails or its stdout pipe is closed, and 2
on invalid input: `main` turns any other ValueError or OSError into one
`fluxlattice: error: ...` line on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
from collections.abc import Iterable

from . import landau as landau_mod
from . import operators as ops_mod
from . import spectral as spectral_mod
from .algebra import derive_invariant_basis
from .phases import Flux, classify
from .reporting import RelationReport


def _emit(payload: dict, text: str, fmt: str, out_path: str | None) -> None:
    _write_lines([json.dumps(payload, indent=2) if fmt == "json" else text], out_path)


def _write_lines(lines: Iterable[str], out_path: str | None) -> None:
    """Each line and a newline, to out_path or stdout, one line at a time:
    the bytes of printing the lines' join, as every caller writes a line."""
    with open(out_path, "w") if out_path else contextlib.nullcontext(sys.stdout) as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")  # as print does, without a copy of the line


def cmd_classify(args) -> int:
    flux = Flux.parse(args.flux)
    cls = classify(flux)
    if flux.is_rational:
        phi_text = f"Φ = {flux}"
        phi_json = [flux.numerator, flux.denominator]
    else:
        phi_text = f"Φ ≈ {flux.value:.10f}"
        phi_json = flux.value
    payload = {"classification": str(cls), "kind": cls.kind,
               "kernel": cls.kernel, "phi": phi_json}
    _emit(payload, f"{cls}, {phi_text}", args.format, args.out)
    return 0


def cmd_verify(args) -> int:
    flux = Flux.parse(args.flux)
    rep = ops_mod.build_wavefunction(flux, args.gauge)
    if args.corrupt:
        # negative control: taint p1 with an extra site-dependent e^{i*th*m2/2}
        taint = ops_mod.BasisMapOperator(
            ops_mod.SiteMap.identity(2),
            ops_mod.PhaseForm(ops_mod.IntForm(0, (0, 1)), 0, ops_mod.IntForm.zero(2)))
        rep = dataclasses.replace(rep, p1=rep.p1 @ taint)
    report = ops_mod.verify_relations(rep)
    payload = {"flux": str(flux), "gauge_units": args.gauge,
               "all_pass": report.all_pass, "relations": report.to_json_dict()}
    _emit(payload, report.to_text(), args.format, args.out)
    return 0 if report.all_pass else 1


def cmd_invariant(args) -> int:
    flux = Flux.parse(args.flux)
    basis = derive_invariant_basis(args.max_j, flux)
    if args.format == "json":
        payload = {"flux": str(flux), "max_j": args.max_j, "basis": [str(el) for el in basis]}
        _emit(payload, "", args.format, args.out)
    else:
        _write_lines(map(str, basis), args.out)  # one element's line held at a time
    return 0


def cmd_spectrum(args) -> int:
    flux = Flux.parse(args.flux)
    if flux.is_rational:
        est = spectral_mod.spectrum(flux, args.k_grid)
        band_text = "\n".join(f"band [{lo:.9f}, {hi:.9f}]" for lo, hi in est.bands)
        _emit(est.to_json_dict(), f"Φ = {flux}\n{band_text}", args.format, args.out)
        return 0
    seq = spectral_mod.approximant_spectra(flux, args.depth, args.k_grid)
    lines = [f"Φ ≈ {flux.value:.10f}, depth {args.depth}"]
    for i, (conv, est) in enumerate(zip(seq.convergents, seq.spectra)):
        dist = f", hausdorff to previous {seq.distances[i - 1]:.6f}" if i else ""
        lines.append(f"convergent {conv}: {len(est.bands)} bands{dist}")
    payload = {
        "phi": flux.value,
        "depth": args.depth,
        "k_grid": args.k_grid,
        "convergents": [[c.numerator, c.denominator] for c in seq.convergents],
        "hausdorff_distances": seq.distances,
        "spectra": [est.to_json_dict() for est in seq.spectra],
    }
    _emit(payload, "\n".join(lines), args.format, args.out)
    return 0


def cmd_butterfly(args) -> int:
    dataset = spectral_mod.butterfly(args.q_max, args.k_grid)
    # write before printing anything, so an unwritable --out leaves stdout empty
    if args.out:
        if args.format == "json":
            dataset.to_json(args.out)
        else:
            dataset.to_csv(args.out)
        summary = (f"wrote {dataset.n_rows()} rows for {len(dataset.entries)} flux "
                   f"values to {args.out}")
    else:
        summary = (f"{dataset.n_rows()} rows for {len(dataset.entries)} flux values "
                   f"(q_max={args.q_max}, k_grid={args.k_grid}); use --out to save")
    status = 0
    if args.check:
        report = dataset.symmetry_report()
        flux, energy = report.checks
        print(f"symmetry check: flux reflection deviation {flux.value:.3e}, "
              f"energy negation deviation {energy.value:.3e}")
        status = 0 if report.all_pass else 1
    print(summary)
    return status


def cmd_landau(args) -> int:
    # the text prints levels (|r|/m)(n - 1/2) to 1e-8; a spacing of ten such
    # units keeps the four printed levels distinct and nonzero.  r = 0 and an
    # m that is not positive and finite are left to build_landau's messages.
    if 0 < args.m < math.inf and 0 < abs(args.r) < 1e-7 * args.m:
        raise ValueError(f"invalid parameters: r={args.r} and m={args.m} give a level "
                         f"spacing |r|/m below 1e-07, too fine for the printed levels")
    ops = landau_mod.build_landau(args.r, args.m, args.n_max)
    if args.n_max < 8:
        print(f"warning: n_max={args.n_max} leaves almost no interior block; "
              f"expect truncation artifacts", file=sys.stderr)
    report = RelationReport(landau_mod.bracket_report(ops).checks
                            + landau_mod.lorentz_check(ops).checks)
    n_levels = min(4, ops.n_max // 2)
    levels = landau_mod.hamiltonian_spectrum(ops, n_levels)
    payload = {
        "r": args.r, "m": args.m, "n_max": args.n_max,
        "all_pass": report.all_pass,
        "relations": report.to_json_dict(),
        "lowest_levels": [float(v) for v in levels],
    }
    text = (report.to_text() + "\n"
            + "lowest levels: " + ", ".join(f"{v:.8f}" for v in levels))
    _emit(payload, text, args.format, args.out)
    return 0 if report.all_pass else 1


def cmd_gauge_check(args) -> int:
    flux = Flux.parse(args.flux)
    u = args.phi_units
    report = ops_mod.gauge_report(flux, u)
    s = ops_mod.gauge_intertwiner(u)
    zeta = ops_mod.build_wavefunction(flux).zeta
    rotation_commutes = (s @ zeta).equals(zeta @ s, flux)
    # -i·u·φ·m1·m2 with the sign of u folded in
    sign, units = ("-", u) if u >= 0 else ("", -u)
    header = (f"intertwiner S = diag(e^{{{sign}i·{units}·φ·m1·m2}}), "
              f"gauge units {u}")
    note = (f"S commutes with the rotation: {rotation_commutes} "
             f"(expected only at gauge 0)")
    payload = {"flux": str(flux), "phi_units": u,
               "intertwiner_phase": f"{sign}{units}*phi*m1*m2",
               "all_pass": report.all_pass,
               "rotation_commutes": rotation_commutes,
               "relations": report.to_json_dict()}
    _emit(payload, header + "\n" + report.to_text() + "\n" + note,
          args.format, args.out)
    return 0 if report.all_pass else 1


class _Parser(argparse.ArgumentParser):
    """Raises what it cannot read, for `main` to report on its one error
    line; subparsers are built from the same class."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fluxlattice",
        description="Exact magnetic-translation phase algebra and Harper spectra",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", default=None, help="write output to this path")

    p = sub.add_parser("classify", help="classify the extension type of a flux")
    p.add_argument("--flux", required=True)
    add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="check the group relations symbolically")
    p.add_argument("--flux", required=True)
    p.add_argument("--gauge", type=int, default=0, help="gauge units")
    p.add_argument("--corrupt", action="store_true",
                   help="inject a phase error as a negative control")
    add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("invariant", help="derive the invariant Hamiltonian family")
    p.add_argument("--flux", required=True)
    p.add_argument("--max-j", type=int, default=1, dest="max_j")
    add_common(p)
    p.set_defaults(func=cmd_invariant)

    p = sub.add_parser("spectrum", help="Harper spectrum (rational flux) or "
                                        "approximant sequence (irrational)")
    p.add_argument("--flux", required=True)
    p.add_argument("--k-grid", type=int, default=40, dest="k_grid")
    p.add_argument("--depth", type=int, default=5,
                   help="number of convergents for irrational flux")
    add_common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("butterfly", help="spectra for all fluxes with q <= q_max")
    p.add_argument("--q-max", type=int, default=10, dest="q_max")
    p.add_argument("--k-grid", type=int, default=10, dest="k_grid")
    p.add_argument("--check", action="store_true",
                   help="verify the dataset symmetries, exit nonzero on violation")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_butterfly)

    p = sub.add_parser("landau", help="continuum checks on truncated modes")
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--m", type=float, default=1.0)
    p.add_argument("--n-max", type=int, default=30, dest="n_max")
    add_common(p)
    p.set_defaults(func=cmd_landau)

    p = sub.add_parser("gauge-check", help="verify the gauge intertwiner")
    p.add_argument("--flux", required=True)
    p.add_argument("--phi-units", type=int, default=1, dest="phi_units")
    add_common(p)
    p.set_defaults(func=cmd_gauge_check)

    return parser


PARSER = build_parser()  # built once per process; every main call parses with it


def main(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return status
    except BrokenPipeError:
        # the reader went away: devnull takes what is left, so the exit
        # flush cannot raise again; an unfinished write is not bad input
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        PARSER.exit(2, f"{PARSER.prog}: error: {exc}\n")
