"""End-to-end command-line behaviour: output, formats, exit codes."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import fluxlattice
from fluxlattice import spectral
from fluxlattice.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv, module="fluxlattice"):
    """`python -m module argv...` in a fresh process that imports this
    checkout's package."""
    src = str(Path(fluxlattice.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", module, *argv],
                          capture_output=True, text=True, env=env, timeout=120)


class TestClassify:
    def test_golden(self, capsys):
        code, out, _ = run(capsys, "classify", "--flux", "golden")
        assert code == 0
        assert "almost_heisenberg" in out
        assert "0.6180339887" in out

    def test_reduction(self, capsys):
        code, out, _ = run(capsys, "classify", "--flux", "3/6")
        assert code == 0
        assert "rational_with_kernel(2)" in out
        assert "1/2" in out

    def test_mod_one(self, capsys):
        code, out, _ = run(capsys, "classify", "--flux", "7/3")
        assert code == 0
        assert "1/3" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "classify", "--flux", "1/3", "--format", "json")
        doc = json.loads(out)
        assert doc["kind"] == "rational_with_kernel"
        assert doc["kernel"] == 3
        assert doc["phi"] == [1, 3]

    def test_bad_flux_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["classify", "--flux", "euler"])
        assert err.value.code == 2


class TestVerify:
    def test_passes_at_golden(self, capsys):
        code, out, _ = run(capsys, "verify", "--flux", "golden")
        assert code == 0
        assert "FAIL" not in out

    def test_passes_at_rational_and_gauge(self, capsys):
        code, out, _ = run(capsys, "verify", "--flux", "1/5", "--gauge", "3")
        assert code == 0

    def test_corrupt_negative_control(self, capsys):
        code, out, _ = run(capsys, "verify", "--flux", "golden", "--corrupt")
        assert code == 1
        assert "FAIL" in out

    def test_json_mirror(self, capsys):
        code, out, _ = run(capsys, "verify", "--flux", "golden", "--format", "json")
        doc = json.loads(out)
        assert doc["all_pass"] is True
        assert {"relation", "holds", "witness_site"} == set(doc["relations"][0])


class TestInvariant:
    def test_harper_printed(self, capsys):
        code, out, _ = run(capsys, "invariant", "--flux", "golden", "--max-j", "1")
        assert code == 0
        assert "q1^1" in out and "q1^-1" in out and "q2^1" in out

    def test_scalar_only(self, capsys):
        code, out, _ = run(capsys, "invariant", "--flux", "golden", "--max-j", "0")
        assert code == 0
        assert out.strip() == "(1+0i)·p1^0 p2^0 q1^0 q2^0"

    def test_rational_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["invariant", "--flux", "1/3", "--max-j", "1"])
        code, err = exc.value.code, capsys.readouterr().err
        assert code == 2
        assert "irrational" in err


class TestSpectrumCommand:
    def test_rational(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--flux", "1/2", "--k-grid", "40")
        assert code == 0
        assert "band" in out

    def test_irrational_approximants(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--flux", "golden",
                           "--k-grid", "8", "--depth", "3")
        assert code == 0
        assert "convergent" in out and "hausdorff" in out


class TestButterfly:
    def test_writes_deterministic_csv(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        code1, _, _ = run(capsys, "butterfly", "--q-max", "5", "--k-grid", "6",
                          "--out", str(a))
        code2, _, _ = run(capsys, "butterfly", "--q-max", "5", "--k-grid", "6",
                          "--out", str(b))
        assert code1 == code2 == 0
        assert a.read_bytes() == b.read_bytes()

    def test_check_passes(self, capsys):
        code, out, _ = run(capsys, "butterfly", "--q-max", "6", "--k-grid", "8",
                           "--check")
        assert code == 0
        assert "symmetry check" in out

    def test_json_output(self, capsys, tmp_path):
        path = tmp_path / "b.json"
        code, _, _ = run(capsys, "butterfly", "--q-max", "4", "--k-grid", "6",
                         "--format", "json", "--out", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["q_max"] == 4
        assert doc["points"][0].keys() == {"phi", "E"}


    def test_oversized_sweep_refused_before_writing(self, capsys, tmp_path):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as err:
            main(["butterfly", "--q-max", "100000", "--k-grid", "20", "--out", str(out)])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "allocation budget" in errors[0]
        assert "Traceback" not in captured.err
        assert not out.exists()


class TestLandau:
    def test_defaults_pass(self, capsys):
        code, out, _ = run(capsys, "landau", "--n-max", "16")
        assert code == 0
        assert "FAIL" not in out
        assert "lowest levels" in out

    def test_tiny_truncation_warns(self, capsys):
        code, _, err = run(capsys, "landau", "--n-max", "4")
        assert "warning" in err and "truncation" in err

    def test_zero_field_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["landau", "--r", "0"])
        assert err.value.code == 2

    @pytest.mark.parametrize("argv,message", [
        (["--m", "0"], "mass must be positive"),
        (["--m=-1"], "mass must be positive"),
        (["--r", "0"], "r must be nonzero"),
        (["--n-max", "3"], "n_max must be at least 4"),
    ])
    def test_invalid_parameters_are_usage_errors(self, capsys, argv, message):
        with pytest.raises(SystemExit) as err:
            main(["landau", *argv])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and errors[0].endswith(message)
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv,name", [
        (["--r", "1e300"], "bracket_p1_p2"),
        (["--m", "1e-300"], "lorentz_q1"),
    ])
    def test_overflowing_checks_are_usage_errors(self, argv, name):
        # finite parameters whose residuals leave the float range: no numpy
        # warning and no FAIL line, only one error line
        proc = run_module("landau", *argv, "--n-max", "8", module="fluxlattice.cli")
        assert proc.returncode == 2 and proc.stdout == ""
        [error] = proc.stderr.splitlines()
        assert error.startswith("fluxlattice: error: invalid parameters")
        assert error.endswith(f"overflow the float range of {name}")

    def test_unit_parameters_still_pass(self):
        proc = run_module("landau", "--r", "1", "--m", "1", "--n-max", "8",
                          module="fluxlattice.cli")
        assert proc.returncode == 0 and proc.stderr == ""
        assert "FAIL" not in proc.stdout and "lowest levels" in proc.stdout


class TestGaugeCheck:
    def test_zero_units(self, capsys):
        code, out, _ = run(capsys, "gauge-check", "--flux", "golden",
                           "--phi-units", "0")
        assert code == 0

    def test_three_units(self, capsys):
        code, out, _ = run(capsys, "gauge-check", "--flux", "golden",
                           "--phi-units", "3")
        assert code == 0
        assert "FAIL" not in out
        # report names the intertwiner phase form
        assert "m1" in out and "m2" in out and "φ" in out

    def test_json_names_phase(self, capsys):
        code, out, _ = run(capsys, "gauge-check", "--flux", "1/5",
                           "--phi-units", "2", "--format", "json")
        doc = json.loads(out)
        assert doc["intertwiner_phase"] == "-2*phi*m1*m2"
        assert doc["all_pass"] is True


# Passing variants of every command; each gets an unwritable --out below.
_EVERY_COMMAND = [
    ["classify", "--flux", "golden"],
    ["verify", "--flux", "golden"],
    ["invariant", "--flux", "golden"],
    ["spectrum", "--flux", "1/3", "--k-grid", "4"],
    ["butterfly", "--q-max", "2", "--k-grid", "4", "--check"],
    ["landau", "--n-max", "8"],
    ["gauge-check", "--flux", "golden"],
]
_MISSING = "{missing}"

# (argv, allocation budget in bytes or None for the default)
INVALID_INPUTS = [
    (["butterfly", "--k-grid", "2"], None),
    (["butterfly", "--q-max", "0"], None),
    (["invariant", "--flux", "golden", "--max-j", "-1"], None),
    (["invariant", "--flux", "golden", "--max-j", "100000"], None),
    (["spectrum", "--flux", "0.5", "--depth", "5"], None),
    (["spectrum", "--flux", "golden", "--depth", "0"], None),
    (["spectrum", "--flux", "golden", "--depth", "40"], None),
    (["classify", "--flux", "0.0"], None),
    (["classify", "--flux", "1"], None),
    (["classify", "--flux", "3.0"], None),
    (["classify", "--flux", "1" * 400], None),
    (["spectrum", "--flux", "1/3", "--k-grid", "8"], 1024),
    (["spectrum", "--flux", "golden", "--depth", "4", "--k-grid", "8"], 1024),
    (["landau", "--n-max", "8"], 1024),
    (["landau", "--r", "1", "--m", "1e-320"], None),
    (["landau", "--r", "1e308", "--m", "1e-308"], None),
    (["landau", "--r", "1e-320"], None),
] + [(argv + ["--out", _MISSING], None) for argv in _EVERY_COMMAND]


@pytest.mark.parametrize("argv,budget", INVALID_INPUTS,
                         ids=[" ".join(argv) for argv, _ in INVALID_INPUTS])
def test_invalid_input_exits_2_with_one_error_line(capsys, monkeypatch, tmp_path,
                                                    argv, budget):
    if budget is not None:
        monkeypatch.setattr(spectral, "ALLOCATION_BUDGET_BYTES", budget)
    missing = str(tmp_path / "no-such-dir" / "x")
    with pytest.raises(SystemExit) as err:
        main([missing if a == _MISSING else a for a in argv])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("fluxlattice: error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("option,name", [("--r", "r"), ("--m", "mass")])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_landau_parameter_named(capsys, option, name, value):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SystemExit) as err:
            main(["landau", f"{option}={value}", "--n-max", "8"])
    assert err.value.code == 2
    assert not caught
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and f"{name} must be finite" in errors[0]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv,code", [
    (["classify", "--flux", "golden"], 0),
    (["verify", "--flux", "golden", "--corrupt"], 1),
    (["butterfly", "--k-grid", "2"], 2),
])
def test_process_exit_codes(argv, code):
    proc = run_module(*argv, module="fluxlattice.cli")
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [["classify", "--flux", "golden"],
                                  ["verify", "--flux", "golden", "--corrupt"]])
def test_package_runs_as_a_module(capsys, argv):
    code, out, _ = run(capsys, *argv)
    proc = run_module(*argv)
    assert (proc.returncode, proc.stdout) == (code, out)
