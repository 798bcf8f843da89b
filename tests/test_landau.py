"""Truncated-oscillator checks of the continuum theory."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from fluxlattice import landau, reporting
from fluxlattice.cli import main
from fluxlattice.landau import (
    BRACKET_TOLERANCE,
    LORENTZ_TOLERANCE,
    bracket_report,
    build_landau,
    hamiltonian_spectrum,
    level_degeneracies,
    lorentz_check,
)


def interior_residual(n_max, mat):
    """Norm of mat on the block where both mode indices are <= n_max - 2."""
    keep = np.arange(n_max) <= n_max - 2
    mask = np.kron(keep, keep).astype(bool)
    return float(np.linalg.norm(mat[np.ix_(mask, mask)]))


class TestBuild:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError, match="nonzero"):
            build_landau(0.0, 1.0, 10)
        with pytest.raises(ValueError, match="positive"):
            build_landau(1.0, -1.0, 10)
        with pytest.raises(ValueError, match="n_max"):
            build_landau(1.0, 1.0, 3)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_parameters_named(self, value):
        with pytest.raises(ValueError, match="r must be finite"):
            build_landau(value, 1.0, 10)
        with pytest.raises(ValueError, match="mass must be finite"):
            build_landau(1.0, value, 10)

    def test_allocation_budget_covers_the_three_factors(self, monkeypatch):
        # the four stored factors and four transients, each n_max^2 complex
        monkeypatch.setattr(reporting, "ALLOCATION_BUDGET_BYTES", 8 * 10 * 10 * 16)
        assert build_landau(1.0, 1.0, 10).x.shape == (10, 10)
        with pytest.raises(ValueError, match="allocation budget"):
            build_landau(1.0, 1.0, 11)

    def test_allocation_budget_covers_full_space_reads(self, monkeypatch):
        monkeypatch.setattr(reporting, "ALLOCATION_BUDGET_BYTES", 10**4 * 16 - 1)
        ops = build_landau(1.0, 1.0, 10)
        assert bracket_report(ops).all_pass
        with pytest.raises(ValueError, match="allocation budget"):
            ops.ham
        monkeypatch.setattr(reporting, "ALLOCATION_BUDGET_BYTES", 10**4 * 16)
        assert np.array_equal(ops.ham, np.kron(np.eye(10), ops.ham_mode))

    @pytest.mark.parametrize("n_max", [100, 300])
    def test_figure_bounds_the_peak(self, monkeypatch, n_max):
        # everything a landau command holds: the build, both reports and the
        # lowest levels; at n_max 128 and below numpy does not reuse the
        # buffer of a temporary, so the peak is about one matrix higher there
        figures = []
        require = landau.require_allocation
        monkeypatch.setattr(landau, "require_allocation",
                            lambda nbytes, what: figures.append(nbytes) or require(nbytes, what))
        tracemalloc.start()
        try:
            ops = build_landau(1.0, 1.0, n_max)
            bracket_report(ops)
            lorentz_check(ops)
            hamiltonian_spectrum(ops, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(figures) == 1
        assert peak <= figures[0] <= 3 * peak

    def test_build_frees_the_ladder_before_the_mode_products(self):
        # x, y, ham_mode and ang_mode, with one transient at a time; the
        # ladder outliving x and y would make it six
        n_max = 300
        tracemalloc.start()
        try:
            build_landau(1.0, 1.0, n_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.5 * 16 * n_max**2

    def test_a_command_builds_ang_mode_once(self, monkeypatch):
        # the build's finiteness check reads S first; the two reports reuse it
        # and make one commutator per distinct residual
        builds, comms = [], []
        prop = vars(landau.LandauOperators)["ang_mode"]
        ang_mode, comm = prop.func, landau._comm
        monkeypatch.setattr(prop, "func", lambda ops: builds.append(ops) or ang_mode(ops))
        monkeypatch.setattr(landau, "_comm", lambda a, b: comms.append(a) or comm(a, b))
        ops = build_landau(1.0, 1.0, 12)
        assert builds == [ops]
        bracket_report(ops)
        lorentz_check(ops)
        assert builds == [ops]
        assert len(comms) == 6
        # a replaced operator set carries no cached S
        flipped = dataclasses.replace(ops, r=-ops.r)
        assert np.array_equal(flipped.ang_mode, -ops.ang_mode)
        assert builds == [ops, flipped]

    def test_hamiltonian_is_the_only_full_space_matrix(self):
        ops = build_landau(1.0, 1.0, 8)
        for name in ("p1", "p2", "q1", "q2", "ang", "interior_mask"):
            assert not hasattr(ops, name), name

    def test_hermitian_generators(self):
        ops = build_landau(1.5, 2.0, 12)
        for mat in (ops.x, ops.y, ops.ham_mode, ops.ang_mode, ops.ham):
            assert np.max(np.abs(mat - mat.conj().T)) < 1e-12

    def test_brackets_at_random_parameters(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            r = float(rng.uniform(0.3, 3.0)) * (1 if rng.random() < 0.5 else -1)
            m = float(rng.uniform(0.3, 3.0))
            report = bracket_report(build_landau(r, m, 16))
            assert report.all_pass, report.to_text()

    def test_sign_flip_swaps_commutators(self):
        # [P1,P2] - ir and [Q1,Q2] + ir vanish for either sign of r
        for r in (1.0, -1.0):
            op = direct_operators(r, 1.0, 12)
            eye = np.eye(144)
            comm_p = op["p1"] @ op["p2"] - op["p2"] @ op["p1"]
            comm_q = op["q1"] @ op["q2"] - op["q2"] @ op["q1"]
            assert interior_residual(12, comm_p - 1j * r * eye) < BRACKET_TOLERANCE
            assert interior_residual(12, comm_q + 1j * r * eye) < BRACKET_TOLERANCE

    def test_rotation_bracket(self):
        op = direct_operators(1.0, 1.0, 20)
        resid = op["ang"] @ op["p1"] - op["p1"] @ op["ang"] - 1j * op["p2"]
        assert interior_residual(20, resid) < BRACKET_TOLERANCE

    def test_determined_scalar(self):
        # L + (P1^2+P2^2)/2r = I⊗S, and S is the scalar sign(r)/2 on the
        # lowest level of the velocity mode
        for r, scalar in ((1.0, 0.5), (-2.0, -0.5)):
            ops = build_landau(r, 1.0, 8)
            lowest = np.linalg.eigh(ops.ham_mode)[1][:, 0]
            assert np.allclose(ops.ang_mode @ lowest, scalar * lowest)


class TestSpectrum:
    def test_half_integer_ladder(self):
        ops = build_landau(1.0, 1.0, 30)
        levels = hamiltonian_spectrum(ops, 8)
        assert np.max(np.abs(levels - (np.arange(1, 9) - 0.5))) < 1e-8

    def test_spacing_scales_with_r(self):
        ops = build_landau(2.0, 1.0, 20)
        levels = hamiltonian_spectrum(ops, 6)
        gaps = np.diff(levels)
        assert np.max(np.abs(gaps - 2.0)) < 1e-8

    def test_scaling_across_parameters(self):
        for r, m in ((1.0, 1.0), (2.0, 1.0), (1.0, 2.0)):
            ops = build_landau(r, m, 24)
            levels = hamiltonian_spectrum(ops, 6)
            expected = (r / m) * (np.arange(1, 7) - 0.5)
            assert np.max(np.abs(levels - expected)) < 1e-8

    def test_degeneracy_is_momentum_mode_dimension(self):
        ops = build_landau(1.0, 1.0, 16)
        assert level_degeneracies(ops, 4) == [16, 16, 16, 16]

    def test_degeneracies_solve_once(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a: calls.append(a.shape) or eigvalsh(a))
        assert level_degeneracies(build_landau(1.0, 1.0, 12), 4) == [12] * 4
        assert calls == [(12, 12)]
        with pytest.raises(ValueError, match="truncation"):
            level_degeneracies(build_landau(1.0, 1.0, 12), 7)

    def test_truncation_guard(self):
        ops = build_landau(1.0, 1.0, 10)
        with pytest.raises(ValueError, match="truncation"):
            hamiltonian_spectrum(ops, 6)

    def test_degeneracies_stop_below_the_truncated_top_state(self):
        # at even n_max the top state of the truncated ladder sits exactly on
        # level n_max/2; at odd n_max it falls between two levels
        ops = build_landau(1.0, 1.0, 12)
        assert level_degeneracies(ops, 5) == [12] * 5
        with pytest.raises(ValueError, match="n_max >= 13"):
            level_degeneracies(ops, 6)
        assert len(hamiltonian_spectrum(ops, 6)) == 6
        assert level_degeneracies(build_landau(1.0, 1.0, 9), 4) == [9] * 4

    @pytest.mark.parametrize("count", [hamiltonian_spectrum, level_degeneracies])
    def test_negative_level_count_is_refused(self, count):
        # [:n_levels] would slice from the end and return the wrong levels
        ops = build_landau(1.0, 1.0, 10)
        with pytest.raises(ValueError, match="n_levels"):
            count(ops, -1)
        assert len(count(ops, 0)) == 0


class TestMotion:
    def test_lorentz_residuals(self):
        ops = build_landau(1.0, 1.0, 30)
        report = lorentz_check(ops)
        assert report.all_pass, report.to_text()

    def test_wrong_sign_is_large(self):
        op = direct_operators(1.0, 1.0, 20)
        wrong = 1j * (op["ham"] @ op["q1"] - op["q1"] @ op["ham"]) - op["q2"]
        assert interior_residual(20, wrong) > 1.0  # order r/m, not small

    def test_conservation(self):
        op = direct_operators(0.7, 1.3, 20)
        comm_p = op["ham"] @ op["p1"] - op["p1"] @ op["ham"]
        comm_l = op["ham"] @ op["ang"] - op["ang"] @ op["ham"]
        assert interior_residual(20, comm_p) < LORENTZ_TOLERANCE
        assert interior_residual(20, comm_l) < LORENTZ_TOLERANCE

    def test_report_shape_matches_relation_report(self):
        report = lorentz_check(build_landau(1.0, 1.0, 12))
        text = report.to_text()
        assert all(line.startswith("RELATION ") for line in text.splitlines())
        for entry in report.to_json_dict():
            assert set(entry) == {"relation", "holds", "witness_site"}

    @pytest.mark.parametrize("check,r,m,name", [
        (bracket_report, 1e300, 1.0, "bracket_p1_p2"),
        (lorentz_check, 1.0, 1e-300, "lorentz_q1"),
    ])
    def test_overflowing_residuals_raise(self, check, r, m, name):
        # finite factors whose residuals leave the float range are refused,
        # without a numpy warning, instead of reported as a failed check
        ops = build_landau(r, m, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"overflow the float range of {name}"):
                check(ops)


class TestFieldScale:
    @pytest.mark.parametrize("r", [1e5, -1e5, 1e-12, 1e8])
    def test_correct_operators_pass_at_any_field_strength(self, r):
        # an absolute tolerance failed [P1,P2] = ir at r = 1e5, where the
        # residual is 4.1e-9 of products of size 1e7
        ops = build_landau(r, 1.0, 20)
        assert bracket_report(ops).all_pass, bracket_report(ops).to_text()
        assert lorentz_check(ops).all_pass, lorentz_check(ops).to_text()
        assert level_degeneracies(ops, 4) == [20] * 4

    def test_cli_passes_at_a_strong_field(self, capsys):
        assert main(["landau", "--r=1e5", "--m", "1", "--n-max", "20"]) == 0
        assert "FAIL" not in capsys.readouterr().out


class TestTruncationTrend:
    def test_residuals_stay_below_tolerance_as_truncation_grows(self):
        # every relation on the factors; TestFactorCrossCheck ties them to
        # the assembled space
        for n_max in (10, 20, 40, 80, 160):
            ops = build_landau(1.0, 1.0, n_max)
            assert bracket_report(ops).all_pass, n_max
            assert lorentz_check(ops).all_pass, n_max


def direct_operators(r, m, n_max):
    """The two-mode operators assembled directly on the n_max^2 space."""
    a = np.diag(np.sqrt(np.arange(1, n_max)), 1).astype(complex)
    sgn = 1.0 if r > 0 else -1.0
    scale = np.sqrt(abs(r) / 2.0)
    x = scale * (a + a.conj().T)
    y = scale * 1j * (a.conj().T - a)
    eye = np.eye(n_max)
    p1, p2 = np.kron(x, eye), sgn * np.kron(y, eye)
    q1, q2 = np.kron(eye, x), -sgn * np.kron(eye, y)
    ham = np.kron(eye, (x @ x + (sgn * y) @ (sgn * y)) / (2.0 * m))
    ang = (q1 @ q1 + q2 @ q2 - p1 @ p1 - p2 @ p2) / (2.0 * r)
    return {"p1": p1, "p2": p2, "q1": q1, "q2": q2, "ham": ham, "ang": ang}


def assembled(ops):
    """The full-space matrices of the stored factors, as LandauOperators
    defines them: P1 = x⊗I, P2 = y⊗I, Q1 = I⊗x, Q2 = -I⊗y, H = I⊗ham_mode
    and L = I⊗S - S⊗I with S = (x^2 + y^2)/(2r)."""
    eye = np.eye(ops.n_max)
    s = (ops.x @ ops.x + ops.y @ ops.y) / (2.0 * ops.r)
    return {"p1": np.kron(ops.x, eye), "p2": np.kron(ops.y, eye),
            "q1": np.kron(eye, ops.x), "q2": np.kron(eye, -ops.y),
            "ham": np.kron(eye, ops.ham_mode),
            "ang": np.kron(eye, s) - np.kron(s, eye)}


def full_space_residuals(ops):
    """Every residual the reports give, from the assembled matrices."""
    op = assembled(ops)
    p1, p2, q1, q2, ham, ang = (op[k] for k in ("p1", "p2", "q1", "q2", "ham", "ang"))
    eye = np.eye(ops.n_max**2)
    r, rm = ops.r, ops.r / ops.mass

    def comm(x, y):
        return x @ y - y @ x

    mats = {
        "bracket_p1_p2": comm(p1, p2) - 1j * r * eye,
        "bracket_q1_q2": comm(q1, q2) + 1j * r * eye,
        "bracket_p1_q1": comm(p1, q1),
        "bracket_p1_q2": comm(p1, q2),
        "bracket_p2_q1": comm(p2, q1),
        "bracket_p2_q2": comm(p2, q2),
        "bracket_L_p1": comm(ang, p1) - 1j * p2,
        "bracket_L_p2": comm(ang, p2) + 1j * p1,
        "bracket_L_q1": comm(ang, q1) - 1j * q2,
        "bracket_L_q2": comm(ang, q2) + 1j * q1,
        "angular_momentum_identity": ang - (q1 @ q1 + q2 @ q2
                                            - p1 @ p1 - p2 @ p2) / (2.0 * r),
        "lorentz_q1": 1j * comm(ham, q1) + rm * q2,
        "lorentz_q2": 1j * comm(ham, q2) - rm * q1,
        "conserved_p1": comm(ham, p1),
        "conserved_p2": comm(ham, p2),
        "conserved_angular_momentum": comm(ham, ang),
    }
    return {name: interior_residual(ops.n_max, mat) for name, mat in mats.items()}


def factor_residuals(ops):
    return {c.name: c.value for c in bracket_report(ops).checks + lorentz_check(ops).checks}


CROSS_CHECK_PARAMS = [(1.0, 1.0), (-1.0, 1.0), (0.5, 2.0), (-2.0, 0.5), (1.7, 0.3)]


class TestFactorCrossCheck:
    @pytest.mark.parametrize("n_max", [8, 12])
    @pytest.mark.parametrize("r,m", CROSS_CHECK_PARAMS)
    def test_matches_full_space(self, n_max, r, m):
        ops = build_landau(r, m, n_max)
        direct, full_ops = direct_operators(r, m, n_max), assembled(ops)
        for name in ("p1", "p2", "q1", "q2", "ham"):
            assert np.array_equal(full_ops[name], direct[name]), name
        assert np.array_equal(ops.ham, direct["ham"])
        assert np.max(np.abs(full_ops["ang"] - direct["ang"])) < 1e-12

        factor = factor_residuals(ops)
        full = full_space_residuals(ops)
        assert factor.keys() == full.keys()
        for name in full:
            assert abs(factor[name] - full[name]) < 1e-12, name

        for report in (bracket_report(ops), lorentz_check(ops)):
            assert report.all_pass, report.to_text()
            assert all(type(c.holds) is bool for c in report.checks)

        n_levels = (n_max - 1) // 2
        levels = hamiltonian_spectrum(ops, n_max // 2)
        full_levels = np.linalg.eigvalsh(ops.ham)
        expected = [int(np.sum(np.abs(full_levels - lv) < LORENTZ_TOLERANCE))
                    for lv in levels[:n_levels]]
        assert level_degeneracies(ops, n_levels) == expected


def negated_r(ops):
    return dataclasses.replace(ops, r=-ops.r)


def negated_y(ops):
    return dataclasses.replace(ops, y=-ops.y)


class TestNegativeControl:
    # the tolerances are relative, so a corruption fails at every field
    # strength, where an absolute one passes it at small r
    @pytest.mark.parametrize("corrupt,r", [
        (negated_r, 1.0), (negated_y, 1.0), (negated_r, 1e5), (negated_y, 1e5),
        (negated_r, 1e-12), (negated_y, 1e-12),
    ], ids=["negated_r", "negated_y", "negated_r at r=1e5", "negated_y at r=1e5",
            "negated_r at r=1e-12", "negated_y at r=1e-12"])
    def test_corrupted_factors_fail(self, corrupt, r):
        ops = corrupt(build_landau(r, 1.0, 12))
        for report in (bracket_report(ops), lorentz_check(ops)):
            failed = [c for c in report.checks if not c.holds]
            assert failed, report.to_text()
            # a failed measured check keeps the figure it was refused for
            assert all(c.value > c.bound for c in failed), report.to_text()
        # the factor residuals still measure what the assembled space shows
        factor, full = factor_residuals(ops), full_space_residuals(ops)
        for name in full:
            assert factor[name] == pytest.approx(full[name], rel=1e-12, abs=1e-12), name


class TestLargeTruncation:
    def test_checks_never_assemble_the_full_space(self):
        ops = build_landau(1.0, 1.0, 200)
        assert bracket_report(ops).all_pass
        assert lorentz_check(ops).all_pass
        assert level_degeneracies(ops, 4) == [200] * 4
        assert "ham" not in vars(ops)
        assert all(np.size(value) <= 200 * 200 for value in vars(ops).values())
