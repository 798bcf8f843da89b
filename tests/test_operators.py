"""Exact basis-map operators: representations, relations, gauge, truncation."""

import dataclasses
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from fluxlattice.operators import (
    BasisMapOperator,
    IntForm,
    PhaseForm,
    SiteMap,
    build_distinguished,
    build_wavefunction,
    commutant_monomial_check,
    commutator,
    gauge_intertwiner,
    gauge_report,
    truncate,
    verify_relations,
)
from fluxlattice import operators
from fluxlattice.phases import ExactPhase, Flux, RationalFluxError

GOLDEN = Flux.golden()

rng = random.Random(0)


def random_fluxes():
    rationals = [Flux.rational(1, 2), Flux.rational(1, 3), Flux.rational(2, 5),
                 Flux.rational(3, 7), Flux.rational(5, 9)]
    irrationals = [GOLDEN, Flux.sqrt2(), Flux.pi_fractional(),
                   Flux.irrational(0.3183098861), Flux.irrational(0.7071067811)]
    return rationals + irrationals


class TestDistinguished:
    def test_diagonal_action(self):
        rep = build_distinguished(GOLDEN)
        phase, site = rep.p1.apply((3,))
        assert site == (3,)
        assert phase == ExactPhase(6, 0, 0)  # e^{3 i theta}

    def test_shift_action(self):
        rep = build_distinguished(GOLDEN)
        phase, site = rep.p2.apply((0,))
        assert site == (1,)
        assert phase.is_identity()

    def test_commutator_is_global_flux_phase(self):
        rep = build_distinguished(GOLDEN)
        comm = commutator(rep.p1, rep.p2)
        assert comm.equals(BasisMapOperator.scalar(1, ExactPhase(2, 0, 0)))
        assert verify_relations(rep).all_pass


class TestWavefunction:
    def test_p2_action(self):
        rep = build_wavefunction(GOLDEN)
        phase, site = rep.p2.apply((2, 5))
        assert site == (2, 6)
        assert phase == ExactPhase(-2, 0, 0)  # e^{-i theta}

    def test_rotation_action(self):
        rep = build_wavefunction(GOLDEN)
        phase, site = rep.zeta.apply((1, 0))
        assert site == (0, 1)
        assert phase.is_identity()
        assert (rep.zeta**4).is_identity()

    def test_q_commutator_sign(self):
        rep = build_wavefunction(GOLDEN)
        comm = commutator(rep.q1, rep.q2)
        assert comm.equals(BasisMapOperator.scalar(2, ExactPhase(-2, 0, 0)))

    def test_all_relations_across_fluxes_and_gauges(self):
        for flux in random_fluxes():
            for gauge in range(8):
                report = verify_relations(build_wavefunction(flux, gauge))
                assert report.all_pass, f"flux {flux} gauge {gauge}:\n{report.to_text()}"

    def test_translation_pairs_satisfy_their_own_relations(self):
        rep = build_wavefunction(GOLDEN)
        assert commutator(rep.p1, rep.p2).equals(
            BasisMapOperator.scalar(2, ExactPhase(2, 0, 0)))
        assert commutator(rep.q1, rep.q2).equals(
            BasisMapOperator.scalar(2, ExactPhase(-2, 0, 0)))

    @pytest.mark.parametrize("gauge", [1, 3, -2])
    @pytest.mark.parametrize("flux", [GOLDEN, Flux.rational(1, 5)], ids=str)
    def test_gauged_rotation_acts_on_its_own_translations(self, flux, gauge):
        # composed directly, not through verify_relations
        rep = build_wavefunction(flux, gauge)
        zeta_inv = rep.zeta.inverse()
        images = [(rep.p1, rep.p2), (rep.p2, rep.p1.inverse()),
                  (rep.q1, rep.q2), (rep.q2, rep.q1.inverse())]
        for gen, image in images:
            assert (rep.zeta @ gen @ zeta_inv).equals(image, flux)
        assert (rep.zeta**4).is_identity(flux)

    def test_corrupted_phase_fails_commutator(self):
        rep = build_wavefunction(GOLDEN)
        pf = rep.p1.phase_form
        bad = BasisMapOperator(
            rep.p1.site_map,
            PhaseForm(IntForm(pf.a.const, (pf.a.lin[0], pf.a.lin[1] + 1)), pf.b, pf.c))
        import dataclasses
        report = verify_relations(dataclasses.replace(rep, p1=bad))
        failed = {c.name for c in report.checks if not c.holds}
        assert "commutator_p1_p2" in failed

    def test_report_formats(self):
        report = verify_relations(build_wavefunction(GOLDEN))
        text = report.to_text()
        assert all(line.startswith("RELATION ") for line in text.splitlines())
        assert "PASS" in text
        for entry in report.to_json_dict():
            assert set(entry) == {"relation", "holds", "witness_site"}

    def test_failure_reports_witness_site(self):
        rep = build_wavefunction(GOLDEN)
        import dataclasses
        pf = rep.p1.phase_form
        bad = BasisMapOperator(
            rep.p1.site_map,
            PhaseForm(IntForm(pf.a.const, (pf.a.lin[0], pf.a.lin[1] + 1)), pf.b, pf.c))
        report = verify_relations(dataclasses.replace(rep, p1=bad))
        bad_check = next(c for c in report.checks if not c.holds)
        assert bad_check.witness_site is not None


class TestOperatorAlgebra:
    def random_word(self, rep):
        ops = [rep.p1, rep.p2, rep.q1, rep.q2, rep.zeta]
        word = BasisMapOperator.identity(2)
        for _ in range(rng.randint(1, 5)):
            word = word @ rng.choice(ops) ** rng.randint(-2, 2)
        return word

    def test_inverse_cancels(self):
        rep = build_wavefunction(GOLDEN, 2)
        for op in (rep.p1, rep.p2, rep.q1, rep.q2, rep.zeta, gauge_intertwiner(3)):
            assert (op @ op.inverse()).is_identity()
            assert (op.inverse() @ op).is_identity()
        for _ in range(25):
            w = self.random_word(rep)
            assert (w @ w.inverse()).is_identity()

    def test_composition_associative(self):
        rep = build_wavefunction(GOLDEN, 1)
        for _ in range(25):
            a, b, c = (self.random_word(rep) for _ in range(3))
            assert ((a @ b) @ c) == (a @ (b @ c))

    def test_apply_matches_composition(self):
        rep = build_wavefunction(GOLDEN)
        for _ in range(20):
            a, b = self.random_word(rep), self.random_word(rep)
            site = (rng.randint(-4, 4), rng.randint(-4, 4))
            ph_b, mid = b.apply(site)
            ph_a, end = a.apply(mid)
            ph_c, end_c = (a @ b).apply(site)
            assert end_c == end
            assert ph_c == ph_b * ph_a


class TestGauge:
    def test_zero_units_is_identity(self):
        assert gauge_intertwiner(0).is_identity()

    def test_intertwines_translations(self):
        for units in range(1, 8):
            s = gauge_intertwiner(units)
            base = build_wavefunction(GOLDEN, 0)
            gauged = build_wavefunction(GOLDEN, units)
            for name in ("p1", "p2", "q1", "q2"):
                lhs = s @ getattr(gauged, name)
                rhs = getattr(base, name) @ s
                assert lhs.equals(rhs, GOLDEN), f"units {units} generator {name}"

    def test_intertwining_holds_at_random_sites(self):
        s = gauge_intertwiner(3)
        base = build_wavefunction(GOLDEN, 0)
        gauged = build_wavefunction(GOLDEN, 3)
        lhs, rhs = s @ gauged.p1, base.p1 @ s
        for _ in range(20):
            site = (rng.randint(-10, 10), rng.randint(-10, 10))
            ph_l, t_l = lhs.apply(site)
            ph_r, t_r = rhs.apply(site)
            assert t_l == t_r and ph_l == ph_r

    def test_does_not_commute_with_rotation(self):
        s = gauge_intertwiner(1)
        zeta = build_wavefunction(GOLDEN).zeta
        assert not (s @ zeta).equals(zeta @ s, GOLDEN)
        ph_l, _ = (s @ zeta).apply((1, 1))
        ph_r, _ = (zeta @ s).apply((1, 1))
        assert ph_l != ph_r


GENERATORS = ("p1", "p2", "q1", "q2")


class TestGaugeReport:
    @pytest.mark.parametrize("flux", [GOLDEN, Flux.rational(1, 5)], ids=str)
    def test_matches_direct_loop(self, flux):
        base = build_wavefunction(flux, 0)
        for units in range(-3, 4):
            s = gauge_intertwiner(units)
            gauged = build_wavefunction(flux, units)
            expected = [(s @ getattr(gauged, name)).equals(getattr(base, name) @ s, flux)
                        for name in GENERATORS]
            report = gauge_report(flux, units)
            assert [c.name for c in report.checks] == [f"gauge_conj_{n}" for n in GENERATORS]
            assert [c.holds for c in report.checks] == expected == [True] * 4
            assert all(c.witness_site is None for c in report.checks)

    @pytest.mark.parametrize("flux", [GOLDEN, Flux.rational(1, 5)], ids=str)
    def test_wrong_intertwiner_fails_with_witnesses(self, flux, monkeypatch):
        # negative control: conjugate with the intertwiner of the next gauge
        def wrong(units, right=gauge_intertwiner):
            return right(units + 1)
        monkeypatch.setattr(operators, "gauge_intertwiner", wrong)
        base = build_wavefunction(flux, 0)
        for units in range(-3, 4):
            report = gauge_report(flux, units)
            assert not report.all_pass and "FAIL" in report.to_text()
            s = wrong(units)
            gauged = build_wavefunction(flux, units)
            for name, check in zip(GENERATORS, report.checks):
                assert not check.holds and check.witness_site is not None
                ph_l, t_l = (s @ getattr(gauged, name)).apply(check.witness_site)
                ph_r, t_r = (getattr(base, name) @ s).apply(check.witness_site)
                assert t_l != t_r or not ph_l.equals(ph_r, flux)


class TestCommutant:
    def test_q_word_commutes(self):
        rep = build_wavefunction(GOLDEN)
        word = rep.q1**2 @ rep.q2**-1
        assert (word @ rep.p1).equals(rep.p1 @ word, GOLDEN)
        assert (word @ rep.p2).equals(rep.p2 @ word, GOLDEN)

    def test_p_word_excluded(self):
        rep = build_wavefunction(GOLDEN)
        assert not (rep.p1 @ rep.p2).equals(rep.p2 @ rep.p1, GOLDEN)

    def test_box_scan(self):
        report = commutant_monomial_check(GOLDEN, 2)
        assert report.passed
        assert len(report.commutant_exponents) == 5 * 5
        assert all(j1 == 0 and j2 == 0 for j1, j2, _k1, _k2 in report.commutant_exponents)

    def test_rational_flux_rejected(self):
        with pytest.raises(RationalFluxError):
            commutant_monomial_check(Flux.rational(1, 3), 2)

    def test_negative_max_exp_rejected(self):
        with pytest.raises(ValueError, match="max_exp"):
            commutant_monomial_check(GOLDEN, -1)
        report = commutant_monomial_check(GOLDEN, 0)
        assert report.passed
        assert report.commutant_exponents == [(0, 0, 0, 0)]
        assert report.violations == []

    @pytest.mark.parametrize("max_exp", [2, 3])
    @pytest.mark.parametrize("flux", [GOLDEN, Flux.sqrt2()], ids=str)
    def test_hoisted_scan_matches_per_word_scan(self, flux, max_exp):
        report = commutant_monomial_check(flux, max_exp)
        commutant, violations = reference_scan(flux, max_exp)
        assert report.commutant_exponents == commutant
        assert report.violations == violations
        assert (report.max_exp, report.flux) == (max_exp, flux)

    def test_composition_count(self, monkeypatch):
        # 12,739 compositions when every word is built from its four powers
        calls = []
        matmul = BasisMapOperator.__matmul__

        def counted(self, other):
            calls.append(None)
            return matmul(self, other)
        monkeypatch.setattr(BasisMapOperator, "__matmul__", counted)
        assert commutant_monomial_check(GOLDEN, 3).passed
        assert len(calls) <= 8329

    def test_twisted_q1_reports_violations(self, monkeypatch):
        # q1 with an extra e^{i*th*m1} no longer commutes with p1
        build = operators.build_wavefunction
        twist = BasisMapOperator(SiteMap.identity(2),
                                 PhaseForm(IntForm(0, (2, 0)), 0, IntForm.zero(2)))

        def twisted(flux, gauge_units=0):
            rep = build(flux, gauge_units)
            return dataclasses.replace(rep, q1=rep.q1 @ twist)
        monkeypatch.setattr(operators, "build_wavefunction", twisted)
        report = commutant_monomial_check(GOLDEN, 1)
        assert not report.passed
        assert (0, 0, 1, 0) in report.violations
        assert report.violations == reference_scan(GOLDEN, 1, twisted(GOLDEN))[1]


def reference_scan(flux, max_exp, rep=None):
    """The scan as first written: every word built from its four generator
    powers, left to right."""
    rep = rep or build_wavefunction(flux)
    exps = range(-max_exp, max_exp + 1)
    powers = [{e: g**e for e in exps} for g in (rep.p1, rep.p2, rep.q1, rep.q2)]
    commutant, violations = [], []
    for j1, j2, k1, k2 in itertools.product(exps, repeat=4):
        word = powers[0][j1] @ powers[1][j2] @ powers[2][k1] @ powers[3][k2]
        commutes = ((word @ rep.p1).equals(rep.p1 @ word, flux)
                    and (word @ rep.p2).equals(rep.p2 @ word, flux))
        if commutes:
            commutant.append((j1, j2, k1, k2))
        if commutes != (j1 == 0 and j2 == 0):
            violations.append((j1, j2, k1, k2))
    return commutant, violations


class TestTruncate:
    def test_open_shift_has_defect(self):
        rep = build_distinguished(Flux.rational(1, 5))
        t = truncate(rep.p2, ((0, 4),), "open", Flux.rational(1, 5))
        assert t.matrix.shape == (5, 5)
        expected = np.zeros((5, 5))
        expected[1:, :-1] = np.eye(4)
        assert np.array_equal(t.matrix, expected)
        gram = t.matrix.conj().T @ t.matrix
        assert np.allclose(np.diag(gram), [1, 1, 1, 1, 0])

    def test_periodic_diagonal_is_roots_of_unity(self):
        flux = Flux.rational(1, 5)
        rep = build_distinguished(flux)
        t = truncate(rep.p1, ((0, 4),), "periodic", flux)
        expected = np.diag(np.exp(2j * np.pi * np.arange(5) / 5))
        assert np.max(np.abs(t.matrix - expected)) < 1e-14
        assert np.allclose(t.matrix @ t.matrix.conj().T, np.eye(5))

    def test_identity_truncates_to_identity(self):
        t = truncate(BasisMapOperator.identity(2), ((0, 2), (0, 2)), "open", GOLDEN)
        assert np.array_equal(t.matrix, np.eye(9))

    def test_periodic_relations_as_matrices(self):
        flux = Flux.rational(2, 5)
        rep = build_distinguished(flux)
        win = ((0, 4),)
        u1 = truncate(rep.p1, win, "periodic", flux).matrix
        u2 = truncate(rep.p2, win, "periodic", flux).matrix
        comm = u1 @ u2 @ np.linalg.inv(u1) @ np.linalg.inv(u2)
        assert np.max(np.abs(comm - np.exp(1j * flux.theta) * np.eye(5))) < 1e-12

    def test_plane_periodic_relations_as_matrices(self):
        flux = Flux.rational(1, 4)
        rep = build_wavefunction(flux)
        win = ((0, 7), (0, 7))
        q1 = truncate(rep.q1, win, "periodic", flux).matrix
        q2 = truncate(rep.q2, win, "periodic", flux).matrix
        assert np.allclose(q1 @ q1.conj().T, np.eye(64))
        comm = q1 @ q2 @ q1.conj().T @ q2.conj().T
        assert np.max(np.abs(comm - np.exp(-1j * flux.theta) * np.eye(64))) < 1e-12

    def test_plane_periodic_relations_on_denominator_window(self):
        # an even numerator closes the phases already on an N x N torus
        flux = Flux.rational(2, 5)
        rep = build_wavefunction(flux)
        win = ((0, 4), (0, 4))
        mats = {name: truncate(getattr(rep, name), win, "periodic", flux).matrix
                for name in ("p1", "p2", "q1", "q2")}
        eye = np.eye(25)
        for m in mats.values():
            assert np.allclose(m @ m.conj().T, eye)
        comm_p = mats["p1"] @ mats["p2"] @ mats["p1"].conj().T @ mats["p2"].conj().T
        assert np.max(np.abs(comm_p - np.exp(1j * flux.theta) * eye)) < 1e-12
        for p in ("p1", "p2"):
            for q in ("q1", "q2"):
                assert np.max(np.abs(mats[p] @ mats[q] - mats[q] @ mats[p])) < 1e-12

    def test_incompatible_periodicity_rejected(self):
        flux = Flux.rational(1, 5)
        rep = build_distinguished(flux)
        with pytest.raises(ValueError, match="periodicity"):
            truncate(rep.p1, ((0, 6),), "periodic", flux)
        # odd numerator: the plane phases need twice the denominator
        flux4 = Flux.rational(1, 4)
        rep4 = build_wavefunction(flux4)
        with pytest.raises(ValueError, match="periodicity"):
            truncate(rep4.q1, ((0, 3), (0, 3)), "periodic", flux4)
        with pytest.raises(ValueError, match="rational"):
            truncate(rep4.q1, ((0, 3), (0, 3)), "periodic", GOLDEN)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            truncate(BasisMapOperator.identity(1), ((1, 0),), "open", GOLDEN)

    def test_oversized_window_refused_before_listing_sites(self):
        # 10,000 sites give a 1.49 GiB dense matrix, over the 1 GiB budget
        rep = build_wavefunction(GOLDEN)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="allocation budget"):
                truncate(rep.q1, ((0, 99), (0, 99)), "open", GOLDEN)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestPhaseFormClosure:
    def test_bilinear_composition_stays_in_class(self):
        # rotation precomposition maps the cross term onto itself
        s = gauge_intertwiner(2)
        zeta = build_wavefunction(GOLDEN).zeta
        conj = zeta @ s @ zeta.inverse()
        assert conj.phase_form.c.bilin != 0
        for _ in range(20):
            site = (rng.randint(-5, 5), rng.randint(-5, 5))
            ph, _ = conj.apply(site)
            m1, m2 = site
            rot = (-m2, m1)
            assert ph.c == -2 * 2 * rot[0] * rot[1]

    def test_squares_rejected(self):
        # a site map with both entries in one row hitting the cross term
        form = IntForm(0, (0, 0), 1)
        with pytest.raises(ValueError):
            form.compose_affine(((1, 1), (0, 1)), (0, 0))


def folded_is_identity(form, flux):
    """Reference: the hand-written rational-flux fold PhaseForm once carried."""
    if any(form.c.coefficients()):
        return False
    if flux is None or not flux.is_rational:
        return not any(form.a.coefficients()) and form.b % 2 == 0
    nu, den = flux.numerator, flux.denominator
    coeffs = form.a.coefficients()
    if any(co % den for co in coeffs):
        return False
    folded = [co // den * nu for co in coeffs]
    if (form.b + folded[0]) % 2:
        return False
    return all(f % 2 == 0 for f in folded[1:])


def sitewise_is_identity(form, flux):
    """The decision _witness_site makes: the phase is trivial at every site
    of {0,1,2}^dim, which pins every affine-plus-bilinear coefficient."""
    return all(form.evaluate(site).is_identity(flux)
               for site in itertools.product(range(3), repeat=form.dim))


def random_phase_form(dim, den, rand):
    """A form whose theta coefficients are often multiples of den (even or
    odd multiples; den 0 gives zeros) and whose gauge channel is usually
    zero, so trivial forms are common."""
    def coeff():
        if rand.random() < 0.7:
            return den * rand.randint(-3, 3)
        return rand.randint(-5, 5)

    def int_form(make):
        return IntForm(make(), tuple(make() for _ in range(dim)),
                       make() if dim == 2 else 0)
    gauge = (lambda: 0) if rand.random() < 0.8 else (lambda: rand.randint(-1, 1))
    return PhaseForm(int_form(coeff), rand.randint(-2, 3), int_form(gauge))


class TestPhaseFormIdentity:
    FLUXES = [None, GOLDEN, Flux.sqrt2(), Flux.rational(0, 1)] + [
        Flux.rational(nu, q) for q in range(2, 9) for nu in range(1, q)
        if math.gcd(nu, q) == 1]

    @pytest.mark.parametrize("flux", FLUXES, ids=str)
    def test_agrees_with_fold_and_sitewise_decision(self, flux):
        rand = random.Random(f"{flux}")
        den = flux.denominator if flux is not None and flux.is_rational else 0
        trivial = 0
        for _ in range(300):
            form = random_phase_form(rand.choice((1, 2)), den, rand)
            expected = folded_is_identity(form, flux)
            assert form.is_identity(flux) == expected, form
            assert sitewise_is_identity(form, flux) == expected, form
            trivial += expected
        # both verdicts are exercised at every flux
        assert 0 < trivial < 300


# Reference composition: the site-map product with index loops and the
# phase precomposition followed by a separate sum, as first written.  The
# fused kernel behind BasisMapOperator.__matmul__ and inverse must agree
# with it exactly.
def reference_compose_affine(form, matrix, shift):
    if form.dim == 1:
        return IntForm(form.const + form.lin[0] * shift[0], (form.lin[0] * matrix[0][0],))
    (m11, m12), (m21, m22) = matrix
    t1, t2 = shift
    a, b, w = form.lin[0], form.lin[1], form.bilin
    if w * m11 * m21 or w * m12 * m22:
        raise ValueError("bilinear form does not stay in class under this map")
    return IntForm(
        form.const + a * t1 + b * t2 + w * t1 * t2,
        (a * m11 + b * m21 + w * (m11 * t2 + m21 * t1),
         a * m12 + b * m22 + w * (m12 * t2 + m22 * t1)),
        w * (m11 * m22 + m12 * m21),
    )


def reference_precompose(form, site_map):
    return PhaseForm(reference_compose_affine(form.a, site_map.matrix, site_map.shift),
                     form.b,
                     reference_compose_affine(form.c, site_map.matrix, site_map.shift))


def reference_apply(site_map, site):
    dim = len(site_map.shift)
    return tuple(sum(row[j] * site[j] for j in range(dim)) + t
                 for row, t in zip(site_map.matrix, site_map.shift))


def reference_site_compose(x, y):
    dim = len(x.shift)
    mat = tuple(tuple(sum(x.matrix[i][k] * y.matrix[k][j] for k in range(dim))
                      for j in range(dim))
                for i in range(dim))
    return SiteMap(mat, reference_apply(x, y.shift))


def reference_site_inverse(x):
    dim = len(x.shift)
    inv = tuple(tuple(x.matrix[j][i] for j in range(dim)) for i in range(dim))
    shift = tuple(-sum(inv[i][j] * x.shift[j] for j in range(dim)) for i in range(dim))
    return SiteMap(inv, shift)


def reference_matmul(x, y):
    return BasisMapOperator(reference_site_compose(x.site_map, y.site_map),
                            y.phase_form + reference_precompose(x.phase_form, y.site_map))


def reference_inverse(x):
    inv_map = reference_site_inverse(x.site_map)
    return BasisMapOperator(inv_map, -(reference_precompose(x.phase_form, inv_map)))


SIGNED_PERMUTATIONS_1D = [((1,),), ((-1,),)]
SIGNED_PERMUTATIONS_2D = [
    tuple(tuple(sign[i] if j == perm[i] else 0 for j in range(2)) for i in range(2))
    for perm in itertools.permutations(range(2))
    for sign in itertools.product((1, -1), repeat=2)]


def random_operator(dim, matrix, rand, bilinear):
    def int_form():
        return IntForm(rand.randint(-6, 6), tuple(rand.randint(-6, 6) for _ in range(dim)),
                       rand.randint(-3, 3) if bilinear else 0)
    shift = tuple(rand.randint(-5, 5) for _ in range(dim))
    return BasisMapOperator(SiteMap(matrix, shift),
                            PhaseForm(int_form(), rand.randint(0, 1), int_form()))


class TestFusedComposition:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_reference(self, dim):
        # every pair of signed permutations, identity operands included, with
        # and without the bilinear term: 400 pairs in 1-D, 384 in 2-D
        rand = random.Random(f"fused {dim}")
        mats = SIGNED_PERMUTATIONS_1D if dim == 1 else SIGNED_PERMUTATIONS_2D
        assert len(set(mats)) == (2 if dim == 1 else 8)
        site = (3, -2)[:dim]
        for mx, my in itertools.product(mats, repeat=2):
            for trial in range(100 if dim == 1 else 6):
                bilinear = dim == 2 and trial % 2 == 0
                x = random_operator(dim, mx, rand, bilinear)
                y = random_operator(dim, my, rand, bilinear)
                assert x @ y == reference_matmul(x, y)
                assert x.inverse() == reference_inverse(x)
                assert (x @ y).site_map.apply(site) == reference_apply(
                    reference_matmul(x, y).site_map, site)

    def test_representation_words_match_reference(self):
        rep = build_wavefunction(GOLDEN, 2)
        gens = [rep.p1, rep.p2, rep.q1, rep.q2, rep.zeta, gauge_intertwiner(3)]
        rand = random.Random(7)
        for _ in range(200):
            x, y = rand.choice(gens), rand.choice(gens)
            for _ in range(rand.randint(0, 3)):
                x, y = reference_matmul(x, rand.choice(gens)), reference_matmul(
                    rand.choice(gens), y)
            assert x @ y == reference_matmul(x, y)
            assert x.inverse() == reference_inverse(x)

    def test_out_of_class_bilinear_map_raises(self):
        bilinear = BasisMapOperator(SiteMap.identity(2),
                                    PhaseForm(IntForm.zero(2), 0, IntForm(0, (0, 0), 1)))
        shear = BasisMapOperator(SiteMap(((1, 1), (0, 1)), (0, 0)), PhaseForm.zero(2))
        with pytest.raises(ValueError):
            reference_matmul(bilinear, shear)
        with pytest.raises(ValueError):
            bilinear @ shear


def reference_equals(x, y, flux):
    """Reference: operator identity through the summed phase form, as
    BasisMapOperator.equals decided it at every flux before."""
    return (x.site_map == y.site_map
            and (x.phase_form + (-y.phase_form)).is_identity(flux))


class TestEqualsAgainstReference:
    FLUXES = TestPhaseFormIdentity.FLUXES

    @pytest.mark.parametrize("flux", FLUXES, ids=str)
    def test_random_operators(self, flux):
        # y is x times a random phase form, which is often trivial at this
        # flux, and sometimes moved to another site map
        rand = random.Random(f"equals {flux}")
        den = flux.denominator if flux is not None and flux.is_rational else 0
        verdicts = []
        for _ in range(300):
            dim = rand.choice((1, 2))
            mats = SIGNED_PERMUTATIONS_1D if dim == 1 else SIGNED_PERMUTATIONS_2D
            x = random_operator(dim, rand.choice(mats), rand, dim == 2)
            y = BasisMapOperator(x.site_map,
                                 x.phase_form + random_phase_form(dim, den, rand))
            if rand.random() < 0.2:
                y = BasisMapOperator(SiteMap(rand.choice(mats), x.site_map.shift),
                                     y.phase_form)
            if rand.random() < 0.3:
                # a pi term outside {0, 1} is the same phase
                y = dataclasses.replace(y, phase_form=dataclasses.replace(
                    y.phase_form, b=y.phase_form.b + rand.choice((-2, 2, 4))))
            for a, b in ((x, y), (y, x), (x, x)):
                expected = reference_equals(a, b, flux)
                assert a.equals(b, flux) == expected, (a, b)
                verdicts.append(expected)
        assert verdicts.count(True) > 300 and verdicts.count(False) > 0

    @pytest.mark.parametrize("flux", FLUXES, ids=str)
    def test_random_words(self, flux):
        # words in the plane generators against each other and against a
        # rewrite that inserts g g^-1 or a power of the p1, p2 commutator
        rep = build_wavefunction(GOLDEN if flux is None else flux, 1)
        gens = [rep.p1, rep.p2, rep.q1, rep.q2, rep.zeta, gauge_intertwiner(2)]
        gens += [g.inverse() for g in gens]
        rand = random.Random(f"words {flux}")
        words = []
        for _ in range(40):
            word = BasisMapOperator.identity(2)
            for _ in range(rand.randint(0, 4)):
                word = word @ rand.choice(gens)
            words.append(word)
        twist = commutator(rep.p1, rep.p2) ** rand.randint(1, 9)
        pairs = [(w, w @ g @ g.inverse()) for w, g in zip(words, gens * 4)]
        pairs += [(w, twist @ w) for w in words]
        pairs += itertools.combinations(words, 2)
        verdicts = []
        for x, y in pairs:
            expected = reference_equals(x, y, flux)
            assert x.equals(y, flux) == expected == reference_equals(y, x, flux)
            assert y.equals(x, flux) == expected
            verdicts.append(expected)
        assert verdicts.count(True) >= len(words) and verdicts.count(False) > 0
