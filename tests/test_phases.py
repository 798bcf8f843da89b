"""Exact phase arithmetic, flux handling and the extension classification."""

import cmath
import math
import random
from fractions import Fraction

import pytest

from fluxlattice.phases import (
    Classification,
    ExactPhase,
    Flux,
    RationalFluxError,
    bicharacter,
    classify,
    coboundary,
    cocycle,
    mu,
)

GOLDEN = Flux.golden()
THIRD = Flux.rational(1, 3)

rng = random.Random(0)


def rand_pair():
    return (rng.randint(-6, 6), rng.randint(-6, 6))


def rand_phase():
    return ExactPhase(rng.randint(-9, 9), rng.randint(-3, 3), rng.randint(-9, 9))


class TestExactPhaseGroup:
    def test_identity_and_inverse(self):
        e = ExactPhase.identity()
        for _ in range(50):
            x = rand_phase()
            assert x * e == x
            assert (x * x.inverse()).is_identity()

    def test_associative(self):
        for _ in range(100):
            x, y, z = rand_phase(), rand_phase(), rand_phase()
            assert (x * y) * z == x * (y * z)
            assert hash((x * y) * z) == hash(x * (y * z))

    def test_abelian(self):
        for _ in range(50):
            x, y = rand_phase(), rand_phase()
            assert x * y == y * x

    def test_pi_coefficient_canonical(self):
        assert ExactPhase(0, 2, 0) == ExactPhase.identity()
        assert ExactPhase(0, 5, 0) == ExactPhase(0, 1, 0)
        assert ExactPhase(0, -1, 0) == ExactPhase(0, 1, 0)
        for b in range(-3, 4):
            x = ExactPhase(3, b, -2)
            assert x.b == b % 2 and (x.a, x.c) == (3, -2)
            assert x == ExactPhase(3, b % 2, -2)
            assert hash(x) == hash(ExactPhase(3, b % 2, -2))
            assert x._replace(b=b) == x

    def test_immutable_triple(self):
        x = ExactPhase(1, 0, 2)
        with pytest.raises(AttributeError):
            x.a = 5
        assert x == ExactPhase(1, 0, 2)
        assert ExactPhase() == ExactPhase.identity() == ExactPhase(0, 0, 0)

    def test_product_with_another_type_raises(self):
        assert ExactPhase().__mul__(2) is NotImplemented
        with pytest.raises(TypeError):
            ExactPhase() * 2

    def test_generic_identity_criterion(self):
        assert ExactPhase(0, 2, 0).is_identity(GOLDEN)
        assert not ExactPhase(1, 0, 0).is_identity(GOLDEN)
        assert not ExactPhase(0, 1, 0).is_identity(GOLDEN)
        assert not ExactPhase(0, 0, 1).is_identity(GOLDEN)

    def test_numeric_evaluation_matches_exponential(self):
        theta = GOLDEN.theta
        phi = 1.2345
        for _ in range(50):
            x = rand_phase()
            expected = cmath.exp(1j * (0.5 * x.a * theta + math.pi * x.b + 0.5 * x.c * phi))
            assert abs(x.evaluate(theta, phi) - expected) < 1e-12


class TestRationalReduction:
    def test_full_turns_vanish(self):
        # 2N theta-half-units are a full multiple of 2*pi at flux nu/N
        assert ExactPhase(6, 0, 0).is_identity(THIRD)
        assert ExactPhase(-6, 0, 0).is_identity(THIRD)

    def test_half_turn_carries_parity(self):
        # 3 half-units at flux 1/3 give e^{i*pi} = -1, fixed by one pi unit
        assert not ExactPhase(3, 0, 0).is_identity(THIRD)
        assert ExactPhase(3, 1, 0).is_identity(THIRD)

    def test_even_numerator_flux(self):
        # at flux 2/3 already 3 half-units are a full turn: 3 * theta/2 = 2*pi
        flux = Flux.rational(2, 3)
        assert ExactPhase(3, 0, 0).is_identity(flux)
        assert not ExactPhase(1, 0, 0).is_identity(flux)
        assert not ExactPhase(2, 0, 0).is_identity(flux)

    def test_reduction_preserves_value(self):
        for den in (2, 3, 4, 5, 7):
            for num in range(den):
                if math.gcd(num, den) != 1:
                    continue
                flux = Flux.rational(num, den)
                for _ in range(25):
                    x = rand_phase()
                    r = x.reduce(flux)
                    assert abs(x.evaluate(flux.theta, 0.7) - r.evaluate(flux.theta, 0.7)) < 1e-9


class TestBicharacter:
    def test_unit_cell_value(self):
        assert bicharacter(GOLDEN, (1, 0), (0, 1)) == ExactPhase(2, 0, 0)

    def test_alternating(self):
        assert bicharacter(GOLDEN, (2, 3), (2, 3)).is_identity()
        for _ in range(50):
            m = rand_pair()
            assert bicharacter(GOLDEN, m, m).is_identity()

    def test_hand_value(self):
        # (1,1) wedge (2,0) = 1*0 - 1*2 = -2
        assert bicharacter(GOLDEN, (1, 1), (2, 0)) == ExactPhase(-4, 0, 0)

    def test_bimultiplicative(self):
        for _ in range(50):
            m, mp, n = rand_pair(), rand_pair(), rand_pair()
            lhs = bicharacter(GOLDEN, (m[0] + mp[0], m[1] + mp[1]), n)
            rhs = bicharacter(GOLDEN, m, n) * bicharacter(GOLDEN, mp, n)
            assert lhs == rhs
            lhs = bicharacter(GOLDEN, n, (m[0] + mp[0], m[1] + mp[1]))
            rhs = bicharacter(GOLDEN, n, m) * bicharacter(GOLDEN, n, mp)
            assert lhs == rhs


class TestCocycle:
    def test_unit_cell_value(self):
        assert cocycle(GOLDEN, (1, 0), (0, 1)) == ExactPhase(1, 0, 0)

    def test_alternating(self):
        assert cocycle(GOLDEN, (5, -2), (5, -2)).is_identity()

    def test_skew_symmetric(self):
        for _ in range(100):
            m, n = rand_pair(), rand_pair()
            assert (cocycle(GOLDEN, m, n) * cocycle(GOLDEN, n, m)).is_identity()

    def test_two_cocycle_identity(self):
        for _ in range(100):
            m, n, k = rand_pair(), rand_pair(), rand_pair()
            lhs = cocycle(GOLDEN, m, n) * cocycle(GOLDEN, (m[0] + n[0], m[1] + n[1]), k)
            rhs = cocycle(GOLDEN, m, (n[0] + k[0], n[1] + k[1])) * cocycle(GOLDEN, n, k)
            assert lhs == rhs

    def test_square_is_bicharacter(self):
        for _ in range(50):
            m, n = rand_pair(), rand_pair()
            assert cocycle(GOLDEN, m, n) ** 2 == bicharacter(GOLDEN, m, n)
            ratio = cocycle(GOLDEN, m, n) * cocycle(GOLDEN, n, m).inverse()
            assert ratio == bicharacter(GOLDEN, m, n)


class TestCoboundary:
    def test_unit_cell_value(self):
        assert coboundary(1, (1, 0), (0, 1)) == ExactPhase(0, 0, 2)

    def test_vanishing_pairing(self):
        assert coboundary(1, (1, 0), (1, 0)).is_identity()

    def test_symmetric(self):
        for _ in range(100):
            m, n = rand_pair(), rand_pair()
            u = rng.randint(-4, 4)
            assert coboundary(u, m, n) == coboundary(u, n, m)


class TestMu:
    def test_generator_images(self):
        ch = mu(GOLDEN, (1, 0))
        assert ch.gen1.is_identity()
        assert ch.gen2 == ExactPhase(2, 0, 0)
        assert mu(GOLDEN, (0, 0)).is_trivial()

    def test_pairing_reproduces_bicharacter(self):
        for _ in range(50):
            m, n = rand_pair(), rand_pair()
            assert mu(GOLDEN, m).value(*n) == bicharacter(GOLDEN, m, n)

    def test_rational_kernel(self):
        for num, den in ((1, 3), (2, 5), (3, 4)):
            flux = Flux.rational(num, den)
            assert mu(flux, (den, 0)).is_trivial(flux)
            assert mu(flux, (0, den)).is_trivial(flux)
            assert mu(flux, (den, -den)).is_trivial(flux)
            assert not mu(flux, (1, 0)).is_trivial(flux)

    def test_injective_at_irrational(self):
        for m1 in range(-3, 4):
            for m2 in range(-3, 4):
                if (m1, m2) != (0, 0):
                    assert not mu(GOLDEN, (m1, m2)).is_trivial(GOLDEN)


class TestClassify:
    def test_irrational(self):
        assert classify(GOLDEN) == Classification("almost_heisenberg")
        assert classify(Flux.sqrt2()).kind == "almost_heisenberg"

    def test_rational(self):
        assert classify(THIRD) == Classification("rational_with_kernel", 3)
        assert str(classify(THIRD)) == "rational_with_kernel(3)"

    def test_zero_flux(self):
        assert classify(Flux.rational(0, 1)) == Classification("rational_with_kernel", 1)

    def test_periodicity(self):
        assert classify(Flux.rational(1, 3)) == classify(Flux.rational(4, 3))
        assert classify(Flux.rational(2, 5)) == classify(Flux.rational(-3, 5))
        plus_one = Flux.irrational(GOLDEN.value + 1.0)
        assert classify(GOLDEN) == classify(plus_one)


class TestFlux:
    def test_rational_canonicalization(self):
        assert Flux.rational(3, 6).fraction == Fraction(1, 2)
        assert Flux.rational(7, 3).fraction == Fraction(1, 3)
        assert Flux.rational(-1, 3).fraction == Fraction(2, 3)
        assert Flux.rational(5, 5).fraction == Fraction(0, 1)

    def test_parse(self):
        assert Flux.parse("1/2").fraction == Fraction(1, 2)
        assert Flux.parse("3/6").fraction == Fraction(1, 2)
        assert not Flux.parse("golden").is_rational
        assert Flux.parse("golden").value == pytest.approx(0.6180339887498949)
        assert Flux.parse("sqrt2").value == pytest.approx(math.sqrt(2) - 1)
        assert Flux.parse("pi").value == pytest.approx(math.pi - 3)
        assert Flux.parse("0.25").value == 0.25
        assert not Flux.parse("0.25").is_rational
        assert Flux.parse("1.75").value == pytest.approx(0.75)

    def test_parse_rejects_unknown_names(self):
        with pytest.raises(ValueError):
            Flux.parse("euler")
        with pytest.raises(ValueError):
            Flux.parse("1/0")
        with pytest.raises(ValueError):
            Flux.parse("")

    @pytest.mark.parametrize("text", ["0.0", "1", "3.0", "-0.0", "2.", "0.99999999999999999"])
    def test_parse_rejects_decimals_zero_mod_one(self, text):
        with pytest.raises(ValueError, match="0/1"):
            Flux.parse(text)

    @pytest.mark.parametrize("flux,terms,term", [(GOLDEN, 34, 1), (Flux.sqrt2(), 18, 2)])
    def test_named_fluxes_obey_denominator_cap(self, flux, terms, term):
        dens = [0, 1] + [c.denominator for c in flux.convergents(terms)]
        assert all(q == term * q1 + q2 for q2, q1, q in zip(dens, dens[1:], dens[2:]))
        assert flux.convergents(terms)[-1].denominator <= 10**7
        with pytest.raises(ValueError, match=f"{terms} reliable terms"):
            flux.convergents(terms + 1)

    def test_theta(self):
        assert Flux.rational(1, 2).theta == pytest.approx(math.pi)
        assert GOLDEN.theta == pytest.approx(2 * math.pi * GOLDEN.value)

    def test_rational_flux_has_no_continued_fraction(self):
        with pytest.raises(RationalFluxError):
            Flux.rational(3, 7).convergents(1)

    def test_golden_continued_fraction(self):
        fib = [1, 1, 2, 3, 5, 8, 13, 21, 34]
        assert GOLDEN.convergents(8) == [Fraction(p, q) for p, q in zip(fib, fib[1:])]
        pell = [1, 2, 5, 12, 29, 70, 169, 408, 985]
        assert Flux.sqrt2().convergents(8) == [Fraction(p, q) for p, q in zip(pell, pell[1:])]
        assert Flux.pi_fractional().convergents(4) == [
            Fraction(1, 7), Fraction(15, 106), Fraction(16, 113), Fraction(4687, 33102)]

    def test_convergents(self):
        convs = GOLDEN.convergents(5)
        assert convs == [Fraction(1, 1), Fraction(1, 2), Fraction(2, 3),
                         Fraction(3, 5), Fraction(5, 8)]
        # convergents alternate around the value and sharpen
        errs = [abs(float(c) - GOLDEN.value) for c in GOLDEN.convergents(8)]
        assert all(e1 < e0 for e0, e1 in zip(errs, errs[1:]))

    def test_convergents_errors(self):
        with pytest.raises(RationalFluxError):
            THIRD.convergents(3)
        with pytest.raises(ValueError):
            GOLDEN.convergents(0)
        with pytest.raises(ValueError):
            GOLDEN.convergents(10_000)
        # a terminating decimal has a short exact expansion
        quarter = Flux.parse("0.25")
        assert quarter.convergents(1) == [Fraction(1, 4)]
        with pytest.raises(ValueError):
            quarter.convergents(5)

    def test_irrational_refuses_a_non_finite_value(self):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="flux value must be finite"):
                Flux.irrational(value)
        # a decimal too long for a float overflows to inf
        with pytest.raises(ValueError, match="flux value must be finite"):
            Flux.parse("9" * 400)

    def test_irrational_denominator_access_raises(self):
        with pytest.raises(RationalFluxError, match="no denominator"):
            _ = GOLDEN.denominator

    def test_irrational_numerator_access_raises(self):
        with pytest.raises(RationalFluxError):
            _ = GOLDEN.numerator
        with pytest.raises(RationalFluxError):
            GOLDEN.require_irrational("anything")  # does not raise
            THIRD.require_irrational("this")
