"""Group-algebra arithmetic and the invariant-Hamiltonian derivation.

The derivation is cross-checked against an independent brute-force oracle:
a numeric nullspace solve of the invariance and selfadjointness constraints
over all monomials in an exponent box, canonicalized by row reduction.
"""

import math
import random
import tracemalloc

import numpy as np
import pytest

from fluxlattice import algebra
from fluxlattice.algebra import (
    AlgebraElement,
    Monomial,
    adjoint,
    conjugate_by_translation,
    conjugate_by_zeta,
    derive_invariant_basis,
    generator,
    harper_element,
    is_invariant,
    multiply,
    one,
    scalar,
)
from fluxlattice.phases import ExactPhase, Flux, RationalFluxError

GOLDEN = Flux.golden()

rng = random.Random(0)


def mono(j1, j2, k1, k2, phase=ExactPhase.identity(), coeff=1.0):
    return AlgebraElement([(coeff, Monomial((j1, j2, k1, k2), phase))])


def random_element(n_terms=3):
    # Gaussian-integer coefficients keep float products exact, so structural
    # equality of rearranged products is meaningful
    terms = []
    for _ in range(rng.randint(1, n_terms)):
        exps = tuple(rng.randint(-2, 2) for _ in range(4))
        phase = ExactPhase(rng.randint(-3, 3), rng.randint(0, 1), rng.randint(-2, 2))
        coeff = complex(rng.randint(-3, 3), rng.randint(-3, 3))
        terms.append((coeff, Monomial(exps, phase)))
    return AlgebraElement(terms)


def reference_terms(terms):
    """Reference canonical form, as first written: sum the coefficients per
    monomial in first-seen order, then drop the zero sums."""
    acc = {}
    for coeff, m in terms:
        acc[m] = acc.get(m, 0.0) + complex(coeff)
    return [(c, m) for m, c in acc.items() if c != 0]


class TestCanonicalForm:
    def test_terms_match_the_reference(self):
        # few monomials, so most lists repeat one; small integers cancel
        # exactly, also before a monomial comes back; repr tells -0.0 parts
        # from 0.0
        gen = random.Random(7)
        parts = [-2.0, -1.0, -0.0, 0.0, 1.0, 2.0]
        for _ in range(300):
            terms = [(complex(gen.choice(parts), gen.choice(parts)),
                      Monomial((gen.randint(0, 1), 0, gen.randint(-1, 1), 0),
                               ExactPhase(gen.randint(0, 1), 0, 0)))
                     for _ in range(gen.randint(0, 12))]
            assert repr(AlgebraElement(terms).terms()) == repr(reference_terms(terms))

    def test_each_term_is_hashed_once(self, monkeypatch):
        hashes = []
        phase_hash = ExactPhase.__hash__
        monkeypatch.setattr(ExactPhase, "__hash__",
                            lambda ph: hashes.append(ph) or phase_hash(ph))
        terms = [(1.0, Monomial((j, 0, 1, 0), ExactPhase(j, 0, 0))) for j in range(5)]
        AlgebraElement(terms)
        assert len(hashes) == 5


class TestMultiply:
    def test_transposition_phase(self):
        p1, p2 = generator("p1"), generator("p2")
        assert multiply(p2, p1) == mono(1, 1, 0, 0, ExactPhase(-2, 0, 0))
        assert multiply(p1, p2) == mono(1, 1, 0, 0)

    def test_mixed_generators_commute(self):
        p1, q1 = generator("p1"), generator("q1")
        assert multiply(p1, q1) == mono(1, 0, 1, 0)
        assert multiply(q1, p1) == mono(1, 0, 1, 0)

    def test_square_of_p1p2(self):
        x = multiply(generator("p1"), generator("p2"))
        assert multiply(x, x) == mono(2, 2, 0, 0, ExactPhase(-2, 0, 0))

    def test_q_transposition_has_opposite_sign(self):
        q1, q2 = generator("q1"), generator("q2")
        assert multiply(q2, q1) == mono(0, 0, 1, 1, ExactPhase(2, 0, 0))

    def test_associative(self):
        for _ in range(60):
            x, y, z = random_element(), random_element(), random_element()
            lhs = multiply(multiply(x, y), z)
            rhs = multiply(x, multiply(y, z))
            assert lhs == rhs

    def test_distributes_over_sums(self):
        for _ in range(30):
            x, y, z = random_element(), random_element(), random_element()
            assert multiply(x, y + z) == multiply(x, y) + multiply(x, z)

    def test_scalar_one_is_neutral(self):
        for _ in range(20):
            x = random_element()
            assert multiply(one(), x) == x
            assert multiply(x, one()) == x


class TestAdjoint:
    def test_generator(self):
        assert adjoint(generator("p1")) == mono(-1, 0, 0, 0)

    def test_p1p2(self):
        x = multiply(generator("p1"), generator("p2"))
        expected = mono(-1, -1, 0, 0, ExactPhase(-2, 0, 0))
        assert adjoint(x) == expected
        # the adjoint of a unitary monomial is its inverse
        assert multiply(adjoint(x), x) == one()

    def test_harper_selfadjoint(self):
        h = harper_element()
        assert adjoint(h) == h

    def test_involution(self):
        for _ in range(50):
            x = random_element()
            assert adjoint(adjoint(x)) == x

    def test_anti_homomorphism(self):
        for _ in range(50):
            x, y = random_element(), random_element()
            lhs = adjoint(multiply(x, y))
            rhs = multiply(adjoint(y), adjoint(x))
            assert lhs == rhs


class TestConjugation:
    def test_translation_phase(self):
        x = multiply(generator("p1"), generator("p2"))
        assert conjugate_by_translation(x, "p1") == (
            AlgebraElement([(1.0, Monomial((1, 1, 0, 0), ExactPhase(2, 0, 0)))]))

    def test_q_power_unmoved_by_p(self):
        for j in (-3, 1, 4):
            x = mono(0, 0, j, 0)
            assert conjugate_by_translation(x, "p1") == x

    def test_self_conjugation_trivial(self):
        p2 = generator("p2")
        assert conjugate_by_translation(p2, "p2") == p2

    def test_conjugation_inverts(self):
        for _ in range(30):
            x = random_element()
            g = rng.choice(("p1", "p2", "q1", "q2"))
            back = conjugate_by_translation(conjugate_by_translation(x, g), g, power=-1)
            assert back == x

    def test_zeta_on_generators(self):
        assert conjugate_by_zeta(generator("q1")) == generator("q2")
        assert conjugate_by_zeta(generator("p2")) == mono(-1, 0, 0, 0)
        assert conjugate_by_zeta(generator("p1")) == generator("p2")
        assert conjugate_by_zeta(generator("q2")) == mono(0, 0, -1, 0)

    def test_zeta_order_four(self):
        x = multiply(multiply(generator("p1"), generator("p2")), generator("q1"))
        cur = x
        for _ in range(4):
            cur = conjugate_by_zeta(cur)
        assert cur == x
        for _ in range(20):
            y = random_element()
            cur = y
            for _ in range(4):
                cur = conjugate_by_zeta(cur)
            assert cur == y

    def test_zeta_is_automorphism(self):
        for _ in range(40):
            x, y = random_element(), random_element()
            lhs = conjugate_by_zeta(multiply(x, y))
            rhs = multiply(conjugate_by_zeta(x), conjugate_by_zeta(y))
            assert lhs == rhs


class TestInvariance:
    def test_harper_invariant(self):
        assert is_invariant(harper_element(), GOLDEN)

    def test_p1_not_invariant(self):
        assert not is_invariant(generator("p1"), GOLDEN)

    def test_scalar_invariant(self):
        # invariance is about conjugation only, so any scalar is fixed
        assert is_invariant(scalar(1.0), GOLDEN)
        assert is_invariant(scalar(2.5 - 1j), GOLDEN)

    def test_rational_flux_rejected(self):
        with pytest.raises(RationalFluxError):
            is_invariant(harper_element(), Flux.rational(1, 3))
        with pytest.raises(RationalFluxError):
            derive_invariant_basis(2, Flux.rational(1, 3))

    def test_translation_fixed_monomials_have_zero_p_exponents(self):
        # exhaustive scan: a monomial is fixed by both p conjugations iff j = 0
        for j1 in range(-3, 4):
            for j2 in range(-3, 4):
                x = mono(j1, j2, 1, -2)
                fixed = (conjugate_by_translation(x, "p1") == x
                         and conjugate_by_translation(x, "p2") == x)
                assert fixed == (j1 == 0 and j2 == 0)

    def test_q_conjugation_fixed_monomials_have_zero_q_exponents(self):
        for k1 in range(-3, 4):
            for k2 in range(-3, 4):
                x = mono(2, -1, k1, k2)
                fixed = (conjugate_by_translation(x, "q1") == x
                         and conjugate_by_translation(x, "q2") == x)
                assert fixed == (k1 == 0 and k2 == 0)


def brute_force_invariant_basis(max_j: int, theta: float) -> list[np.ndarray]:
    """Independent oracle: solve the invariance constraints numerically.

    Monomials with nonzero p exponents are eliminated by checking the
    translation phases numerically; over the surviving q box the rotation
    and selfadjointness conditions are a real-linear system whose nullspace
    is canonicalized by reduced row echelon form.  Returns coefficient
    vectors over the q-monomial box, real parts then imaginary parts.
    """
    box = range(-max_j, max_j + 1)
    # stage 1: translation invariance is diagonal; e^{i j theta} = 1 iff j = 0
    for j1 in box:
        for j2 in box:
            fixed = (abs(np.exp(1j * j2 * theta) - 1) < 1e-9
                     and abs(np.exp(-1j * j1 * theta) - 1) < 1e-9)
            assert fixed == (j1 == 0 and j2 == 0)

    exps = [(k1, k2) for k1 in box for k2 in box]
    index = {e: i for i, e in enumerate(exps)}
    n = len(exps)

    # rotation: q1^k1 q2^k2 -> e^{-i k1 k2 theta} q1^{-k2} q2^{k1}
    zmat = np.zeros((n, n), complex)
    for (k1, k2), i in index.items():
        zmat[index[(-k2, k1)], i] = np.exp(-1j * k1 * k2 * theta)

    # adjoint: coefficient w at (k1,k2) contributes conj(w) e^{i k1 k2 theta}
    # at (-k1,-k2); selfadjointness couples w and conj(w_neg)
    rot = np.concatenate([
        np.concatenate([zmat.real - np.eye(n), -zmat.imag], axis=1),
        np.concatenate([zmat.imag, zmat.real - np.eye(n)], axis=1),
    ])
    adj_rows = []
    for (k1, k2), t in index.items():
        neg = index[(-k1, -k2)]
        c = np.exp(1j * k1 * k2 * theta)
        row_u = np.zeros(2 * n)
        row_v = np.zeros(2 * n)
        # u_t - Re(c) u_neg - Im(c) v_neg = 0
        row_u[t] += 1.0
        row_u[neg] -= c.real
        row_u[n + neg] -= c.imag
        # v_t - Im(c) u_neg + Re(c) v_neg = 0
        row_v[n + t] += 1.0
        row_v[neg] -= c.imag
        row_v[n + neg] += c.real
        adj_rows.extend([row_u, row_v])
    system = np.concatenate([rot, np.array(adj_rows)])

    _u, sing, vt = np.linalg.svd(system)
    null = vt[np.sum(sing > 1e-9):]
    return [row for row in _rref(null)]


def _rref(rows: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    mat = np.array(rows, dtype=float)
    pivot_row = 0
    for col in range(mat.shape[1]):
        if pivot_row >= mat.shape[0]:
            break
        pick = pivot_row + int(np.argmax(np.abs(mat[pivot_row:, col])))
        if abs(mat[pick, col]) < tol:
            continue
        mat[[pivot_row, pick]] = mat[[pick, pivot_row]]
        mat[pivot_row] /= mat[pivot_row, col]
        for r in range(mat.shape[0]):
            if r != pivot_row:
                mat[r] -= mat[r, col] * mat[pivot_row]
        pivot_row += 1
    return mat[:pivot_row]


def element_coordinates(el: AlgebraElement, max_j: int, theta: float) -> np.ndarray:
    """Numeric coefficient vector of a q-element over the box, real parts
    then imaginary parts, with exact phases evaluated at theta."""
    box = range(-max_j, max_j + 1)
    exps = [(k1, k2) for k1 in box for k2 in box]
    index = {e: i for i, e in enumerate(exps)}
    n = len(exps)
    vec = np.zeros(2 * n)
    for coeff, m in el.terms():
        j1, j2, k1, k2 = m.exponents
        assert j1 == 0 and j2 == 0
        angle = 0.5 * m.phase.a * theta + math.pi * m.phase.b
        w = coeff * complex(math.cos(angle), math.sin(angle))
        vec[index[(k1, k2)]] += w.real
        vec[n + index[(k1, k2)]] += w.imag
    return vec


class TestDerivation:
    def test_trivial_depth(self):
        assert derive_invariant_basis(0, GOLDEN) == [one()]

    def test_range_one_family(self):
        # identity, the axis element (nearest-neighbour hopping), and the
        # half-flux-twisted diagonal element
        basis = derive_invariant_basis(1, GOLDEN)
        assert len(basis) == 3
        assert basis[0] == one()
        assert basis[1] == harper_element()
        diagonal = AlgebraElement([
            (1.0, Monomial((0, 0, 1, 1), ExactPhase(1, 0, 0))),
            (1.0, Monomial((0, 0, -1, 1), ExactPhase(-1, 0, 0))),
            (1.0, Monomial((0, 0, -1, -1), ExactPhase(1, 0, 0))),
            (1.0, Monomial((0, 0, 1, -1), ExactPhase(-1, 0, 0))),
        ])
        assert basis[2] == diagonal

    def test_each_element_invariant_and_selfadjoint(self):
        for el in derive_invariant_basis(3, GOLDEN):
            assert is_invariant(el, GOLDEN)
            assert adjoint(el) == el

    @pytest.mark.parametrize("max_j", [1, 2, 3, 4])
    def test_matches_brute_force_oracle(self, max_j):
        # one ray per rotation orbit: identity + max_j axis + max_j^2 diagonal
        derived = derive_invariant_basis(max_j, GOLDEN)
        oracle_rref = brute_force_invariant_basis(max_j, GOLDEN.theta)
        assert len(derived) == len(oracle_rref) == 1 + max_j + max_j**2
        coords = np.array([element_coordinates(el, max_j, GOLDEN.theta)
                           for el in derived])
        derived_rref = _rref(coords)
        assert derived_rref.shape == np.array(oracle_rref).shape
        assert np.max(np.abs(derived_rref - np.array(oracle_rref))) < 1e-9

    def test_harper_element_is_range_one_axis_term(self):
        basis = derive_invariant_basis(4, GOLDEN)
        assert harper_element() == basis[1]

    @pytest.mark.parametrize("max_j", [40, 80])
    def test_orbit_figure_bounds_the_peak(self, max_j):
        # every one of the ((2J+1)^2 + 3)/4 rotation orbits survives, and the
        # budget check sizes the derivation by that count
        orbits = ((2 * max_j + 1) ** 2 + 3) // 4
        tracemalloc.start()
        try:
            basis = derive_invariant_basis(max_j, GOLDEN)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(basis) == orbits
        assert peak <= orbits * algebra._ORBIT_BYTES


class TestRendering:
    def test_term_format(self):
        x = AlgebraElement([(2.0, Monomial((2, -1, 0, 3), ExactPhase(1, 0, 0)))])
        assert str(x) == "(2+0i)·e^{iθ/2}·p1^2 p2^-1 q1^0 q2^3"

    def test_sum_and_scalar_format(self):
        assert str(one()) == "(1+0i)·p1^0 p2^0 q1^0 q2^0"
        h = harper_element()
        assert str(h).count(" + ") == 3
        assert "q1^-1" in str(h)

    def test_phase_rendering(self):
        assert str(ExactPhase(2, 0, 0)) == "e^{iθ}"
        assert str(ExactPhase(-1, 0, 0)) == "e^{-iθ/2}"
        assert str(ExactPhase(3, 1, 2)) == "e^{i(3θ/2+π+φ)}"
        assert str(ExactPhase(0, 0, 0)) == "1"

