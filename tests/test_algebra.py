"""Group-algebra arithmetic and the invariant-Hamiltonian derivation.

The derivation is cross-checked against an independent brute-force oracle:
a numeric nullspace solve of the invariance and selfadjointness constraints
over all monomials in an exponent box, canonicalized by row reduction.
"""

import hashlib
import math
import random
import tracemalloc

import numpy as np
import pytest

from fluxlattice import algebra, reporting
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


def word(j1, j2, k1, k2, phase=ExactPhase.identity()):
    return Monomial((j1, j2, k1, k2), phase)


def mono(j1, j2, k1, k2, phase=ExactPhase.identity(), coeff=1.0):
    return AlgebraElement([(coeff, word(j1, j2, k1, k2, phase))])


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


class TestContainerProtocol:
    def test_len_counts_the_terms(self):
        assert len(harper_element()) == 4
        assert len(AlgebraElement()) == 0

    def test_equal_elements_hash_equal(self):
        a, b = harper_element(), harper_element()
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b, one()}) == 2

    def test_repr_wraps_the_str(self):
        h = harper_element()
        assert repr(h) == f"AlgebraElement({h})"
        assert repr(AlgebraElement()) == "AlgebraElement(0)"

    def test_another_type_compares_by_identity(self):
        h = harper_element()
        assert h.__eq__(h.terms()) is NotImplemented
        assert h != h.terms()


def test_unknown_generator_names_the_four():
    with pytest.raises(ValueError, match=r"unknown generator 'p3'.*'p1', 'p2', 'q1', 'q2'"):
        generator("p3")


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


class TestSelfadjointRay:
    @pytest.mark.parametrize("orbit", [
        [word(0, 0, 1, 0)],
        [word(0, 0, 1, 0), word(0, 0, -1, 0, ExactPhase(1, 0, 0))],
        [word(0, 0, 1, 0), word(0, 0, -1, 0, ExactPhase(0, 1, 0))],
        [word(0, 0, 1, 0), word(0, 0, -1, 0), word(0, 0, 0, 1),
         word(0, 0, 0, -1, ExactPhase(2, 0, 0))],
    ], ids=["adjoint_exponent_missing", "odd_ratio", "pi_ratio", "ratio_not_constant"])
    def test_refusals(self, orbit):
        assert algebra._selfadjoint_ray(orbit) is None

    def test_even_ratio_is_normalized(self):
        c = algebra._selfadjoint_ray([word(0, 0, 1, 0), word(0, 0, -1, 0, ExactPhase(2, 0, 0))])
        assert c == (mono(0, 0, 1, 0, ExactPhase(-1, 0, 0))
                     + mono(0, 0, -1, 0, ExactPhase(1, 0, 0)))
        assert adjoint(c) == c


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

    def test_matches_the_product_path(self):
        # the path conjugate_by_translation replaced, compared term by term
        # with the coefficients' bits; the fixed elements put two terms on
        # one word, with pi parities 0 and 1 or with theta phases that the
        # conjugation moves onto each other's
        rand = random.Random("conjugate by translation")
        word = (1, -2, 0, 3)
        fixed = [
            AlgebraElement([(1.0, Monomial(word, ExactPhase(1, 0, 0))),
                            (2 - 1j, Monomial(word, ExactPhase(1, 1, 0)))]),
            AlgebraElement([(0.5j, Monomial(word, ExactPhase(0, 0, 0))),
                            (-3.25, Monomial(word, ExactPhase(4, 0, -1)))]),
        ]
        randoms = []
        for _ in range(40):
            terms = []
            for _ in range(rand.randint(1, 5)):
                exps = tuple(rand.randint(-3, 3) for _ in range(4))
                phase = ExactPhase(rand.randint(-4, 4), rand.randint(0, 1), rand.randint(-2, 2))
                terms.append((complex(rand.uniform(-2, 2), rand.uniform(-2, 2)),
                              Monomial(exps, phase)))
            randoms.append(AlgebraElement(terms))

        def bits(el):
            return [(c.real.hex(), c.imag.hex(), m) for c, m in el.terms()]
        for x in fixed + randoms:
            for gen in ("p1", "p2", "q1", "q2"):
                for power in range(-3, 4):
                    product_path = multiply(multiply(generator(gen, power), x),
                                            generator(gen, -power))
                    got = conjugate_by_translation(x, gen, power)
                    assert bits(got) == bits(product_path), (x, gen, power)

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

    def test_matches_the_conjugation_path(self):
        # the element equalities is_invariant replaced, on random elements
        # (almost never fixed), on their rotation-orbit sums over the q
        # sublattice (fixed) and over the p one (fixed by the quarter turn,
        # mostly not by the translations), on the derived candidates,
        # Harper and scalars, and on negative controls
        rand = random.Random("is_invariant termwise")

        def slow(x):
            return (conjugate_by_translation(x, "p1") == x
                    and conjugate_by_translation(x, "p2") == x
                    and conjugate_by_zeta(x) == x)

        def random_terms(p_words, q_words):
            terms = []
            for _ in range(rand.randint(1, 6)):
                j = [rand.randint(-2, 2) if p_words else 0 for _ in range(2)]
                k = [rand.randint(-2, 2) if q_words else 0 for _ in range(2)]
                phase = ExactPhase(rand.randint(-4, 4), rand.randint(0, 1), rand.randint(-2, 2))
                terms.append((complex(rand.randint(-3, 3), rand.randint(-3, 3)),
                              Monomial((*j, *k), phase)))
            return AlgebraElement(terms)

        def orbit_sum(x):
            total, cur = x, x
            for _ in range(3):
                cur = conjugate_by_zeta(cur)
                total = total + cur
            return total

        randoms = [random_terms(True, True) for _ in range(200)]
        q_orbits = [orbit_sum(random_terms(False, True)) for _ in range(60)]
        p_orbits = [orbit_sum(random_terms(True, False)) for _ in range(60)]
        candidates = derive_invariant_basis(4, GOLDEN)
        word = Monomial((0, 1, 0, 0), ExactPhase.identity())
        controls = [
            generator("p1"),
            candidates[7] + generator("p1"),
            # the p1 image of the first term is the second, but not back
            AlgebraElement([(1.0, word), (1.0, Monomial(word.exponents, ExactPhase(2, 0, 0)))]),
            # one coefficient of the range-1 diagonal element doubled
            candidates[2] + mono(0, 0, 1, 1, ExactPhase(1, 0, 0)),
            scalar(float("nan")),
            AlgebraElement([(complex("nan+1j"), m) for _c, m in harper_element().terms()]),
        ]
        fixed = [harper_element(), scalar(1.0), scalar(2.5 - 1j), scalar(float("inf")),
                 one() + harper_element(), *candidates, *q_orbits]
        for x in fixed:
            assert slow(x) and is_invariant(x, GOLDEN), x
        for x in controls:
            assert not slow(x) and not is_invariant(x, GOLDEN), x
        for x in randoms + p_orbits:
            assert is_invariant(x, GOLDEN) == slow(x), x
        assert sum(conjugate_by_zeta(x) == x and not slow(x) for x in p_orbits) >= 50

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

    @pytest.mark.parametrize("max_j,digest", [
        (6, "367bc61243994f3c3328565006a314d1a8751a6a33fa2a5efd5a27bb3047c25d"),
        (12, "10f82dceddb0ebca767290457f25d23a6b524b4827c5036ce8730e37c7d5e001"),
    ])
    def test_rendering_is_pinned(self, max_j, digest):
        # the exact text, element order and term order included; the oracle
        # above compares spans within a tolerance and stops at max_j 4
        text = "\n".join(map(str, derive_invariant_basis(max_j, GOLDEN)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("max_j", [0, 1, 6, 12])
    def test_basis_does_not_depend_on_the_irrational_flux(self, max_j):
        # the fact the kept basis rests on: theta stays a symbol, so fresh
        # derivations at any irrational flux agree element for element
        bases = []
        for flux in (GOLDEN, Flux.sqrt2(), Flux.parse("0.3183098862")):
            algebra._last_basis = None
            bases.append(derive_invariant_basis(max_j, flux))
        assert bases[0] == bases[1] == bases[2]
        assert len({"\n".join(map(str, basis)) for basis in bases}) == 1

    def test_a_candidate_that_is_not_invariant_is_dropped(self, monkeypatch):
        # every real candidate passes is_invariant; one that gains a p1 term
        # is not fixed by conjugation with p2 and must be left out
        clean = derive_invariant_basis(2, GOLDEN)
        algebra._last_basis = None  # derive the tainted basis, not read the clean one
        ray = algebra._selfadjoint_ray

        def tainted(orbit):
            candidate = ray(orbit)
            if any(m.exponents == (0, 0, 2, 1) for m in orbit):
                candidate = candidate + generator("p1")
            return candidate
        monkeypatch.setattr(algebra, "_selfadjoint_ray", tainted)
        basis = derive_invariant_basis(2, GOLDEN)
        dropped = [el for el in clean if el not in basis]
        assert len(basis) == len(clean) - 1 and len(dropped) == 1
        assert (0, 0, 2, 1) in {m.exponents for _c, m in dropped[0].terms()}
        assert basis == [el for el in clean if el is not dropped[0]]

    def test_elements_built_per_orbit(self, monkeypatch):
        # one element an orbit, the candidate; the orbit, its adjoint and
        # the three conjugates are read monomial by monomial
        built = count_builds(monkeypatch)
        assert len(derive_invariant_basis(6, GOLDEN)) == 43
        assert len(built) == 43

    def test_no_monomial_products(self, monkeypatch):
        # the conjugation phases are closed forms, not products g m g^-1
        calls = []
        mono_product = algebra._mono_product

        def counted(x, y):
            calls.append(None)
            return mono_product(x, y)
        monkeypatch.setattr(algebra, "_mono_product", counted)
        assert len(derive_invariant_basis(6, GOLDEN)) == 43
        assert calls == []
        multiply(generator("p1"), generator("p2"))
        assert len(calls) == 1

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


def count_builds(monkeypatch) -> list:
    """A list that gains one entry per AlgebraElement built from now on."""
    built = []
    init = AlgebraElement.__init__

    def counted(self, *args, **kwargs):
        built.append(None)
        init(self, *args, **kwargs)
    monkeypatch.setattr(AlgebraElement, "__init__", counted)
    return built


class TestKeptBasis:
    """The last derived basis is kept, keyed on max_j alone."""

    def test_a_hit_builds_no_element(self, monkeypatch):
        basis = derive_invariant_basis(6, GOLDEN)
        built = count_builds(monkeypatch)
        assert derive_invariant_basis(6, Flux.sqrt2()) == basis
        assert built == []

    def test_a_hit_returns_a_new_list(self):
        first = derive_invariant_basis(3, GOLDEN)
        kept = list(first)
        second = derive_invariant_basis(3, GOLDEN)
        assert second == kept and second is not first
        first.clear()
        second.reverse()
        assert derive_invariant_basis(3, GOLDEN) == kept

    def test_a_hit_still_refuses(self, monkeypatch):
        derive_invariant_basis(2, GOLDEN)
        with pytest.raises(RationalFluxError):
            derive_invariant_basis(2, Flux.rational(1, 3))
        with pytest.raises(ValueError, match="max_j must be nonnegative"):
            derive_invariant_basis(-1, GOLDEN)
        # 7 orbits at 4 KiB each, over a budget of 7 orbits less one byte
        monkeypatch.setattr(reporting, "ALLOCATION_BUDGET_BYTES", 7 * algebra._ORBIT_BYTES - 1)
        with pytest.raises(ValueError, match=r"max_j=2 \(7 orbits\).*allocation budget"):
            derive_invariant_basis(2, GOLDEN)

    def test_a_new_max_j_replaces_the_kept_basis(self, monkeypatch):
        derive_invariant_basis(2, GOLDEN)
        derive_invariant_basis(3, GOLDEN)
        built = count_builds(monkeypatch)
        assert len(derive_invariant_basis(3, GOLDEN)) == 13 and built == []
        assert len(derive_invariant_basis(2, GOLDEN)) == 7 and len(built) == 7

    def test_a_scan_that_raises_keeps_no_basis(self, monkeypatch):
        derive_invariant_basis(2, GOLDEN)
        ray = algebra._selfadjoint_ray

        def failing(orbit):
            if orbit[0].exponents == (0, 0, 3, 3):
                raise RuntimeError("scan interrupted")
            return ray(orbit)
        monkeypatch.setattr(algebra, "_selfadjoint_ray", failing)
        with pytest.raises(RuntimeError, match="scan interrupted"):
            derive_invariant_basis(3, GOLDEN)
        assert algebra._last_basis is None
        monkeypatch.setattr(algebra, "_selfadjoint_ray", ray)
        built = count_builds(monkeypatch)
        assert len(derive_invariant_basis(3, GOLDEN)) == 13 and len(built) == 13


class TestRendering:
    def test_term_format(self):
        x = AlgebraElement([(2.0, Monomial((2, -1, 0, 3), ExactPhase(1, 0, 0)))])
        assert str(x) == "(2+0i)·e^{iθ/2}·p1^2 p2^-1 q1^0 q2^3"

    def test_empty_element_is_zero(self):
        assert str(AlgebraElement()) == "0"

    def test_sum_and_scalar_format(self):
        assert str(one()) == "(1+0i)·p1^0 p2^0 q1^0 q2^0"
        h = harper_element()
        assert str(h).count(" + ") == 3
        assert "q1^-1" in str(h)

    def test_non_finite_coefficients(self):
        word = "·p1^0 p2^0 q1^0 q2^0"
        assert str(scalar(float("inf"))) == "(inf+0i)" + word
        assert str(scalar(float("nan"))) == "(nan+0i)" + word
        assert str(scalar(complex(0, float("-inf")))) == "(0-infi)" + word
        assert str(scalar(complex(-1.5, float("nan")))) == "(-1.5+nani)" + word

    def test_terms_in_word_then_phase_order(self):
        # a monomial sorts as (exponents, (a, b, c)), the order the text
        # pins rely on; compared with that key spelt out
        rand = random.Random("rendering order")
        for _ in range(300):
            terms = []
            for _ in range(rand.randint(1, 8)):
                exps = tuple(rand.randint(-2, 2) for _ in range(4))
                phase = ExactPhase(rand.randint(-3, 3), rand.randint(0, 1), rand.randint(-2, 2))
                terms.append((complex(rand.randint(-3, 3), 1), Monomial(exps, phase)))
            x = AlgebraElement(terms)
            ordered = sorted(x.terms(), key=lambda t: (t[1].exponents, t[1].phase.a,
                                                       t[1].phase.b, t[1].phase.c))
            assert str(x) == " + ".join(f"{algebra._fmt_coeff(c)}·{m}" for c, m in ordered)

    def test_phase_rendering(self):
        assert str(ExactPhase(2, 0, 0)) == "e^{iθ}"
        assert str(ExactPhase(-1, 0, 0)) == "e^{-iθ/2}"
        assert str(ExactPhase(3, 1, 2)) == "e^{i(3θ/2+π+φ)}"
        assert str(ExactPhase(0, 0, 0)) == "1"

