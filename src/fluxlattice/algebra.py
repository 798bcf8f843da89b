"""Exact noncommutative algebra of the doubled magnetic translation group.

Elements are finite complex combinations of normal-ordered monomials
p1^j1 p2^j2 q1^k1 q2^k2, where the p pair and the q pair are lattice
translation unitaries with

    p1 p2 p1^-1 p2^-1 = e^{i*th},    q1 q2 q1^-1 q2^-1 = e^{-i*th},

every p commuting with every q.  Reordering a product into normal form
emits one exact theta phase per transposition, so all identities below
are decided with integer arithmetic, never floating tolerances.  The
quarter-turn rotation acts by conjugation as p1 -> p2 -> p1^-1 and
q1 -> q2 -> q1^-1.

The algebra serves irrational flux only, where the commutator map is
injective and an exact phase triple is already canonical; the invariance
analysis refuses rational flux.  Coefficients are complex floats; phases
stay exact.  Equality compares (exponents, phase) term keys exactly.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, NamedTuple

from .phases import ExactPhase, Flux

__all__ = [
    "Monomial",
    "AlgebraElement",
    "generator",
    "one",
    "scalar",
    "multiply",
    "adjoint",
    "conjugate_by_translation",
    "conjugate_by_zeta",
    "is_invariant",
    "derive_invariant_basis",
    "harper_element",
]

GENERATOR_NAMES = ("p1", "p2", "q1", "q2")


class Monomial(NamedTuple):
    """Normal-ordered word p1^j1 p2^j2 q1^k1 q2^k2 times an exact phase."""

    exponents: tuple[int, int, int, int]
    phase: ExactPhase

    def __str__(self) -> str:
        j1, j2, k1, k2 = self.exponents
        word = f"p1^{j1} p2^{j2} q1^{k1} q2^{k2}"
        if self.phase.is_identity():
            return word
        return f"{self.phase}·{word}"


def _mono_product(x: Monomial, y: Monomial) -> Monomial:
    """Normal-ordered product of two monomials.

    Moving y's p1 block left past x's p2 block costs e^{-i*th} per
    transposition; the q blocks cost e^{+i*th} per transposition; p and q
    commute freely.
    """
    a1, a2, b1, b2 = x.exponents
    c1, c2, d1, d2 = y.exponents
    px, py = x.phase, y.phase
    swaps = -2 * a2 * c1 + 2 * b2 * d1
    return Monomial(
        (a1 + c1, a2 + c2, b1 + d1, b2 + d2),
        ExactPhase(px.a + py.a + swaps, px.b + py.b, px.c + py.c),
    )


def _mono_adjoint(x: Monomial) -> Monomial:
    """Adjoint of a unitary monomial: invert the word, then re-normal-order."""
    j1, j2, k1, k2 = x.exponents
    ph = x.phase
    reorder = -2 * j1 * j2 + 2 * k1 * k2
    return Monomial(
        (-j1, -j2, -k1, -k2),
        ExactPhase(reorder - ph.a, -ph.b, -ph.c),
    )


def _mono_zeta(x: Monomial) -> Monomial:
    """Quarter-turn conjugate: exponents (j1,j2,k1,k2) -> (-j2,j1,-k2,k1)."""
    j1, j2, k1, k2 = x.exponents
    ph = x.phase
    reorder = 2 * j1 * j2 - 2 * k1 * k2
    return Monomial(
        (-j2, j1, -k2, k1),
        ExactPhase(ph.a + reorder, ph.b, ph.c),
    )


class AlgebraElement:
    """Finite sum of (complex coefficient, monomial) terms in canonical form:
    at most one term per (exponents, phase) key, zero coefficients dropped."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[complex, Monomial]] = ()):
        # a new monomial is hashed once, by the setdefault that stores it
        # (hashing runs ExactPhase.__hash__ in Python); 0.0 + stores a -0.0
        # part as 0.0, as summing from zero does
        acc: dict[Monomial, complex] = {}
        for coeff, mono in terms:
            size = len(acc)
            total = acc.setdefault(mono, 0.0 + complex(coeff))
            if len(acc) == size:
                acc[mono] = total + complex(coeff)
        for mono in [m for m, c in acc.items() if c == 0]:
            del acc[mono]
        self._terms = acc

    def terms(self) -> list[tuple[complex, Monomial]]:
        return [(c, m) for m, c in self._terms.items()]

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(self.terms() + other.terms())

    def __rmul__(self, coeff: complex) -> "AlgebraElement":
        if isinstance(coeff, (int, float, complex)):
            return AlgebraElement([(coeff * c, m) for c, m in self.terms()])
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return multiply(self, other)
        if isinstance(other, (int, float, complex)):
            return self.__rmul__(other)
        return NotImplemented

    def phase_twisted(self, phase: ExactPhase) -> "AlgebraElement":
        """Multiply every term by a constant exact phase."""
        return AlgebraElement(
            [(c, Monomial(m.exponents, phase * m.phase)) for c, m in self.terms()])

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        rendered = []
        for mono in sorted(self._terms, key=lambda m: (m.exponents, m.phase.a, m.phase.b, m.phase.c)):
            coeff = self._terms[mono]
            piece = f"{_fmt_coeff(coeff)}·{mono}"
            rendered.append(piece)
        return " + ".join(rendered)

    def __repr__(self) -> str:
        return f"AlgebraElement({self})"


def _fmt_coeff(c: complex) -> str:
    def num(v: float) -> str:
        return str(int(v)) if v == int(v) else repr(v)
    sign = "+" if c.imag >= 0 else "-"
    return f"({num(c.real)}{sign}{num(abs(c.imag))}i)"


def generator(name: str, power: int = 1) -> AlgebraElement:
    """The generator p1, p2, q1 or q2, optionally raised to an integer power."""
    if name not in GENERATOR_NAMES:
        raise ValueError(f"unknown generator {name!r}, expected one of {GENERATOR_NAMES}")
    exps = [0, 0, 0, 0]
    exps[GENERATOR_NAMES.index(name)] = power
    return AlgebraElement([(1.0, Monomial(tuple(exps), ExactPhase.identity()))])


def one() -> AlgebraElement:
    return AlgebraElement([(1.0, Monomial((0, 0, 0, 0), ExactPhase.identity()))])


def scalar(coeff: complex) -> AlgebraElement:
    return AlgebraElement([(coeff, Monomial((0, 0, 0, 0), ExactPhase.identity()))])


def multiply(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Product in the group algebra, distributed over terms and re-normal-
    ordered with exact phases."""
    return AlgebraElement([(cx * cy, _mono_product(mx, my))
                           for (cx, mx), (cy, my) in product(x.terms(), y.terms())])


def adjoint(x: AlgebraElement) -> AlgebraElement:
    """Conjugate coefficients, invert phases, invert and reorder the words.
    An involution: adjoint(adjoint(x)) == x exactly."""
    return AlgebraElement(
        [(c.conjugate(), _mono_adjoint(m)) for c, m in x.terms()])


def conjugate_by_translation(x: AlgebraElement, gen: str, power: int = 1) -> AlgebraElement:
    """g^power * x * g^-power for a translation generator g.

    Exponents are unchanged; each monomial picks up the exact theta phase
    dictated by the commutation relations.
    """
    g = generator(gen, power)
    g_inv = generator(gen, -power)
    return multiply(multiply(g, x), g_inv)


def conjugate_by_zeta(x: AlgebraElement) -> AlgebraElement:
    """Quarter-turn rotation conjugate; an algebra automorphism of order 4."""
    return AlgebraElement([(c, _mono_zeta(m)) for c, m in x.terms()])


def is_invariant(x: AlgebraElement, flux: Flux) -> bool:
    """True iff x is structurally fixed by conjugation with p1, p2 and the
    quarter turn.  Requires irrational flux, where fixedness of a monomial
    under both translations forces its p exponents to vanish."""
    flux.require_irrational("the invariance analysis")
    return (conjugate_by_translation(x, "p1") == x
            and conjugate_by_translation(x, "p2") == x
            and conjugate_by_zeta(x) == x)


def harper_element() -> AlgebraElement:
    """Nearest-neighbour hopping element q1 + q1^-1 + q2 + q2^-1, the
    symmetry-invariant Hamiltonian truncated to unit hops with scale 1 and
    additive constant 0."""
    return (generator("q1") + generator("q1", -1)
            + generator("q2") + generator("q2", -1))


def _zeta_orbit(k: tuple[int, int]) -> tuple[tuple[int, int], ...]:
    orbit = []
    cur = k
    for _ in range(4):
        if cur not in orbit:
            orbit.append(cur)
        cur = (-cur[1], cur[0])
    return tuple(sorted(orbit))


def _selfadjoint_ray(orbit_sum: AlgebraElement) -> AlgebraElement | None:
    """The unique selfadjoint normalization of a rotation-orbit sum, if any.

    Writing the candidate as u * S with a constant unimodular u, the
    selfadjointness condition reads u^2 = adjoint(S)/S termwise, so the
    per-exponent phase ratio must be constant and admit an exact half.
    """
    adj = adjoint(orbit_sum)
    by_exps = {m.exponents: m.phase for _c, m in orbit_sum.terms()}
    ratio: ExactPhase | None = None
    for _c, m in adj.terms():
        phase = by_exps.get(m.exponents)
        if phase is None:
            return None
        r = m.phase * phase.inverse()
        if ratio is None:
            ratio = r
        elif ratio != r:
            return None
    assert ratio is not None
    if ratio.a % 2 or ratio.c % 2:
        return None
    u = ExactPhase(ratio.a // 2, 0, ratio.c // 2)
    candidate = orbit_sum.phase_twisted(u)
    if ratio.b:
        candidate = 1j * candidate
    return candidate


# Bytes held per rotation orbit of hops while the basis is derived: every
# orbit survives, and tracemalloc puts each at 1.7-2.0 KB; doubled for margin.
_ORBIT_BYTES = 4096


def derive_invariant_basis(max_j: int, flux: Flux) -> list[AlgebraElement]:
    """Derive the selfadjoint symmetry-invariant family with hopping range
    up to max_j, by constraint elimination rather than by fiat.

    Invariance under the two translations is diagonal on monomials and, at
    irrational flux, kills every monomial with a nonzero p exponent (the
    exhaustive-scan property test covers this step), so the search runs over
    the q sublattice.  Each rotation orbit is summed into an invariant
    element, then given its unique selfadjoint normalization: the coefficient
    phase is half the commutation phase of the hop, e^{i*th*k1*k2/2}, i.e.
    half the flux through the rectangle the hop spans.  Axis hops (k1*k2 = 0)
    come out as the familiar q1^j + q1^-j + q2^j + q2^-j; diagonal hops
    survive too, carrying their half-plaquette phases.  Elements are ordered
    by hopping range, axis families before diagonal ones, so the range-1
    axis element (index 1) is the nearest-neighbour hopping Hamiltonian.
    A max_j whose orbits would hold more than the allocation budget is
    refused before the scan.
    """
    # spectral imports this module, so its budget check is imported here
    from .spectral import require_allocation

    flux.require_irrational("the invariant-basis derivation")
    if max_j < 0:
        raise ValueError("max_j must be nonnegative")
    orbits = ((2 * max_j + 1) ** 2 + 3) // 4
    require_allocation(orbits * _ORBIT_BYTES,
                       f"the invariant basis through max_j={max_j} ({orbits} orbits)")

    seen: set[tuple[tuple[int, int], ...]] = set()
    survivors: list[tuple[tuple[int, int, int], AlgebraElement]] = []
    for k1 in range(-max_j, max_j + 1):
        for k2 in range(-max_j, max_j + 1):
            orbit = _zeta_orbit((k1, k2))
            if orbit in seen:
                continue
            seen.add(orbit)
            mono = AlgebraElement(
                [(1.0, Monomial((0, 0, k1, k2), ExactPhase.identity()))])
            s = AlgebraElement()
            img = mono
            for _ in range(len(orbit)):
                s = s + img
                img = conjugate_by_zeta(img)
            candidate = _selfadjoint_ray(s)
            if candidate is None or not is_invariant(candidate, flux):
                continue
            rep = max(orbit)
            reach = max(abs(rep[0]), abs(rep[1]))
            mixed = int(rep[0] != 0 and rep[1] != 0)
            survivors.append(((reach, mixed, *rep), candidate))

    survivors.sort(key=lambda item: item[0])
    return [el for _key, el in survivors]
