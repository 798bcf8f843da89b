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
from .reporting import require_allocation

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
    """Normal-ordered word p1^j1 p2^j2 q1^k1 q2^k2 times an exact phase.
    The monomial kernels below build it with tuple.__new__, skipping the
    Python-level constructor."""

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
    return tuple.__new__(Monomial, (
        (a1 + c1, a2 + c2, b1 + d1, b2 + d2),
        ExactPhase(px.a + py.a + swaps, px.b + py.b, px.c + py.c),
    ))


def _mono_adjoint(x: Monomial) -> Monomial:
    """Adjoint of a unitary monomial: invert the word, then re-normal-order."""
    j1, j2, k1, k2 = x.exponents
    ph = x.phase
    reorder = -2 * j1 * j2 + 2 * k1 * k2
    return tuple.__new__(Monomial, (
        (-j1, -j2, -k1, -k2),
        ExactPhase(reorder - ph.a, -ph.b, -ph.c),
    ))


def _mono_zeta(x: Monomial) -> Monomial:
    """Quarter-turn conjugate: exponents (j1,j2,k1,k2) -> (-j2,j1,-k2,k1)."""
    j1, j2, k1, k2 = x.exponents
    ph = x.phase
    reorder = 2 * j1 * j2 - 2 * k1 * k2
    return tuple.__new__(Monomial, (
        (-j2, j1, -k2, k1),
        ExactPhase(ph.a + reorder, ph.b, ph.c),
    ))


def _mono_shifted(x: Monomial, shift: int) -> Monomial:
    """x with shift added to the theta part of its phase."""
    ph = x.phase
    return tuple.__new__(Monomial, (
        x.exponents,
        ExactPhase(ph.a + shift, ph.b, ph.c),
    ))


class AlgebraElement:
    """Finite sum of (complex coefficient, monomial) terms in canonical form:
    at most one term per (exponents, phase) key, zero coefficients dropped."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[complex, Monomial]] = ()):
        # a new monomial is hashed once, by the setdefault that stores it;
        # 0.0 + stores a -0.0 part as 0.0, as summing from zero does
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

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        # a monomial is the tuple (exponents, (a, b, c)): sorted by word, then phase
        return " + ".join(f"{_fmt_coeff(self._terms[mono])}·{mono}"
                          for mono in sorted(self._terms))

    def __repr__(self) -> str:
        return f"AlgebraElement({self})"


def _fmt_coeff(c: complex) -> str:
    def num(v: float) -> str:
        # is_integer is False for inf and nan, which int() would refuse
        return str(int(v)) if v.is_integer() else repr(v)
    sign = "-" if c.imag < 0 else "+"
    return f"({num(c.real)}{sign}{num(abs(c.imag))}i)"


def _generator_index(name: str) -> int:
    """Position of the generator name in a monomial's exponents."""
    if name not in GENERATOR_NAMES:
        raise ValueError(f"unknown generator {name!r}, expected one of {GENERATOR_NAMES}")
    return GENERATOR_NAMES.index(name)


def generator(name: str, power: int = 1) -> AlgebraElement:
    """The generator p1, p2, q1 or q2, optionally raised to an integer power."""
    exps = [0, 0, 0, 0]
    exps[_generator_index(name)] = power
    return AlgebraElement([(1.0, Monomial(tuple(exps), ExactPhase.identity()))])


def one() -> AlgebraElement:
    """The unit of the group algebra: coefficient 1 on the identity word."""
    return AlgebraElement([(1.0, Monomial((0, 0, 0, 0), ExactPhase.identity()))])


def scalar(coeff: complex) -> AlgebraElement:
    """coeff times the unit, a multiple of the identity word."""
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


# Conjugating a monomial by g^n adds n * _CONJUGATION_SHIFT[i] * e[i ^ 1]
# to its theta part, where i is g's position in the exponents e and i ^ 1
# its partner's: p1 adds +2n*j2, p2 -2n*j1, q1 -2n*k2 and q2 +2n*k1.
_CONJUGATION_SHIFT = (2, -2, -2, 2)


def conjugate_by_translation(x: AlgebraElement, gen: str, power: int = 1) -> AlgebraElement:
    """g^power * x * g^-power for a translation generator g.

    Exponents are unchanged; each monomial's theta part moves by an integer
    linear in the partner generator's exponent (see _CONJUGATION_SHIFT), the
    closed form of the normal-ordered product g^n m g^-n.  Only the result
    is built as an element; the map is injective on monomials, so no two
    terms merge.
    """
    i = _generator_index(gen)
    step = _CONJUGATION_SHIFT[i] * power
    return AlgebraElement([(c, _mono_shifted(m, step * m.exponents[i ^ 1]))
                           for c, m in x.terms()])


def conjugate_by_zeta(x: AlgebraElement) -> AlgebraElement:
    """Quarter-turn rotation conjugate; an algebra automorphism of order 4."""
    return AlgebraElement([(c, _mono_zeta(m)) for c, m in x.terms()])


def is_invariant(x: AlgebraElement, flux: Flux) -> bool:
    """True iff x is structurally fixed by conjugation with p1, p2 and the
    quarter turn.  Requires irrational flux, where fixedness of a monomial
    under both translations forces its p exponents to vanish.

    Decided term by term on x itself: each of the three maps is injective
    on monomials and keeps coefficients, so x is fixed iff every term's
    image is a term of x with an == coefficient, which is the element
    equality conjugate(x) == x (a nan coefficient is never fixed).  The p1
    and p2 images are conjugate_by_translation's, from its _CONJUGATION_SHIFT.
    """
    flux.require_irrational("the invariance analysis")
    terms = x._terms
    p1_step, p2_step = _CONJUGATION_SHIFT[:2]
    for m, c in terms.items():
        j1, j2, _k1, _k2 = m.exponents
        for img in (_mono_shifted(m, p1_step * j2), _mono_shifted(m, p2_step * j1), _mono_zeta(m)):
            if terms.get(img) != c:
                return False
    return True


def harper_element() -> AlgebraElement:
    """Nearest-neighbour hopping element q1 + q1^-1 + q2 + q2^-1, the
    symmetry-invariant Hamiltonian truncated to unit hops with scale 1 and
    additive constant 0."""
    return (generator("q1") + generator("q1", -1)
            + generator("q2") + generator("q2", -1))


def _selfadjoint_ray(orbit: list[Monomial]) -> AlgebraElement | None:
    """The unique selfadjoint normalization S of a rotation orbit's sum, if any.

    Writing S as u times the sum of the orbit's distinct monomials, with a
    constant unimodular u, selfadjointness reads u^2 = adjoint(sum)/sum
    termwise, so the per-exponent phase ratio must be constant and admit an
    exact half.  A ratio with a pi part is refused like an odd one:
    e^{i*pi/2} is no exact phase triple.  S is the only element built.
    """
    # the monomials of adjoint(sum): _mono_adjoint is injective, so no term merges
    by_exps = {m.exponents: m.phase for m in orbit}
    ratios: set[ExactPhase] = set()
    for m in map(_mono_adjoint, orbit):
        phase = by_exps.get(m.exponents)
        if phase is None:
            return None
        ratios.add(m.phase * phase.inverse())
    ratio = ratios.pop()
    if ratios or ratio.a % 2 or ratio.b or ratio.c % 2:
        return None
    half = ExactPhase(ratio.a // 2, 0, ratio.c // 2)
    return AlgebraElement((1.0, Monomial(m.exponents, half * m.phase)) for m in orbit)


# Bytes held per rotation orbit of hops while the basis is derived: every
# orbit survives, and tracemalloc puts each at 1.2-1.4 KB (max_j 6 to 200);
# rounded up past double for margin.
_ORBIT_BYTES = 4096

# (max_j, basis) of the last finished derivation; see derive_invariant_basis.
_last_basis: tuple[int, tuple[AlgebraElement, ...]] | None = None


def derive_invariant_basis(max_j: int, flux: Flux) -> list[AlgebraElement]:
    """Derive the selfadjoint symmetry-invariant family with hopping range
    up to max_j, by constraint elimination rather than by fiat.

    Invariance under the two translations is diagonal on monomials and, at
    irrational flux, kills every monomial with a nonzero p exponent (the
    exhaustive-scan property test covers this step), so the search runs over
    the q sublattice.  Each rotation orbit goes straight to its invariant
    sum in its unique selfadjoint normalization: the coefficient phase is
    half the commutation phase of the hop, e^{i*th*k1*k2/2}, i.e. half the
    flux through the rectangle the hop spans.  Axis hops (k1*k2 = 0)
    come out as the familiar q1^j + q1^-j + q2^j + q2^-j; diagonal hops
    survive too, carrying their half-plaquette phases.  Elements are ordered
    by hopping range, axis families before diagonal ones, so the range-1
    axis element (index 1) is the nearest-neighbour hopping Hamiltonian.
    A max_j whose orbits would hold more than the allocation budget is
    refused before the scan.

    At irrational flux the basis is a function of max_j alone: theta stays
    a symbol in every exact phase, and the flux only decides whether the
    analysis applies.  So the flux and max_j are checked on every call, in
    the order above, and only then is the last derived basis reused when
    max_j matches; each call returns a new list.  One basis is kept, at most
    the one the budget admitted: it is dropped before a new scan and the new
    one stored only once the scan has finished, so an old basis is never
    held beside a new one and a scan that raises leaves none behind.

    The scan visits one hop per orbit: (0, 0) and the max_j*(max_j + 1)
    hops with k1 > 0 and -k1 < k2 <= k1.  The quarter turn maps (k1, k2) to
    (-k2, k1), so the other three hops of the orbit, (-k2, k1), (-k1, -k2)
    and (k2, -k1), start below k1, except (k1, -k1) < (k1, k1) when
    k2 = k1: each visited hop is the lexicographic maximum of its orbit.
    Each orbit is walked with _mono_zeta to its first return to the hop, so
    its monomials are distinct; zeta^4 = 1, exact on phases, ends the walk.
    """
    flux.require_irrational("the invariant-basis derivation")
    if max_j < 0:
        raise ValueError("max_j must be nonnegative")
    orbits = max_j * (max_j + 1) + 1
    require_allocation(orbits * _ORBIT_BYTES,
                       f"the invariant basis through max_j={max_j} ({orbits} orbits)")
    global _last_basis
    kept = _last_basis
    if kept is not None and kept[0] == max_j:
        return list(kept[1])
    _last_basis = None

    # generated in the order of the basis: by range k1, the axis hop (k1, 0) first
    hops = ((k1, k2) for k1 in range(max_j + 1)
            for k2 in (0, *range(1 - k1, 0), *range(1, k1 + 1)))
    basis: list[AlgebraElement] = []
    for k1, k2 in hops:
        start = Monomial((0, 0, k1, k2), ExactPhase.identity())
        orbit = [start]
        while (img := _mono_zeta(orbit[-1])) != start:
            orbit.append(img)
        candidate = _selfadjoint_ray(orbit)
        if candidate is None or not is_invariant(candidate, flux):
            continue
        basis.append(candidate)
    _last_basis = (max_j, tuple(basis))
    return basis
