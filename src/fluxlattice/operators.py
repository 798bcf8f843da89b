"""Exact unitary operators on the lattice given by site relabeling plus phase.

A BasisMapOperator sends the basis vector at site x to

    phase_form(x) * (basis vector at site_map(x)),

with site_map an affine map whose matrix is a signed permutation and with
phase_form an exact phase whose theta and gauge coefficients are integer
affine-plus-bilinear forms in the site coordinates.  The class is closed
under composition and inversion, so every group relation among the
translation and rotation operators is checked symbolically, with zero
tolerance; matrices appear only when an operator is truncated to a window.
Site maps, like the IntForms of the phase, are 1-D (the line) or 2-D (the
plane): each is applied, composed and inverted in closed form.

IntForm, PhaseForm, SiteMap and BasisMapOperator are immutable tuples
(NamedTuple classes, like phases.ExactPhase and algebra.Monomial), so
equality and hashing run in C; the composition kernels build their results
with tuple.__new__, skipping the Python-level constructor.  As for
ExactPhase, + on a SiteMap or an operator is tuple concatenation:
operators compose with @.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .phases import ExactPhase, Flux
from .reporting import RelationReport, require_allocation

__all__ = [
    "IntForm",
    "PhaseForm",
    "SiteMap",
    "BasisMapOperator",
    "DistinguishedRep",
    "WavefunctionRep",
    "TruncatedOperator",
    "commutator",
    "build_distinguished",
    "build_wavefunction",
    "verify_relations",
    "gauge_intertwiner",
    "gauge_report",
    "commutant_monomial_check",
    "CommutantReport",
    "truncate",
]


class IntForm(NamedTuple):
    """Integer-valued function of a lattice site: constant + linear terms
    plus, in two dimensions, one bilinear cross term m1*m2.

    Signed-permutation matrices never map the cross term onto squares, so
    the class is closed under precomposition with the site maps used here.
    """

    const: int
    lin: tuple[int, ...]
    bilin: int = 0

    @classmethod
    def zero(cls, dim: int) -> "IntForm":
        return cls(0, (0,) * dim)

    @property
    def dim(self) -> int:
        return len(self.lin)

    def evaluate(self, site: tuple[int, ...]) -> int:
        if len(site) == 1:
            return self.const + self.lin[0] * site[0]
        (a, b), (x1, x2) = self.lin, site
        return self.const + a * x1 + b * x2 + self.bilin * x1 * x2

    def coefficients(self) -> tuple[int, ...]:
        return (self.const, *self.lin, self.bilin)

    def __add__(self, other: "IntForm") -> "IntForm":
        return IntForm(self.const + other.const,
                       tuple(a + b for a, b in zip(self.lin, other.lin)),
                       self.bilin + other.bilin)

    def __neg__(self) -> "IntForm":
        return IntForm(-self.const, tuple(-a for a in self.lin), -self.bilin)

    def compose_affine(self, matrix: tuple[tuple[int, ...], ...],
                       shift: tuple[int, ...],
                       addend: "IntForm | None" = None) -> "IntForm":
        """The form x -> f(M x + t) + g(x) for the addend g (zero when
        omitted).  Each coefficient of the sum is built in the same pass as
        the precomposition, so composing two operators makes one IntForm per
        phase channel instead of a precomposed form and then its sum."""
        g = IntForm.zero(len(self.lin)) if addend is None else addend
        if len(self.lin) == 1:
            ((m,),), (t,), (a,) = matrix, shift, self.lin
            return tuple.__new__(IntForm, (self.const + a * t + g.const,
                                           (a * m + g.lin[0],), g.bilin))
        (m11, m12), (m21, m22) = matrix
        t1, t2 = shift
        (a, b), w = self.lin, self.bilin
        if w and (m11 * m21 or m12 * m22):
            raise ValueError("bilinear form does not stay in class under this map")
        g1, g2 = g.lin
        return tuple.__new__(IntForm, (
            self.const + a * t1 + b * t2 + w * t1 * t2 + g.const,
            (a * m11 + b * m21 + w * (m11 * t2 + m21 * t1) + g1,
             a * m12 + b * m22 + w * (m12 * t2 + m22 * t1) + g2),
            w * (m11 * m22 + m12 * m21) + g.bilin,
        ))


class PhaseForm(NamedTuple):
    """Site-dependent exact phase: theta and gauge channels are IntForms,
    the pi channel is a constant."""

    a: IntForm
    b: int
    c: IntForm

    @classmethod
    def zero(cls, dim: int) -> "PhaseForm":
        return cls(IntForm.zero(dim), 0, IntForm.zero(dim))

    @property
    def dim(self) -> int:
        return self.a.dim

    def evaluate(self, site: tuple[int, ...]) -> ExactPhase:
        return ExactPhase(self.a.evaluate(site), self.b, self.c.evaluate(site))

    def __add__(self, other: "PhaseForm") -> "PhaseForm":
        return PhaseForm(self.a + other.a, (self.b + other.b) % 2, self.c + other.c)

    def __neg__(self) -> "PhaseForm":
        return PhaseForm(-self.a, (-self.b) % 2, -self.c)

    def precompose(self, site_map: "SiteMap",
                   addend: "PhaseForm | None" = None) -> "PhaseForm":
        """The form x -> f(site_map(x)) + g(x) for the addend g (zero when
        omitted), one pass per channel."""
        g = PhaseForm.zero(self.dim) if addend is None else addend
        mat, shift = site_map
        return tuple.__new__(PhaseForm, (self.a.compose_affine(mat, shift, g.a),
                                         (self.b + g.b) % 2,
                                         self.c.compose_affine(mat, shift, g.c)))

    def is_identity(self, flux: Flux | None = None) -> bool:
        """Whether the phase is 1 at every site, for generic gauge angle and
        the given flux (generic theta when flux is None or irrational).

        The phase is affine-plus-bilinear in the site, so it is 1 everywhere
        iff each coefficient, read as an exact phase (the pi channel rides
        on the constant), is trivial; ExactPhase folds the rational kernel.
        """
        pairs = zip(self.a.coefficients(), self.c.coefficients())
        return all(ExactPhase(a, self.b if i == 0 else 0, c).is_identity(flux)
                   for i, (a, c) in enumerate(pairs))


@functools.cache
def _identity_matrix(dim: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim))


class SiteMap(NamedTuple):
    """Affine bijection of the line or the plane: signed-permutation matrix
    plus shift."""

    matrix: tuple[tuple[int, ...], ...]
    shift: tuple[int, ...]

    @classmethod
    def identity(cls, dim: int) -> "SiteMap":
        return cls(_identity_matrix(dim), (0,) * dim)

    @classmethod
    def translation(cls, shift: tuple[int, ...]) -> "SiteMap":
        return cls(_identity_matrix(len(shift)), tuple(shift))

    @property
    def dim(self) -> int:
        return len(self.shift)

    def apply(self, site: tuple[int, ...]) -> tuple[int, ...]:
        if len(site) == 1:
            ((m,),), (t,) = self.matrix, self.shift
            return (m * site[0] + t,)
        (m11, m12), (m21, m22) = self.matrix
        (x1, x2), (t1, t2) = site, self.shift
        return (m11 * x1 + m12 * x2 + t1, m21 * x1 + m22 * x2 + t2)

    def compose(self, other: "SiteMap") -> "SiteMap":
        """self after other: x -> M (N x + s) + t = M N x + (M s + t)."""
        shift = self.apply(other.shift)
        if len(shift) == 1:
            return tuple.__new__(SiteMap, (((self.matrix[0][0] * other.matrix[0][0],),),
                                           shift))
        (m11, m12), (m21, m22) = self.matrix
        (n11, n12), (n21, n22) = other.matrix
        return tuple.__new__(SiteMap, (((m11 * n11 + m12 * n21, m11 * n12 + m12 * n22),
                                        (m21 * n11 + m22 * n21, m21 * n12 + m22 * n22)),
                                       shift))

    def inverse(self) -> "SiteMap":
        # signed permutations are orthogonal, so the inverse matrix is the
        # transpose (in 1-D, +-1 is its own inverse)
        if len(self.shift) == 1:
            ((m,),), (t,) = self.matrix, self.shift
            return SiteMap(self.matrix, (-m * t,))
        (m11, m12), (m21, m22) = self.matrix
        t1, t2 = self.shift
        return SiteMap(((m11, m21), (m12, m22)),
                       (-m11 * t1 - m21 * t2, -m12 * t1 - m22 * t2))


class BasisMapOperator(NamedTuple):
    """Unitary acting by U|x> = phase_form(x) * |site_map(x)>."""

    site_map: SiteMap
    phase_form: PhaseForm

    @classmethod
    def identity(cls, dim: int) -> "BasisMapOperator":
        return cls(SiteMap.identity(dim), PhaseForm.zero(dim))

    @classmethod
    def scalar(cls, dim: int, phase: ExactPhase) -> "BasisMapOperator":
        pf = PhaseForm(IntForm(phase.a, (0,) * dim), phase.b, IntForm(phase.c, (0,) * dim))
        return cls(SiteMap.identity(dim), pf)

    @property
    def dim(self) -> int:
        return self.site_map.dim

    def apply(self, site: tuple[int, ...]) -> tuple[ExactPhase, tuple[int, ...]]:
        return self.phase_form.evaluate(site), self.site_map.apply(site)

    def __matmul__(self, other: "BasisMapOperator") -> "BasisMapOperator":
        """Composition self after other, computed exactly."""
        return tuple.__new__(BasisMapOperator, (
            self.site_map.compose(other.site_map),
            self.phase_form.precompose(other.site_map, other.phase_form),
        ))

    def inverse(self) -> "BasisMapOperator":
        inv_map = self.site_map.inverse()
        return BasisMapOperator(inv_map, -(self.phase_form.precompose(inv_map)))

    def __pow__(self, n: int) -> "BasisMapOperator":
        base = self if n >= 0 else self.inverse()
        out = BasisMapOperator.identity(self.dim)
        for _ in range(abs(n)):
            out = base @ out
        return out

    def equals(self, other: "BasisMapOperator", flux: Flux | None = None) -> bool:
        """Operator identity, exact, with phases compared modulo the flux
        kernel when a rational flux is given.  Without a rational flux the
        phases agree iff their theta and gauge forms are equal and their pi
        terms agree mod 2, so no form is built."""
        if self.site_map != other.site_map:
            return False
        x, y = self.phase_form, other.phase_form
        if flux is None or not flux.is_rational:
            return x.a == y.a and x.c == y.c and (x.b - y.b) % 2 == 0
        return (x + (-y)).is_identity(flux)

    def is_identity(self, flux: Flux | None = None) -> bool:
        return self.equals(BasisMapOperator.identity(self.dim), flux)


def commutator(x: BasisMapOperator, y: BasisMapOperator) -> BasisMapOperator:
    """The group commutator x y x^-1 y^-1."""
    return x @ y @ x.inverse() @ y.inverse()


@dataclass(frozen=True)
class DistinguishedRep:
    """Irreducible action of the magnetic translation pair on the line."""

    p1: BasisMapOperator
    p2: BasisMapOperator
    flux: Flux


@dataclass(frozen=True)
class WavefunctionRep:
    """Action of both translation pairs and the quarter turn on the plane."""

    p1: BasisMapOperator
    p2: BasisMapOperator
    q1: BasisMapOperator
    q2: BasisMapOperator
    zeta: BasisMapOperator
    flux: Flux


def build_distinguished(flux: Flux) -> DistinguishedRep:
    """p1 acts diagonally with phase e^{i*th*m}; p2 moves site m to m + 1."""
    p1 = BasisMapOperator(SiteMap.identity(1),
                          PhaseForm(IntForm(0, (2,)), 0, IntForm.zero(1)))
    p2 = BasisMapOperator(SiteMap.translation((1,)), PhaseForm.zero(1))
    return DistinguishedRep(p1, p2, flux)


def _plane_translation(axis: int, theta_coeff: int, gauge_coeff: int) -> BasisMapOperator:
    shift = (1, 0) if axis == 0 else (0, 1)
    other = 1 - axis
    a_lin = [0, 0]
    a_lin[other] = theta_coeff
    c_lin = [0, 0]
    c_lin[other] = gauge_coeff
    return BasisMapOperator(
        SiteMap.translation(shift),
        PhaseForm(IntForm(0, tuple(a_lin)), 0, IntForm(0, tuple(c_lin))),
    )


def build_wavefunction(flux: Flux, gauge_units: int = 0) -> WavefunctionRep:
    """The five operators on the plane in gauge u.  At gauge 0 the translation
    phases are e^{+-i*th*m2/2} and e^{-+i*th*m1/2} and the rotation is the
    bare quarter turn.  Gauge u conjugates all five by the gauge intertwiner
    S: each translation gains e^{i*u*ph*m_perp}, and the rotation S^-1 zeta S
    is built as the quarter turn after the diagonal phase e^{-2i*u*ph*m1*m2},
    so every group relation holds among the operators returned."""
    u = gauge_units
    zeta = BasisMapOperator(SiteMap(((0, -1), (1, 0)), (0, 0)),
                            PhaseForm(IntForm.zero(2), 0, IntForm(0, (0, 0), -4 * u)))
    return WavefunctionRep(
        p1=_plane_translation(0, +1, 2 * u),
        p2=_plane_translation(1, -1, 2 * u),
        q1=_plane_translation(0, -1, 2 * u),
        q2=_plane_translation(1, +1, 2 * u),
        zeta=zeta,
        flux=flux,
    )


def gauge_intertwiner(phi_units: int) -> BasisMapOperator:
    """Diagonal unitary with phase e^{-i*u*ph*m1*m2}.  Conjugating the
    gauge-zero translations with it produces the gauge-u translations; it
    does not commute with the bare rotation in general."""
    return BasisMapOperator(
        SiteMap.identity(2),
        PhaseForm(IntForm.zero(2), 0, IntForm(0, (0, 0), -2 * phi_units)),
    )


def _witness_site(lhs: BasisMapOperator, rhs: BasisMapOperator,
                  flux: Flux | None) -> tuple[int, ...] | None:
    """A site where the two operators act differently; None if they agree."""
    for site in itertools.product(range(3), repeat=lhs.dim):
        ph_l, target_l = lhs.apply(site)
        ph_r, target_r = rhs.apply(site)
        if target_l != target_r or not ph_l.equals(ph_r, flux):
            return site
    return None


def _check(report: RelationReport, name: str, lhs: BasisMapOperator,
           rhs: BasisMapOperator, flux: Flux, detail: str) -> None:
    holds = lhs.equals(rhs, flux)
    witness = None if holds else _witness_site(lhs, rhs, flux)
    report.add(name, holds, witness, detail)


def verify_relations(rep: DistinguishedRep | WavefunctionRep) -> RelationReport:
    """Check every defining group relation by symbolic composition.

    Failures never raise; each relation becomes a report entry with a
    witness site where the two sides act differently.
    """
    flux = rep.flux
    report = RelationReport()
    theta = BasisMapOperator.scalar(rep.p1.dim, ExactPhase(2, 0, 0))
    _check(report, "commutator_p1_p2", commutator(rep.p1, rep.p2), theta,
           flux, "p1 p2 p1^-1 p2^-1 = e^{iθ}")
    if isinstance(rep, DistinguishedRep):
        return report

    theta_inv = BasisMapOperator.scalar(2, ExactPhase(-2, 0, 0))
    _check(report, "commutator_q1_q2", commutator(rep.q1, rep.q2), theta_inv,
           flux, "q1 q2 q1^-1 q2^-1 = e^{-iθ}")
    for pname in ("p1", "p2"):
        for qname in ("q1", "q2"):
            p, q = getattr(rep, pname), getattr(rep, qname)
            _check(report, f"commutes_{pname}_{qname}", p @ q, q @ p,
                   flux, f"{pname} {qname} = {qname} {pname}")

    zeta_inv = rep.zeta.inverse()
    rotation_images = [
        ("rotation_conj_p1", rep.p1, rep.p2, "zeta p1 zeta^-1 = p2"),
        ("rotation_conj_p2", rep.p2, rep.p1.inverse(), "zeta p2 zeta^-1 = p1^-1"),
        ("rotation_conj_q1", rep.q1, rep.q2, "zeta q1 zeta^-1 = q2"),
        ("rotation_conj_q2", rep.q2, rep.q1.inverse(), "zeta q2 zeta^-1 = q1^-1"),
    ]
    for name, gen, image, detail in rotation_images:
        _check(report, name, rep.zeta @ gen @ zeta_inv, image, flux, detail)
    _check(report, "rotation_order_4", rep.zeta**4, BasisMapOperator.identity(2),
           flux, "zeta^4 = 1")
    return report


def gauge_report(flux: Flux, phi_units: int) -> RelationReport:
    """Check S W'(g) = W(g) S for the gauge intertwiner S and each translation
    g at gauge phi_units (W') and gauge zero (W); failures carry a witness."""
    s = gauge_intertwiner(phi_units)
    base = build_wavefunction(flux, 0)
    gauged = build_wavefunction(flux, phi_units)
    report = RelationReport()
    for name in ("p1", "p2", "q1", "q2"):
        _check(report, f"gauge_conj_{name}", s @ getattr(gauged, name),
               getattr(base, name) @ s, flux, f"S W'({name}) = W({name}) S")
    return report


@dataclass
class CommutantReport:
    """Outcome of the exhaustive commutant scan over a box of exponents."""

    commutant_exponents: list[tuple[int, int, int, int]]
    violations: list[tuple[int, int, int, int]]

    @property
    def passed(self) -> bool:
        return not self.violations


# Bytes held per q-word k1, k2 while the commutant is scanned: its entry in
# the phase lookup and its commutant word.  tracemalloc puts each at
# 190-245 B (max_exp 8 to 200), 220-275 B when every q-word has its own
# commutator phases, and up to 580 B at max_exp 3, where some 20 KB of
# operators and tables weigh on 49 q-words; rounded up for margin.
_Q_WORD_BYTES = 1024


def _scalar_phase(op: BasisMapOperator, what: str) -> ExactPhase:
    """The constant phase of a scalar operator: identity site map, no linear
    or bilinear phase terms.  Any other operator raises."""
    (a, b, c), dim = op.phase_form, op.dim
    if op.site_map != SiteMap.identity(dim) or not a[1:] == c[1:] == ((0,) * dim, 0):
        raise ValueError(f"{what} is not a scalar, so the commutant scan cannot "
                         f"decide words from generator commutators")
    return ExactPhase(a.const, b, c.const)


def commutant_monomial_check(flux: Flux, max_exp: int) -> CommutantReport:
    """Scan every word p1^j1 p2^j2 q1^k1 q2^k2 with |exponents| <= max_exp and
    record which commute exactly with both p1 and p2.  At irrational flux the
    commutant words must be exactly those with zero p exponents, supporting
    the tensor factorization of the plane representation.

    The translations generate a Heisenberg group (Zak, Phys. Rev. 134,
    A1602 (1964)): the commutator of each generator g with h (p1 or p2) is
    a central scalar c(g, h).  Central commutators multiply,
    [x y, h] = x [y, h] h x^-1 h^-1 = [y, h] [x, h], so c(g^e, h) =
    c(g, h)^e, a word's commutator with h is the product of the scalars of
    its four powers, and the word commutes with h (word h = h word) iff
    that product is 1.  Only the eight generator commutators are composed,
    three compositions each; the words themselves are decided by integer
    phase arithmetic.  The q-words are grouped by their pair of phases
    (with p1, with p2), and each p-part looks up the q-words whose pair
    cancels its own, so the box costs (2 max_exp + 1)^2 lookups, not
    (2 max_exp + 1)^4 word checks.  A commutator that is not a scalar
    would make the product rule invalid, so it raises ValueError.  The
    lookup and the commutant hold each q-word once, and a max_exp whose
    (2 max_exp + 1)^2 q-words would exceed the allocation budget is
    refused before the first composition.
    """
    flux.require_irrational("the commutant scan")
    if max_exp < 0:
        raise ValueError("max_exp must be nonnegative")
    side = 2 * max_exp + 1
    require_allocation(side * side * _Q_WORD_BYTES,
                       f"the commutant scan at max_exp={max_exp} ({side * side} q-words)")
    rep = build_wavefunction(flux)
    exponent_range = range(-max_exp, max_exp + 1)

    def commutator_phases(name: str) -> dict[int, tuple[ExactPhase, ExactPhase]]:
        """e -> (c(g^e, p1), c(g^e, p2)) for the generator g called name."""
        cs = [_scalar_phase(commutator(getattr(rep, name), getattr(rep, h)),
                            f"the commutator of {name} with {h}") for h in ("p1", "p2")]
        return {e: (cs[0] ** e, cs[1] ** e) for e in exponent_range}

    def times(x: tuple[ExactPhase, ...], y: tuple[ExactPhase, ...]) -> tuple[ExactPhase, ...]:
        return (x[0] * y[0], x[1] * y[1])

    p1s, p2s, q1s, q2s = map(commutator_phases, ("p1", "p2", "q1", "q2"))
    q_words: dict[tuple[ExactPhase, ...], list[tuple[int, int]]] = {}
    for k1, k2 in itertools.product(exponent_range, repeat=2):
        q_words.setdefault(times(q1s[k1], q2s[k2]), []).append((k1, k2))
    commutant = []
    violations = []
    for j1, j2 in itertools.product(exponent_range, repeat=2):
        cancelling = tuple(ph.inverse() for ph in times(p1s[j1], p2s[j2]))
        words = [(j1, j2, k1, k2) for k1, k2 in q_words.get(cancelling, ())]
        commutant += words
        if j1 or j2:
            violations += words
        else:
            held = set(words)
            violations += [(0, 0, k1, k2)
                           for k1, k2 in itertools.product(exponent_range, repeat=2)
                           if (0, 0, k1, k2) not in held]
    return CommutantReport(commutant, violations)


@dataclass(eq=False)
class TruncatedOperator:
    """Dense matrix of a basis-map operator over a coordinate window."""

    matrix: np.ndarray


def truncate(op: BasisMapOperator, window: tuple[tuple[int, int], ...],
             boundary: str, flux: Flux) -> TruncatedOperator:
    """Matrix of `op` over the basis points of `window` (inclusive bounds,
    lexicographic order).

    Open boundary zeroes the columns whose image leaves the window.  Periodic
    boundary wraps sites modulo the window lengths and demands that this is
    exact: rational flux, window lengths divisible by the flux denominator,
    and a phase form that is genuinely periodic under each wrap (phases with
    odd theta coefficients need a window of twice the denominator when the
    flux numerator is odd).
    """
    if len(window) != op.dim:
        raise ValueError("window dimension does not match the operator")
    lengths = tuple(max(0, hi - lo + 1) for lo, hi in window)
    n = math.prod(lengths)
    if not n:
        raise ValueError("window is empty")
    require_allocation(16 * n * n, f"the truncated matrix over {n} sites")

    if boundary == "periodic":
        if not flux.is_rational:
            raise ValueError("periodic truncation needs a rational flux")
        for axis, length in enumerate(lengths):
            if length % flux.denominator:
                raise ValueError(
                    f"incompatible periodicity: window length {length} on axis "
                    f"{axis} is not a multiple of the flux denominator "
                    f"{flux.denominator}")
            wrap = SiteMap.translation(tuple(length if i == axis else 0
                                             for i in range(op.dim)))
            drift = op.phase_form.precompose(wrap, -op.phase_form)
            if not drift.is_identity(flux):
                raise ValueError(
                    f"incompatible periodicity: the phase form is not periodic "
                    f"under a wrap of {length} on axis {axis} at flux {flux}")
            # the wrap moves every image by length times column `axis` of the map
            if any(length * row[axis] % l for row, l in zip(op.site_map.matrix, lengths)):
                raise ValueError("incompatible periodicity: site map does not "
                                 "descend to the torus")
    elif boundary != "open":
        raise ValueError(f"unknown boundary {boundary!r}")

    sites = list(itertools.product(*(range(lo, hi + 1) for lo, hi in window)))
    index = {s: i for i, s in enumerate(sites)}
    theta = flux.theta
    mat = np.zeros((n, n), dtype=complex)
    for col, site in enumerate(sites):
        phase, target = op.apply(site)
        if boundary == "periodic":
            target = tuple((t - lo) % length + lo
                           for t, (lo, _hi), length in zip(target, window, lengths))
        elif target not in index:
            continue
        mat[index[target], col] = phase.reduce(flux).evaluate(theta)
    return TruncatedOperator(mat)
