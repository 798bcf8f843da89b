"""Exact circle-group arithmetic for magnetic-flux phases.

A phase is e^{i(a*th/2 + b*pi + c*ph/2)} for an integer triple (a, b, c),
where th = 2*pi*Phi is the flux angle of the lattice problem and ph is a
free gauge angle, generically incommensurate with both th and pi.  Keeping
the integer triple instead of a complex number makes phase identities
decidable: for irrational Phi a phase is trivial iff a = 0, c = 0 and b is
even, while for rational Phi = nu/N the theta part folds into congruences
(a is reduced mod N with a parity carry of nu*(a // N) into the pi term,
since N half-units of th equal pi*nu).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

__all__ = [
    "ExactPhase",
    "Flux",
    "DualCharacter",
    "Classification",
    "RationalFluxError",
    "bicharacter",
    "cocycle",
    "coboundary",
    "mu",
    "classify",
    "wedge",
]

TWO_PI = 2.0 * math.pi

# Continued-fraction terms read off a float stop being trustworthy once the
# convergent denominator approaches 1/sqrt(machine eps).
_CF_DENOMINATOR_CAP = 10**7

_DECIMAL_RE = re.compile(r"^[+-]?(\d+\.\d*|\.\d+|\d+)$")
_RATIONAL_RE = re.compile(r"^([+-]?\d+)\s*/\s*(\d+)$")


class RationalFluxError(ValueError):
    """An operation that needs an irrational flux was given a rational one."""


class _PhaseTriple(NamedTuple):
    a: int
    b: int
    c: int


class ExactPhase(_PhaseTriple):
    """Element of the circle group, e^{i(a*th/2 + b*pi + c*ph/2)}.

    The group law, written *, is componentwise addition of the integer
    triples; the pi coefficient is kept canonical in {0, 1} since b and
    b + 2 give the same phase for every parameter value.  The triple is an
    immutable tuple, so hashing and equality run in C, as for
    algebra.Monomial (and + is tuple concatenation, not the group law).
    """

    __slots__ = ()

    def __new__(cls, a: int = 0, b: int = 0, c: int = 0) -> "ExactPhase":
        return tuple.__new__(cls, (a, b % 2, c))

    @classmethod
    def _make(cls, iterable) -> "ExactPhase":
        # _replace builds through _make, so it folds b too
        return cls(*iterable)

    @classmethod
    def identity(cls) -> "ExactPhase":
        return cls(0, 0, 0)

    def __mul__(self, other: "ExactPhase") -> "ExactPhase":
        if not isinstance(other, ExactPhase):
            return NotImplemented
        return ExactPhase(self.a + other.a, self.b + other.b, self.c + other.c)

    def inverse(self) -> "ExactPhase":
        return ExactPhase(-self.a, -self.b, -self.c)

    def __pow__(self, n: int) -> "ExactPhase":
        return ExactPhase(self.a * n, self.b * n, self.c * n)

    def reduce(self, flux: "Flux | None" = None) -> "ExactPhase":
        """Canonical representative, folding the rational-flux kernel.

        At flux nu/N, adding N theta-half-units multiplies the phase by
        e^{i*pi*nu}, so a is reduced mod N and the quotient carries its
        nu-parity into the pi coefficient.  Irrational flux (or none) leaves
        the triple as is.
        """
        if flux is None or not flux.is_rational:
            return self
        nu, den = flux.numerator, flux.denominator
        q, r = divmod(self.a, den)
        return ExactPhase(r, self.b + q * nu, self.c)

    def is_identity(self, flux: "Flux | None" = None) -> bool:
        ph = self.reduce(flux)
        return ph.a == 0 and ph.b == 0 and ph.c == 0

    def equals(self, other: "ExactPhase", flux: "Flux | None" = None) -> bool:
        return (self * other.inverse()).is_identity(flux)

    def evaluate(self, theta: float, phi: float = 0.0) -> complex:
        """Numeric value exp(i(a*theta/2 + b*pi + c*phi/2))."""
        angle = 0.5 * self.a * theta + math.pi * self.b + 0.5 * self.c * phi
        return complex(math.cos(angle), math.sin(angle))

    def __str__(self) -> str:
        parts = []
        if self.a:
            parts.append(_half_units(self.a, "θ"))
        if self.b:
            parts.append("π")
        if self.c:
            parts.append(_half_units(self.c, "φ"))
        if not parts:
            return "1"
        body = parts[0]
        for p in parts[1:]:
            body += p if p.startswith("-") else "+" + p
        if len(parts) > 1:
            return "e^{i(%s)}" % body
        return "e^{%si%s}" % ("-" if body.startswith("-") else "", body.lstrip("-"))


def _half_units(n: int, symbol: str) -> str:
    """Render n half-units of an angle, e.g. 3 -> '3th/2', -2 -> '-th'."""
    sign = "-" if n < 0 else ""
    n = abs(n)
    if n % 2 == 0:
        k = n // 2
        return f"{sign}{symbol}" if k == 1 else f"{sign}{k}{symbol}"
    return f"{sign}{symbol}/2" if n == 1 else f"{sign}{n}{symbol}/2"


def wedge(m: tuple[int, int], n: tuple[int, int]) -> int:
    """Integer symplectic form m1*n2 - m2*n1 on the square lattice."""
    return m[0] * n[1] - m[1] * n[0]


@dataclass(frozen=True)
class Flux:
    """Magnetic flux per plaquette, canonical mod one flux quantum.

    Either rational (a reduced fraction nu/N with 0 <= nu < N) or irrational
    (a float value in [0, 1), whose rational approximants `convergents`
    expands on demand).  The flux angle is th = 2*pi*Phi.
    """

    fraction: Fraction | None
    value: float

    @classmethod
    def rational(cls, numerator: int, denominator: int) -> "Flux":
        if denominator == 0:
            raise ValueError("flux denominator must be nonzero")
        fr = Fraction(numerator, denominator) % 1
        return cls(fraction=fr, value=float(fr))

    @classmethod
    def irrational(cls, value: float) -> "Flux":
        v = float(value)
        if not math.isfinite(v):
            raise ValueError("flux value must be finite")
        v %= 1.0
        return cls(fraction=None, value=v)

    @classmethod
    def golden(cls) -> "Flux":
        """(sqrt(5) - 1)/2, the usual worst-approximable test flux."""
        return cls.irrational((math.sqrt(5.0) - 1.0) / 2.0)

    @classmethod
    def sqrt2(cls) -> "Flux":
        """sqrt(2) - 1, continued fraction [0; 2, 2, 2, ...]."""
        return cls.irrational(math.sqrt(2.0) - 1.0)

    @classmethod
    def pi_fractional(cls) -> "Flux":
        """pi - 3."""
        return cls.irrational(math.pi - 3.0)

    @classmethod
    def parse(cls, text: str) -> "Flux":
        """Parse a flux spec: 'p/q' is rational; 'golden', 'sqrt2', 'pi' or a
        decimal literal give an irrational flux.  Decimals are treated as
        samples of an irrational value; use p/q for exact rational flux.  A
        decimal that is 0 mod 1 (0.0, 1, 3.0) is rejected: write 0/1.
        Unknown names are errors, never read as numbers."""
        text = text.strip()
        m = _RATIONAL_RE.match(text)
        if m:
            return cls.rational(int(m.group(1)), int(m.group(2)))
        named = {"golden": cls.golden, "sqrt2": cls.sqrt2, "pi": cls.pi_fractional}
        if text in named:
            return named[text]()
        if _DECIMAL_RE.match(text):
            if float(text) % 1.0 == 0.0:
                raise ValueError(f"flux spec {text!r} is 0 mod 1, which is rational; "
                                 f"write 0/1 for zero flux")
            return cls.irrational(float(text))
        raise ValueError(f"cannot parse flux spec {text!r}: expected p/q, "
                         f"golden, sqrt2, pi, or a decimal literal")

    @property
    def is_rational(self) -> bool:
        return self.fraction is not None

    @property
    def numerator(self) -> int:
        if self.fraction is None:
            raise RationalFluxError("irrational flux has no numerator")
        return self.fraction.numerator

    @property
    def denominator(self) -> int:
        if self.fraction is None:
            raise RationalFluxError("irrational flux has no denominator")
        return self.fraction.denominator

    @property
    def theta(self) -> float:
        return TWO_PI * self.value

    def require_irrational(self, operation: str) -> None:
        if self.is_rational:
            raise RationalFluxError(
                f"{operation} is defined here only for irrational flux: at "
                f"rational flux e^{{ijθ}} = 1 has nonzero solutions j, the "
                f"invariant algebra is strictly larger, and that regime is out "
                f"of scope for this package")

    def convergents(self, depth: int) -> list[Fraction]:
        """First `depth` continued-fraction convergents nu_i/q_i of Phi, by
        Euclid on the float's exact value; a depth past the last convergent
        whose denominator is within _CF_DENOMINATOR_CAP is refused."""
        if self.is_rational:
            raise RationalFluxError("approximants are for irrational flux; "
                                    "a rational flux is its own spectrum point")
        if depth < 1:
            raise ValueError("depth must be at least 1")
        num, den = self.value.as_integer_ratio()
        p_prev, q_prev, p_cur, q_cur = 1, 0, 0, 1
        out: list[Fraction] = []
        while num and len(out) < depth:
            a, rem = divmod(den, num)
            p_cur, p_prev = a * p_cur + p_prev, p_cur
            q_cur, q_prev = a * q_cur + q_prev, q_cur
            if q_cur > _CF_DENOMINATOR_CAP:
                break
            out.append(Fraction(p_cur, q_cur))
            den, num = num, rem
        if len(out) < depth:
            raise ValueError(
                f"depth {depth} exceeds the available continued-fraction "
                f"expansion ({len(out)} reliable terms)")
        return out

    def __str__(self) -> str:
        if self.is_rational:
            return f"{self.numerator}/{self.denominator}"
        return repr(self.value)


@dataclass(frozen=True)
class DualCharacter:
    """Character of the lattice, recorded by its values on (1,0) and (0,1)."""

    gen1: ExactPhase
    gen2: ExactPhase

    def value(self, m1: int, m2: int) -> ExactPhase:
        return self.gen1**m1 * self.gen2**m2

    def is_trivial(self, flux: Flux | None = None) -> bool:
        return self.gen1.is_identity(flux) and self.gen2.is_identity(flux)


@dataclass(frozen=True)
class Classification:
    """Type of the central extension selected by the flux."""

    kind: str  # "almost_heisenberg" | "rational_with_kernel"
    kernel: int | None = None

    def __str__(self) -> str:
        if self.kind == "rational_with_kernel":
            return f"rational_with_kernel({self.kernel})"
        return self.kind


def bicharacter(flux: Flux, m: tuple[int, int], n: tuple[int, int]) -> ExactPhase:
    """Commutator bicharacter c(m, n) = e^{i*th*(m wedge n)}."""
    return ExactPhase(2 * wedge(m, n), 0, 0).reduce(flux)


def cocycle(flux: Flux, m: tuple[int, int], n: tuple[int, int]) -> ExactPhase:
    """Skew-symmetric square root of the bicharacter, e^{i*th*(m wedge n)/2}."""
    return ExactPhase(wedge(m, n), 0, 0).reduce(flux)


def coboundary(phi_units: int, m: tuple[int, int], n: tuple[int, int]) -> ExactPhase:
    """Symmetric gauge coboundary e^{i*ph*u*(m1 n2 + m2 n1)}."""
    return ExactPhase(0, 0, 2 * phi_units * (m[0] * n[1] + m[1] * n[0]))


def mu(flux: Flux, m: tuple[int, int]) -> DualCharacter:
    """Commutator homomorphism into the dual, m -> (e^{-i*th*m2}, e^{i*th*m1})."""
    return DualCharacter(
        gen1=ExactPhase(-2 * m[1], 0, 0).reduce(flux),
        gen2=ExactPhase(2 * m[0], 0, 0).reduce(flux),
    )


def classify(flux: Flux) -> Classification:
    """Irrational flux gives an almost-Heisenberg extension (mu injective with
    dense image); rational nu/N gives mu with kernel (N*Z)^2."""
    if flux.is_rational:
        return Classification("rational_with_kernel", flux.denominator)
    return Classification("almost_heisenberg")
