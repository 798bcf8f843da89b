"""Numerical check of the continuum planar-field theory on truncated modes.

Two independent oscillator modes are truncated to n_max states each.  One
mode carries the momentum pair with [P1, P2] = i*r, the other the velocity
pair with [Q1, Q2] = -i*r; all P commute with all Q.  The angular momentum
is L = (Q1^2 + Q2^2)/(2r) - (P1^2 + P2^2)/(2r) (additive constant fixed to
zero) and the Hamiltonian is H = (Q1^2 + Q2^2)/(2m), whose spectrum is
(r/m)(n - 1/2) with the whole retained momentum mode as degeneracy space.
Ladder truncation corrupts the top state, so every assertion is made on the
interior block with both mode indices <= n_max - 2.

Every operator is A⊗I (momentum mode), I⊗B (velocity mode) or a sum of the
two, so only the n_max x n_max single-mode factors are stored and every
check runs on them in O(n_max^3).  The one n_max^2-dimensional matrix the
class offers, the Hamiltonian `ham`, is assembled with np.kron only when
read, and cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .reporting import RelationReport
from .spectral import require_allocation

__all__ = [
    "LandauOperators",
    "build_landau",
    "hamiltonian_spectrum",
    "level_degeneracies",
    "bracket_report",
    "lorentz_check",
    "BRACKET_TOLERANCE",
    "LORENTZ_TOLERANCE",
]

BRACKET_TOLERANCE = 1e-10
LORENTZ_TOLERANCE = 1e-8


def _ladder(n: int) -> np.ndarray:
    a = np.zeros((n, n), dtype=complex)
    ks = np.arange(1, n)
    a[ks - 1, ks] = np.sqrt(ks)
    return a


def _comm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


@dataclass(eq=False)
class LandauOperators:
    """Truncated two-mode operators, stored as single-mode factors.

    With I the n_max x n_max identity, P1 = x⊗I, P2 = y⊗I, Q1 = I⊗x,
    Q2 = -I⊗y, L = I⊗S - S⊗I and H = I⊗ham_mode, where y carries the sign
    of r.  Only the full-space Hamiltonian `ham` is offered assembled; the
    checks in this module never read it.
    """

    r: float
    mass: float
    n_max: int
    x: np.ndarray         # x ⊗ I = P1, I ⊗ x = Q1
    y: np.ndarray         # y ⊗ I = P2, -I ⊗ y = Q2
    ham_mode: np.ndarray  # Hamiltonian restricted to the velocity mode
    s: float              # scalar in L + (P1^2+P2^2)/2r on the lowest level

    @property
    def ang_mode(self) -> np.ndarray:
        """S = (x^2 + y^2)/(2r), so that L = I⊗S - S⊗I."""
        return (self.x @ self.x + self.y @ self.y) / (2.0 * self.r)

    @cached_property
    def ham(self) -> np.ndarray:
        n = self.n_max
        require_allocation(n**4 * 16, f"the full-space Landau Hamiltonian at n_max={n}")
        return np.kron(np.eye(n), self.ham_mode)


def _interior_norm(factor: np.ndarray) -> float:
    """Interior-block Frobenius norm of factor⊗I, equally of I⊗factor.

    The interior block of A⊗I is A_int⊗I_int with I_int of size n_max - 1,
    so its norm is sqrt(n_max - 1) * ||A_int||.  Frobenius is an upper bound
    on the operator norm.
    """
    keep = factor.shape[0] - 1
    return math.sqrt(keep) * float(np.linalg.norm(factor[:keep, :keep]))


def build_landau(r: float, mass: float, n_max: int) -> LandauOperators:
    """Build the truncated operators for field strength r and mass m."""
    for name, value in (("r", r), ("mass", mass)):
        if not math.isfinite(value):
            raise ValueError(f"invalid parameters: {name} must be finite, got {value}")
    if r == 0:
        raise ValueError("invalid parameters: r must be nonzero")
    if mass <= 0:
        raise ValueError("invalid parameters: mass must be positive")
    if n_max < 4:
        raise ValueError("invalid parameters: n_max must be at least 4")
    require_allocation(3 * n_max * n_max * 16, f"the Landau factors at n_max={n_max}")

    a = _ladder(n_max)
    sgn = 1.0 if r > 0 else -1.0
    with np.errstate(all="ignore"):  # finite r and m can still overflow the factors
        scale = np.sqrt(abs(r) / 2.0)
        x = scale * (a + a.conj().T)
        y = sgn * scale * 1j * (a.conj().T - a)
        ham_mode = (x @ x + y @ y) / (2.0 * mass)
        ops = LandauOperators(r=r, mass=mass, n_max=n_max, x=x, y=y,
                              ham_mode=ham_mode, s=sgn * 0.5)
        if not all(np.isfinite(f).all() for f in (x, y, ham_mode, ops.ang_mode)):
            raise ValueError(f"invalid parameters: r={r} and m={mass} give non-finite operators")
    return ops


def _mode_spectrum(ops: LandauOperators, n_levels: int, n_max_needed: int) -> np.ndarray:
    """Every eigenvalue of ham_mode, once the truncation holds n_levels."""
    if n_levels < 0:
        raise ValueError(f"n_levels must be >= 0, got {n_levels}")
    if ops.n_max < n_max_needed:
        raise ValueError(f"truncation too small: n_levels={n_levels} needs "
                         f"n_max >= {n_max_needed}")
    return np.linalg.eigvalsh(ops.ham_mode)


def hamiltonian_spectrum(ops: LandauOperators, n_levels: int) -> np.ndarray:
    """Lowest n_levels eigenvalues of the Hamiltonian on the velocity mode;
    they match (|r|/m)(n - 1/2) for n = 1..n_levels while 2 * n_levels <= n_max
    (beyond n_max/2 the truncated top state pollutes the ladder)."""
    return _mode_spectrum(ops, n_levels, 2 * n_levels)[:n_levels]


def level_degeneracies(ops: LandauOperators, n_levels: int) -> list[int]:
    """Multiplicity of each of the lowest n_levels levels on the full
    two-mode space; each should equal the retained momentum-mode dimension.

    H = I⊗ham_mode repeats every single-mode eigenvalue n_max times.  Needs
    2 * n_levels < n_max: at even n_max the truncated top state sits at
    |r|(n_max - 1)/(2m), exactly level n_max/2, and would double its count.
    """
    mode = _mode_spectrum(ops, n_levels, 2 * n_levels + 1)
    return [ops.n_max * int(np.sum(np.abs(mode - lv) < LORENTZ_TOLERANCE))
            for lv in mode[:n_levels]]


def _bracket_residuals(ops: LandauOperators) -> list[tuple[str, float, str]]:
    """(name, interior residual, relation) for each defining bracket.

    A bracket between an A⊗I and an I⊗B vanishes identically, and L is
    assembled from the very expression the identity states, so those
    residuals are exactly zero, as they are on the assembled matrices.
    """
    x, y, s = ops.x, ops.y, ops.ang_mode
    ir = 1j * ops.r * np.eye(ops.n_max)
    return [
        ("bracket_p1_p2", _interior_norm(_comm(x, y) - ir), "[P1,P2] = ir"),
        ("bracket_q1_q2", _interior_norm(ir - _comm(x, y)), "[Q1,Q2] = -ir"),
        ("bracket_p1_q1", 0.0, "[P1,Q1] = 0"),
        ("bracket_p1_q2", 0.0, "[P1,Q2] = 0"),
        ("bracket_p2_q1", 0.0, "[P2,Q1] = 0"),
        ("bracket_p2_q2", 0.0, "[P2,Q2] = 0"),
        # [I⊗S - S⊗I, A⊗I] = -[S,A]⊗I and [I⊗S - S⊗I, I⊗B] = I⊗[S,B]
        ("bracket_L_p1", _interior_norm(-_comm(s, x) - 1j * y), "[L,P1] = iP2"),
        ("bracket_L_p2", _interior_norm(-_comm(s, y) + 1j * x), "[L,P2] = -iP1"),
        ("bracket_L_q1", _interior_norm(_comm(s, x) + 1j * y), "[L,Q1] = iQ2"),
        ("bracket_L_q2", _interior_norm(-_comm(s, y) + 1j * x), "[L,Q2] = -iQ1"),
        ("angular_momentum_identity", 0.0, "L = (Q^2 - P^2)/2r with constant 0"),
    ]


def _lorentz_residuals(ops: LandauOperators) -> list[tuple[str, float, str]]:
    """(name, interior residual, relation) for each equation of motion.

    H acts on the velocity mode only, so it commutes with P1 and P2
    identically.
    """
    x, y, h = ops.x, ops.y, ops.ham_mode
    rm = ops.r / ops.mass
    return [
        ("lorentz_q1", _interior_norm(1j * _comm(h, x) - rm * y),
         "dQ1/dt = i[H,Q1] = -(r/m) Q2"),
        ("lorentz_q2", _interior_norm(-1j * _comm(h, y) - rm * x),
         "dQ2/dt = i[H,Q2] = (r/m) Q1"),
        ("conserved_p1", 0.0, "[H,P1] = 0"),
        ("conserved_p2", 0.0, "[H,P2] = 0"),
        # [I⊗h, I⊗S - S⊗I] = I⊗[h,S]
        ("conserved_angular_momentum", _interior_norm(_comm(h, ops.ang_mode)),
         "[H,L] = 0"),
    ]


def _report(ops: LandauOperators, residuals_of, tol: float) -> RelationReport:
    """The residuals as checks within tol.  Finite operators can still
    overflow a product or a norm; a residual past the float range refuses
    the parameters instead of failing a check."""
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = residuals_of(ops)
    report = RelationReport()
    for name, residual, detail in residuals:
        if not math.isfinite(residual):
            raise ValueError(f"invalid parameters: r={ops.r} and m={ops.mass} "
                             f"overflow the float range of {name}")
        report.add(name, residual < tol, None,
                   f"{detail}, interior residual {residual:.3e}")
    return report


def bracket_report(ops: LandauOperators) -> RelationReport:
    """Interior-block residuals of the defining Lie brackets and of the
    angular-momentum identity, within BRACKET_TOLERANCE.  Raises ValueError
    when a residual overflows the float range (finite r and m can)."""
    return _report(ops, _bracket_residuals, BRACKET_TOLERANCE)


def lorentz_check(ops: LandauOperators) -> RelationReport:
    """Heisenberg equations of motion, within LORENTZ_TOLERANCE: the velocity
    pair rotates at rate r/m while momenta and angular momentum are conserved.
    Raises ValueError when a residual overflows the float range."""
    return _report(ops, _lorentz_residuals, LORENTZ_TOLERANCE)
