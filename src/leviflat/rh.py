"""Linear Riemann-Hilbert solver on the unit disc.

Solves the pure boundary problem: w holomorphic on the disc with
Re(conj(lambda) w) = g on the circle, for boundary coefficients lambda of
nonnegative winding number (the index kappa).  Factoring
lambda = e^{i kappa theta} lambda_0 with lambda_0 of winding zero, the
canonical function X = exp(i Schwarz(arg lambda_0)) makes conj(lambda_0) X
positive on the circle, which turns the condition into a Schwarz problem.
lambda and g are their n_theta samples at the angles DiscGrid.theta.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .calculus import (
    DiscGrid,
    continuous_argument,
    require_real,
    schwarz,
    winding_number,
)
from .errors import (
    NegativeIndexUnsupported,
    NoContraction,
    NonzeroIndex,
)


@dataclass
class RHProblem:
    """dbar w = 0 on D, Re(conj(lambda) w) = g on the circle; lam and g are
    samples at grid.theta, lam normalized to |lambda| = 1."""

    grid: DiscGrid
    lam: np.ndarray
    g: np.ndarray
    kappa: int = field(init=False)

    def __post_init__(self):
        n = self.grid.n_theta
        if len(self.lam) != n or len(self.g) != n:
            raise ValueError(f"lam and g must be {n} samples at grid.theta")
        mags = np.abs(self.lam)
        if mags.min() < 1e-8:
            raise ValueError("lambda must be nowhere zero on circle samples")
        # winding_number refuses non-finite samples before any division
        self.kappa = winding_number(self.lam)
        self.lam = np.asarray(self.lam, dtype=complex) / mags
        require_real(self.g, "RH boundary data g")
        self.g = np.real(self.g)


@dataclass
class RHSolutionFamily:
    """Affine solution family: the particular solution (R, n_theta) plus a
    real-linear homogeneous basis (2 kappa + 1, R, n_theta)."""

    particular: np.ndarray
    basis: np.ndarray
    kappa: int


def canonical_function(lam, grid: DiscGrid):
    """Zero-free holomorphic X with conj(lambda) X > 0 on the circle.

    Requires winding_number(lam) = 0; X = exp(i Schwarz(sigma)) with sigma a
    continuous argument of the samples lam.
    """
    sigma, w = continuous_argument(lam)
    if w != 0:
        raise NonzeroIndex(f"canonical function needs index 0, got {w}")
    return np.exp(1j * schwarz(sigma, grid))


def homogeneous_basis(kappa: int, grid: DiscGrid):
    """Holomorphic fields u with Re(e^{-i kappa theta} u) = 0 on the circle.

    Real dimension 2 kappa + 1: {i zeta^kappa} together with
    {zeta^k - zeta^(2 kappa - k), i (zeta^k + zeta^(2 kappa - k))} for k < kappa.
    """
    if kappa < 0:
        raise NegativeIndexUnsupported(f"index {kappa} < 0")
    # one row of Taylor coefficients per basis field, in the order above
    coeffs = np.zeros((2 * kappa + 1, 2 * kappa + 1), dtype=complex)
    coeffs[0, kappa] = 1j
    k = np.arange(kappa)
    coeffs[2 * k + 1, k], coeffs[2 * k + 1, 2 * kappa - k] = 1.0, -1.0
    coeffs[2 * k + 2, k] = coeffs[2 * k + 2, 2 * kappa - k] = 1j
    return grid.taylor_values(coeffs)


def _split_index(lam, kappa: int, grid: DiscGrid):
    """Factor lambda = e^{i kappa theta} lambda_0; returns X and conj(lam0) X."""
    lam0 = lam * np.exp(-1j * kappa * grid.theta)
    X = canonical_function(lam0, grid)
    P = np.real(np.conj(lam0) * X[-1])
    return X, P


def solve_rh(problem: RHProblem) -> RHSolutionFamily:
    """Solve the RH problem; returns a particular solution and basis.

    The particular solution is w = X zeta^kappa q, q holomorphic with
    Re q = g / P on the circle; the free constants are fixed so that
    Im w(1) = 0 and the remaining 2 kappa homogeneous coefficients are zero.
    The basis is the homogeneous basis transported by X.
    """
    if problem.kappa < 0:
        raise NegativeIndexUnsupported(f"index {problem.kappa} < 0")
    grid = problem.grid
    X, P = _split_index(problem.lam, problem.kappa, grid)
    q = schwarz(problem.g / P, grid)
    w = X * grid.zeta ** problem.kappa * q
    basis = X * homogeneous_basis(problem.kappa, grid)

    # theta = 0 is the first grid node: w[-1, 0] is w(1)
    denom = np.imag(basis[0, -1, 0])
    if abs(denom) < 1e-10:
        raise NoContraction("ImAtOne normalization is degenerate for this lambda")
    coef = np.imag(w[-1, 0]) / denom
    w = w - coef * basis[0]
    return RHSolutionFamily(particular=w, basis=basis, kappa=problem.kappa)
