"""Linear Riemann-Hilbert solver on the unit disc.

Solves the pure boundary problem: w holomorphic on the disc with
Re(conj(lambda) w) = g on the circle, for boundary coefficients lambda of
nonnegative winding number (the index kappa).  Factoring
lambda = e^{i kappa theta} lambda_0 with lambda_0 of winding zero, the
canonical function X = exp(i Schwarz(arg lambda_0)) makes conj(lambda_0) X
positive on the circle, which turns the condition into a Schwarz problem.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .calculus import (
    BoundaryField,
    DiscField,
    DiscGrid,
    continuous_argument,
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
    """dbar w = 0 on D, Re(conj(lambda) w) = g on the circle."""

    grid: DiscGrid
    lam: BoundaryField
    g: BoundaryField
    kappa: int = field(init=False)

    def __post_init__(self):
        samples = self.lam.samples()
        mags = np.abs(samples)
        if mags.min() < 1e-8:
            raise ValueError("lambda must be nowhere zero on circle samples")
        # normalize to |lambda| = 1
        self.lam = BoundaryField.from_samples(samples / mags)
        self.g.require_real("RH boundary data g")
        self.kappa = winding_number(self.lam)


@dataclass
class RHSolutionFamily:
    """Affine solution family: particular plus a real-linear homogeneous basis."""

    particular: DiscField
    basis: list
    kappa: int

    @property
    def dimension(self):
        return len(self.basis)


def canonical_function(lam: BoundaryField, grid: DiscGrid | None = None) -> DiscField:
    """Zero-free holomorphic X with conj(lambda) X > 0 on the circle.

    Requires winding_number(lam) = 0; X = exp(i Schwarz(sigma)) with sigma a
    continuous argument of lambda.
    """
    samples = lam.samples()
    samples = samples / np.abs(samples)
    sigma, w = continuous_argument(samples)
    if w != 0:
        raise NonzeroIndex(f"canonical function needs index 0, got {w}")
    sig_field = BoundaryField.from_samples(sigma.astype(complex))
    sig_field.coeffs = 0.5 * (sig_field.coeffs + np.conj(sig_field.coeffs[::-1]))
    if grid is None:
        grid = DiscGrid(lam.n_theta)
    S = schwarz(sig_field, grid)
    return DiscField(grid, np.exp(1j * S.values))


def homogeneous_basis(kappa: int, grid: DiscGrid | None = None) -> list:
    """Holomorphic fields u with Re(e^{-i kappa theta} u) = 0 on the circle.

    Real dimension 2 kappa + 1: {i zeta^kappa} together with
    {zeta^k - zeta^(2 kappa - k), i (zeta^k + zeta^(2 kappa - k))} for k < kappa.
    """
    if kappa < 0:
        raise NegativeIndexUnsupported(f"index {kappa} < 0")
    if grid is None:
        grid = DiscGrid()
    def mono(*pairs):
        coeffs = np.zeros(2 * kappa + 1, dtype=complex)
        for k, a in pairs:
            coeffs[k] += a
        return DiscField.from_taylor(grid, coeffs)
    out = [mono((kappa, 1j))]
    for k in range(kappa):
        out.append(mono((k, 1.0), (2 * kappa - k, -1.0)))
        out.append(mono((k, 1j), (2 * kappa - k, 1j)))
    return out


def _split_index(lam: BoundaryField, kappa: int, grid: DiscGrid):
    """Factor lambda = e^{i kappa theta} lambda_0; returns X and conj(lam0) X."""
    theta = 2.0 * np.pi * np.arange(lam.n_theta) / lam.n_theta
    samples = lam.samples()
    samples = samples / np.abs(samples)
    lam0 = samples * np.exp(-1j * kappa * theta)
    X = canonical_function(BoundaryField.from_samples(lam0), grid)
    P = np.real(np.conj(lam0) * X.boundary_values)
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
    gt = BoundaryField.from_samples(
        (np.real(problem.g.samples()) / P).astype(complex))
    gt.coeffs = 0.5 * (gt.coeffs + np.conj(gt.coeffs[::-1]))
    q = schwarz(gt, grid)
    w = DiscField(grid, X.values * grid.zeta ** problem.kappa * q.values)
    basis = [DiscField(grid, X.values * b_j.values)
             for b_j in homogeneous_basis(problem.kappa, grid)]

    b0 = basis[0]
    denom = np.imag(b0.eval_boundary([0.0])[0])
    if abs(denom) < 1e-10:
        raise NoContraction("ImAtOne normalization is degenerate for this lambda")
    coef = np.imag(w.eval_boundary([0.0])[0]) / denom
    w = w - DiscField(grid, coef * b0.values)
    return RHSolutionFamily(particular=w, basis=basis, kappa=problem.kappa)
