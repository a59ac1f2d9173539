"""Tests for the linear Riemann-Hilbert solver on the disc."""

import numpy as np
import pytest

from leviflat.calculus import BoundaryField, DiscField, DiscGrid, dbar
from leviflat.errors import NegativeIndexUnsupported, NonzeroIndex
from leviflat.rh import (
    RHProblem,
    canonical_function,
    homogeneous_basis,
    solve_rh,
)


@pytest.fixture(scope="module")
def grid():
    return DiscGrid(64, 32)


def boundary_residual(w, lam, g):
    lhs = np.real(np.conj(lam.samples()) * w.boundary_values)
    return float(np.max(np.abs(lhs - np.real(g.samples()))))


def interior_residual(w):
    return dbar(w).sup_norm()


class TestHolomorphicProblems:
    def test_w_equals_zeta(self, grid):
        lam = BoundaryField.from_samples(np.ones(64, dtype=complex))
        g = BoundaryField.from_function(64, np.cos)
        fam = solve_rh(RHProblem(grid=grid, lam=lam, g=g))
        assert np.max(np.abs(fam.particular.values - grid.zeta)) < 1e-8

    @pytest.mark.parametrize("kappa,dim", [(0, 1), (1, 3), (2, 5)])
    def test_family_dimension(self, grid, kappa, dim):
        th = 2 * np.pi * np.arange(64) / 64
        lam = BoundaryField.from_samples(np.exp(1j * kappa * th))
        g = BoundaryField.from_function(64, np.cos)
        fam = solve_rh(RHProblem(grid=grid, lam=lam, g=g))
        assert fam.kappa == kappa
        assert fam.dimension == dim
        # every basis element solves the homogeneous boundary problem
        zero_g = BoundaryField.from_samples(np.zeros(64, dtype=complex))
        for b in fam.basis:
            assert boundary_residual(b, lam, zero_g) < 1e-10
            assert interior_residual(b) < 1e-7
        # linear independence via the Gram matrix of boundary samples
        M = np.stack([np.concatenate([np.real(b.values.ravel()),
                                      np.imag(b.values.ravel())])
                      for b in fam.basis])
        smin = np.linalg.svd(M, compute_uv=False)[-1]
        assert smin > 1e-6

    def test_particular_boundary_residual(self, grid):
        th = 2 * np.pi * np.arange(64) / 64
        lam = BoundaryField.from_samples(np.exp(1j * th) * (2 + np.cos(th)))
        g = BoundaryField.from_function(64, lambda t: np.cos(2 * t) + 0.3)
        prob = RHProblem(grid=grid, lam=lam, g=g)
        fam = solve_rh(prob)
        assert boundary_residual(fam.particular, prob.lam, g) < 1e-8
        assert interior_residual(fam.particular) < 1e-7

    def test_superposition(self, grid):
        """particular + random basis combination still solves the problem."""
        th = 2 * np.pi * np.arange(64) / 64
        lam = BoundaryField.from_samples(np.exp(1j * th))
        g = BoundaryField.from_function(64, lambda t: np.cos(t))
        prob = RHProblem(grid=grid, lam=lam, g=g)
        fam = solve_rh(prob)
        rng = np.random.default_rng(5)
        coefs = rng.standard_normal(fam.dimension)
        w = fam.particular
        for c_k, u in zip(coefs, fam.basis):
            w = w + DiscField(grid, c_k * u.values)
        assert interior_residual(w) < 1e-8 * (1 + np.sum(np.abs(coefs)))
        assert boundary_residual(w, prob.lam, prob.g) < 1e-8 * (
            1 + np.sum(np.abs(coefs)))

    def test_im_at_one_normalization(self, grid):
        lam = BoundaryField.from_samples(np.ones(64, dtype=complex))
        g = BoundaryField.from_function(64, lambda t: np.cos(t) + 1.0)
        fam = solve_rh(RHProblem(grid=grid, lam=lam, g=g))
        w1 = fam.particular.eval_boundary([0.0])[0]
        assert abs(np.imag(w1)) < 1e-9

    def test_normalized_solution_unique(self, grid):
        """Two runs with different internals give the same normalized w."""
        lam = BoundaryField.from_samples(np.ones(64, dtype=complex))
        g = BoundaryField.from_function(64, lambda t: np.sin(t) ** 2)
        f1 = solve_rh(RHProblem(grid=grid, lam=lam, g=g))
        f2 = solve_rh(RHProblem(grid=grid, lam=lam, g=g))
        assert np.max(np.abs(f1.particular.values - f2.particular.values)) \
            < 1e-9


class TestCanonicalFunction:
    def test_positivity(self):
        th = 2 * np.pi * np.arange(64) / 64
        lam0 = np.exp(1j * 0.4 * np.sin(th))
        X = canonical_function(BoundaryField.from_samples(lam0))
        P = np.conj(lam0) * X.boundary_values
        assert np.max(np.abs(np.imag(P))) < 1e-10
        assert np.min(np.real(P)) > 0

    def test_nonzero_index_rejected(self):
        th = 2 * np.pi * np.arange(64) / 64
        with pytest.raises(NonzeroIndex):
            canonical_function(BoundaryField.from_samples(np.exp(1j * th)))

    def test_zero_free(self):
        th = 2 * np.pi * np.arange(64) / 64
        lam0 = np.exp(1j * 0.7 * np.cos(2 * th))
        X = canonical_function(BoundaryField.from_samples(lam0))
        assert np.min(np.abs(X.values)) > 0.1


class TestGuards:
    def test_negative_index(self, grid):
        th = 2 * np.pi * np.arange(64) / 64
        lam = BoundaryField.from_samples(np.exp(-1j * th))
        g = BoundaryField.from_function(64, np.cos)
        with pytest.raises(NegativeIndexUnsupported):
            solve_rh(RHProblem(grid=grid, lam=lam, g=g))

    def test_homogeneous_basis_negative_index(self):
        with pytest.raises(NegativeIndexUnsupported):
            homogeneous_basis(-1)

    def test_vanishing_lambda_rejected(self, grid):
        samples = np.ones(64, dtype=complex)
        samples[5] = 0.0
        with pytest.raises(ValueError):
            RHProblem(grid=grid, lam=BoundaryField.from_samples(samples),
                      g=BoundaryField.from_function(64, np.cos))
