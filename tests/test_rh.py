"""Tests for the linear Riemann-Hilbert solver on the disc."""

import warnings

import numpy as np
import pytest

from leviflat.calculus import DiscGrid
from leviflat.errors import NegativeIndexUnsupported, NonzeroIndex, NotReal
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
    lhs = np.real(np.conj(lam) * w[-1])
    return float(np.max(np.abs(lhs - g)))


def interior_residual(w, grid):
    return float(np.max(np.abs(grid.dbar_apply(w))))


class TestHolomorphicProblems:
    def test_w_equals_zeta(self, grid):
        fam = solve_rh(RHProblem(grid=grid, lam=np.ones(64),
                                 g=np.cos(grid.theta)))
        assert np.max(np.abs(fam.particular - grid.zeta)) < 1e-8

    @pytest.mark.parametrize("kappa,dim", [(0, 1), (1, 3), (2, 5)])
    def test_family_dimension(self, grid, kappa, dim):
        th = grid.theta
        lam = np.exp(1j * kappa * th)
        fam = solve_rh(RHProblem(grid=grid, lam=lam, g=np.cos(th)))
        assert fam.kappa == kappa
        assert fam.basis.shape == (dim, grid.n_radial, grid.n_theta)
        # every basis element solves the homogeneous boundary problem
        for b in fam.basis:
            assert boundary_residual(b, lam, 0.0) < 1e-10
            assert interior_residual(b, grid) < 1e-7
        # linear independence via the Gram matrix of boundary samples
        M = np.stack([np.concatenate([np.real(b.ravel()), np.imag(b.ravel())])
                      for b in fam.basis])
        smin = np.linalg.svd(M, compute_uv=False)[-1]
        assert smin > 1e-6

    def test_particular_boundary_residual(self, grid):
        th = grid.theta
        lam = np.exp(1j * th) * (2 + np.cos(th))
        g = np.cos(2 * th) + 0.3
        prob = RHProblem(grid=grid, lam=lam, g=g)
        fam = solve_rh(prob)
        assert boundary_residual(fam.particular, prob.lam, g) < 1e-8
        assert interior_residual(fam.particular, grid) < 1e-7

    def test_superposition(self, grid):
        """particular + random basis combination still solves the problem."""
        th = grid.theta
        prob = RHProblem(grid=grid, lam=np.exp(1j * th), g=np.cos(th))
        fam = solve_rh(prob)
        rng = np.random.default_rng(5)
        coefs = rng.standard_normal(len(fam.basis))
        w = fam.particular + np.tensordot(coefs, fam.basis, axes=1)
        assert interior_residual(w, grid) < 1e-8 * (1 + np.sum(np.abs(coefs)))
        assert boundary_residual(w, prob.lam, prob.g) < 1e-8 * (
            1 + np.sum(np.abs(coefs)))

    def test_im_at_one_normalization(self, grid):
        fam = solve_rh(RHProblem(grid=grid, lam=np.ones(64),
                                 g=np.cos(grid.theta) + 1.0))
        w1 = grid.boundary_at(fam.particular[-1], [0.0])[0]
        assert abs(np.imag(w1)) < 1e-9

    def test_normalized_solution_unique(self, grid):
        """Two runs with different internals give the same normalized w."""
        lam, g = np.ones(64), np.sin(grid.theta) ** 2
        f1 = solve_rh(RHProblem(grid=grid, lam=lam, g=g))
        f2 = solve_rh(RHProblem(grid=grid, lam=lam, g=g))
        assert np.max(np.abs(f1.particular - f2.particular)) < 1e-9


class TestCanonicalFunction:
    def test_positivity(self, grid):
        lam0 = np.exp(1j * 0.4 * np.sin(grid.theta))
        X = canonical_function(lam0, grid)
        P = np.conj(lam0) * X[-1]
        assert np.max(np.abs(np.imag(P))) < 1e-10
        assert np.min(np.real(P)) > 0

    def test_nonzero_index_rejected(self, grid):
        with pytest.raises(NonzeroIndex):
            canonical_function(np.exp(1j * grid.theta), grid)

    def test_zero_free(self, grid):
        lam0 = np.exp(1j * 0.7 * np.cos(2 * grid.theta))
        X = canonical_function(lam0, grid)
        assert np.min(np.abs(X)) > 0.1


class TestGuards:
    def test_negative_index(self, grid):
        th = grid.theta
        with pytest.raises(NegativeIndexUnsupported):
            solve_rh(RHProblem(grid=grid, lam=np.exp(-1j * th),
                               g=np.cos(th)))

    def test_homogeneous_basis_negative_index(self, grid):
        with pytest.raises(NegativeIndexUnsupported):
            homogeneous_basis(-1, grid)

    def test_vanishing_lambda_rejected(self, grid):
        samples = np.ones(64, dtype=complex)
        samples[5] = 0.0
        with pytest.raises(ValueError):
            RHProblem(grid=grid, lam=samples, g=np.cos(grid.theta))

    def test_non_finite_lambda_rejected(self, grid):
        samples = np.ones(64, dtype=complex)
        samples[5] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                RHProblem(grid=grid, lam=samples, g=np.cos(grid.theta))

    def test_complex_g_rejected(self, grid):
        with pytest.raises(NotReal):
            RHProblem(grid=grid, lam=np.ones(64), g=np.exp(1j * grid.theta))

    @pytest.mark.parametrize("n_lam,n_g", [(32, 64), (64, 128)])
    def test_sample_count_must_match_grid(self, grid, n_lam, n_g):
        with pytest.raises(ValueError, match="64 samples"):
            RHProblem(grid=grid, lam=np.ones(n_lam), g=np.ones(n_g))
