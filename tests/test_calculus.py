"""Tests for the spectral disc calculus (grid, transforms, circle samples)."""

from math import comb

import numpy as np
import pytest

from leviflat.calculus import (
    DiscGrid,
    _jacobi_table,
    continuous_argument,
    schwarz,
    winding_number,
)
from leviflat.errors import NotReal, Underresolved, ZeroOnCircle


@pytest.fixture(scope="module")
def grid():
    return DiscGrid(64, 32)


def sup(values):
    return float(np.max(np.abs(values)))


class TestGrid:
    def test_area_quadrature_exact(self, grid):
        assert np.sum(grid.area_weights) == pytest.approx(np.pi, abs=1e-13)

    def test_moment_quadrature(self, grid):
        # int |z|^2 dA = pi/2
        assert np.sum(np.abs(grid.zeta) ** 2 * grid.area_weights) \
            == pytest.approx(np.pi / 2, abs=1e-13)

    def test_boundary_ring_has_zero_weight(self, grid):
        assert np.all(grid.area_weights[-1] == 0.0)
        assert grid.rho[-1] == 1.0

    def test_radial_derivative(self, grid):
        vals = np.broadcast_to(grid.rho[:, None] ** 3, grid.zeta.shape)
        drh = grid.d_rho @ vals
        assert np.max(np.abs(drh - 3 * grid.rho[:, None] ** 2)) < 1e-10


class TestDerivatives:
    def test_dbar_kills_holomorphic(self, grid):
        z = grid.zeta
        assert sup(grid.dbar_apply(z ** 3 + 2j * z - 0.5)) < 1e-11

    def test_dbar_conjugate(self, grid):
        assert sup(grid.dbar_apply(np.conj(grid.zeta)) - 1.0) < 1e-11

    def test_dz_polynomial(self, grid):
        assert sup(grid.dz_apply(grid.zeta ** 2) - 2 * grid.zeta) < 1e-10

    def test_product_rule_case(self, grid):
        # dbar(z conj(z)) = z
        z = grid.zeta
        assert sup(grid.dbar_apply(z * np.conj(z)) - z) < 1e-10

    def test_underresolved_guard(self, grid):
        rng = np.random.default_rng(0)
        noise = rng.standard_normal(grid.zeta.shape) \
            + 1j * rng.standard_normal(grid.zeta.shape)
        with pytest.raises(Underresolved):
            grid.dbar_apply(noise)


def _cg_quadrature_oracle(f, z0, n_r=600, n_phi=600):
    """Direct area-integral evaluation of the Cauchy-Green transform.

    T f(z) = -(1/pi) int_D f(w)/(w - z) dA(w); the singularity is subtracted
    using T(1) = conj(z): T f(z) = f(z) conj(z)
    - (1/pi) int (f(w) - f(z))/(w - z) dA.
    """
    r = (np.arange(n_r) + 0.5) / n_r
    phi = 2 * np.pi * (np.arange(n_phi) + 0.5) / n_phi
    w = r[:, None] * np.exp(1j * phi[None, :])
    dA = (r[:, None] / n_r) * (2 * np.pi / n_phi)
    fz = f(z0)
    num = f(w) - fz
    den = w - z0
    integrand = np.where(np.abs(den) > 1e-14, num / np.where(den == 0, 1, den),
                         0.0)
    return fz * np.conj(z0) - np.sum(integrand * dA) / np.pi


class TestCauchyGreen:
    CASES = [
        lambda z: np.ones_like(z),
        np.conj,
        lambda z: np.real(z) + 0j,
        lambda z: z ** 2 * np.conj(z),
        lambda z: np.exp(z) * np.conj(z) ** 2,
    ]

    @pytest.mark.parametrize("fn", CASES)
    def test_right_inverse(self, grid, fn):
        f = fn(grid.zeta)
        assert sup(grid.dbar_apply(grid.cg_apply(f)) - f) < 1e-6

    def test_t_of_one_is_zbar(self, grid):
        g = grid.cg_apply(np.ones_like(grid.zeta))
        assert sup(g - np.conj(grid.zeta)) < 1e-8

    @pytest.mark.parametrize("fn", [np.conj,
                                    lambda z: z ** 2 * np.conj(z),
                                    lambda z: np.exp(z) * np.conj(z) ** 2])
    def test_against_quadrature_oracle(self, grid, fn):
        """Independent singularity-subtracted area quadrature."""
        g = grid.cg_apply(fn(grid.zeta))
        for (i, j) in [(5, 3), (15, 20), (25, 50)]:
            z0 = grid.zeta[i, j]
            oracle = _cg_quadrature_oracle(fn, z0)
            assert abs(g[i, j] - oracle) < 2e-3

    def test_batched_matches_loop(self, grid):
        rng = np.random.default_rng(1)
        batch = rng.standard_normal((3, grid.n_radial, grid.n_theta)) + 0j
        stacked = grid.cg_apply(batch)
        for k in range(3):
            assert np.max(np.abs(stacked[k] - grid.cg_apply(batch[k]))) < 1e-13

    def test_operators_shared_per_shape(self):
        mats, shift = DiscGrid(32, 16).cg_operators()
        again = DiscGrid(32, 16).cg_operators()
        assert again[0] is mats and again[1] is shift
        with pytest.raises(ValueError):
            mats[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            shift[0] = 0

    def test_output_vanishes_nowhere_constraint(self, grid):
        # T maps into functions with no purely-holomorphic growth: dbar T f = f
        # and T f(0) has no zeta^0 holomorphic ambiguity for f = zbar^2
        g = grid.cg_apply(np.conj(grid.zeta) ** 2)
        # T(zbar^2) = zbar^3 / 3
        assert sup(g - np.conj(grid.zeta) ** 3 / 3.0) < 1e-10


def cg_einsum(grid, values):
    """cg_apply with its per-mode product as one complex einsum."""
    mats, shift = grid.cg_operators()
    F = np.fft.fft(values, axis=-1) / grid.n_theta
    out = np.einsum("mij,...jm->...im", mats, F)
    G = np.zeros_like(F)
    keep = shift >= 0
    G[..., :, shift[keep]] = out[..., :, keep]
    return np.fft.ifft(G * grid.n_theta, axis=-1)


class TestMatmulKernels:
    """The BLAS-backed products agree with their einsum forms."""

    def values(self, grid):
        rng = np.random.default_rng(3)
        shape = (2, grid.n_radial, grid.n_theta)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def test_cg_apply(self):
        grid = DiscGrid(32, 16)
        v = self.values(grid)
        ref = cg_einsum(grid, v)
        assert np.max(np.abs(grid.cg_apply(v) - ref)) \
            <= 1e-13 * np.max(np.abs(ref))

    def test_radial_derivative(self):
        grid = DiscGrid(32, 16)
        v = self.values(grid)
        ref = np.einsum("ij,...jm->...im", grid.d_rho, v)
        assert np.max(np.abs(grid._dtheta_drho(v)[1] - ref)) \
            <= 1e-13 * np.max(np.abs(ref))


class TestJacobiTable:
    """P_k^(0,a) by the three-term recurrence."""

    X = np.linspace(-1.0, 1.0, 2001)

    @pytest.mark.parametrize("a", [0, 1, 5, 32])
    def test_endpoints(self, a):
        table = _jacobi_table(16, a, np.array([1.0, -1.0]))
        at_minus_one = [(-1) ** k * comb(k + a, k) for k in range(17)]
        assert np.allclose(table[:, 0], 1.0, rtol=1e-13, atol=0)
        assert np.allclose(table[:, 1], at_minus_one, rtol=1e-13, atol=0)

    def test_legendre_at_a_zero(self):
        table = _jacobi_table(16, 0, self.X)
        for k in range(17):
            ref = np.polynomial.legendre.legval(self.X, np.eye(17)[k])
            assert np.max(np.abs(table[k] - ref)) <= 1e-13

    def test_shape(self):
        assert _jacobi_table(0, 3, np.zeros((4, 5))).shape == (1, 4, 5)
        assert _jacobi_table(3, 3, 0.5).shape == (4,)

    def test_matches_scipy(self):
        special = pytest.importorskip("scipy.special")
        # scipy's own eval_jacobi is off by up to 3.4e-11 on this grid (k 12,
        # a 17, x -0.465 against the exact rational sum), the recurrence by
        # 1e-12
        worst = 0.0
        for a in range(33):
            table = _jacobi_table(16, a, self.X)
            for k in range(17):
                ref = special.eval_jacobi(k, 0, a, self.X)
                worst = max(worst, np.max(np.abs(table[k] - ref)
                                          / np.maximum(1.0, np.abs(ref))))
        assert worst <= 1e-10


class TestSchwarzConjugate:
    def test_schwarz_of_cos(self):
        # Re w = cos(theta), Im w(0) = 0 gives w = zeta
        grid = DiscGrid(64, 32)
        w = schwarz(np.cos(grid.theta), grid)
        assert sup(w - grid.zeta) < 1e-13

    def test_schwarz_mean(self):
        w = schwarz(np.ones(64), DiscGrid(64, 32))
        assert sup(w - 1.0) < 1e-13

    def test_schwarz_refuses_a_complex_ring(self):
        th = 2 * np.pi * np.arange(64) / 64
        with pytest.raises(NotReal):
            schwarz(np.exp(1j * th), DiscGrid(64, 32))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_schwarz_refuses_non_finite_samples(self, bad):
        g = np.ones(64)
        g[5] = bad
        with pytest.raises(ValueError, match="finite"):
            schwarz(g, DiscGrid(64, 32))


class TestWinding:
    @pytest.mark.parametrize("k", [-2, 0, 1, 3])
    def test_pure_modes(self, k):
        th = 2 * np.pi * np.arange(64) / 64
        assert winding_number(np.exp(1j * k * th)) == k

    def test_zero_on_circle(self):
        th = 2 * np.pi * np.arange(64) / 64
        with pytest.raises(ZeroOnCircle):
            winding_number(np.exp(1j * th) - np.exp(1j * th))

    def test_continuous_argument(self):
        th = 2 * np.pi * np.arange(64) / 64
        sigma, w = continuous_argument(np.exp(1j * (2 * th + 0.3)))
        assert w == 2
        assert np.max(np.abs(np.exp(1j * sigma)
                             - np.exp(1j * (2 * th + 0.3)))) < 1e-12

    @pytest.mark.parametrize("fn", [winding_number, continuous_argument])
    def test_non_finite_samples(self, fn):
        samples = np.exp(2j * np.pi * np.arange(64) / 64)
        samples[7] = np.nan
        with pytest.raises(ValueError, match="finite"):
            fn(samples)


def schwarz_einsum(g, grid):
    """schwarz of the samples g as a radial x phase einsum over the modes
    1 .. n_theta/2, the Nyquist mode split evenly between +-n_theta/2."""
    half = grid.n_theta // 2
    F = np.fft.fft(g) / grid.n_theta
    vals = np.full((grid.n_radial, grid.n_theta), F[0], dtype=complex)
    ph = np.exp(1j * np.outer(grid.theta, np.arange(1, half + 1)))
    radial = grid.rho[:, None] ** np.arange(1, half + 1)[None, :]
    c = 2.0 * F[1:half + 1]
    c[-1] /= 2.0
    return vals + np.einsum("rk,tk->rt", radial * c[None, :], ph)


class TestSynthesis:
    """One Taylor synthesis (taylor_values) and one boundary interpolation
    (boundary_at) serve every field of the package."""

    def coeffs(self, shape, seed=4):
        rng = np.random.default_rng(seed)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    @pytest.mark.parametrize("lead", [(2,), (3, 2)])
    @pytest.mark.parametrize("size", [13, 70])   # 70 > n_theta folds
    def test_batches_match_from_taylor(self, grid, lead, size):
        c = self.coeffs(lead + (size,))
        vals = grid.taylor_values(c)
        assert vals.shape == lead + (grid.n_radial, grid.n_theta)
        for idx in np.ndindex(*lead):
            assert np.array_equal(vals[idx], grid.taylor_values(c[idx]))

    @pytest.mark.parametrize("size", [13, 70, 150])
    def test_matches_direct_sum(self, grid, size):
        c = self.coeffs(size) / (1.0 + np.arange(size))
        ref = sum(ck * grid.zeta ** k for k, ck in enumerate(c))
        assert np.max(np.abs(grid.taylor_values(c) - ref)) <= 1e-13

    def test_schwarz_matches_einsum(self, grid):
        th = grid.theta
        g = np.exp(np.cos(th)) + np.sin(2 * th) / (1.5 - np.cos(th))
        ref = schwarz_einsum(g, grid)
        assert sup(schwarz(g, grid) - ref) <= 1e-14

    def test_boundary_at(self, grid):
        rings = self.coeffs((3, 2, grid.n_theta)) / grid.n_theta
        th = np.array([0.0, 0.3, 2.0 * np.pi / 3.0, -1.7])
        out = grid.boundary_at(rings, th)
        assert out.shape == (3, 2, len(th))
        F = np.fft.fft(rings, axis=-1) / grid.n_theta
        ref = sum(F[..., j, None] * np.exp(1j * m * th)
                  for j, m in enumerate(grid.modes))
        assert np.max(np.abs(out - ref)) <= 1e-14
        assert np.array_equal(grid.boundary_at(rings[1, 0], th), out[1, 0])


class TestDiscField:
    """A disc field is its (R, n_theta) samples; the grid reads it off."""

    def test_from_taylor_boundary_eval(self, grid):
        f = grid.taylor_values([1.0, 0.5j, 0.25])
        th = np.array([0.0, 1.0, 2.5])
        z = np.exp(1j * th)
        ref = 1.0 + 0.5j * z + 0.25 * z ** 2
        assert sup(grid.boundary_at(f[-1], th) - ref) < 1e-13

    def test_center_extraction(self, grid):
        f = grid.taylor_values([2.0, 3.0 - 1j, 0.5])
        assert grid.center_value(f) == pytest.approx(2.0, abs=1e-12)
        assert grid.center_dz(f) == pytest.approx(3.0 - 1j, abs=1e-11)

    def test_laplacian_at_center(self, grid):
        # Delta |z|^2 = 4
        vals = np.abs(grid.zeta) ** 2
        assert grid.laplacian_at_center(vals) == pytest.approx(4.0, abs=1e-9)
