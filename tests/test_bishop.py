"""Tests for the elliptic-point theory and the Bishop disc solver."""

import numpy as np
import pytest

from leviflat import bishop as B
from leviflat import continuation as C
from leviflat import geometry as G
from leviflat.calculus import DiscField, DiscGrid
from leviflat.errors import (
    AdaptationFailure,
    ConfigError,
    NegativeGamma,
    NewtonStalled,
    NoContraction,
    Underresolved,
)
from leviflat.scenarios import make_scenario


@pytest.fixture(scope="module")
def grid():
    return DiscGrid(64, 32)


class TestClassification:
    def test_ranges(self):
        assert B.classify_point(0.0) == "elliptic"
        assert B.classify_point(0.99) == "elliptic"
        assert B.classify_point(1.0) == "parabolic"
        assert B.classify_point(2.0) == "hyperbolic"

    def test_negative_gamma(self):
        with pytest.raises(NegativeGamma):
            B.classify_point(-0.1)


class TestAdaptedModels:
    def test_ball_poles_validate(self):
        sc = make_scenario("ball")
        for pole in sc.poles:
            rep = B.validate_adapted(pole.model)
            assert rep["passed"]

    def test_perturbed_poles_validate(self):
        sc = make_scenario("perturbed-ball")
        for pole in sc.poles:
            assert B.validate_adapted(pole.model)["passed"]

    def test_bad_quadric_match_rejected(self):
        """A model whose defining pair has a spurious linear term fails."""
        sc = make_scenario("ball")
        model = sc.poles[0].model

        def bad_rho(w):
            w = np.asarray(w, dtype=float)
            base = model.rho(w)
            base = np.array(base, copy=True)
            base[..., 0] = base[..., 0] + 0.1 * w[..., 0]  # linear defect
            return base

        bad = B.EllipticPointModel(gamma=0.0, chart=model.chart, rho=bad_rho)
        with pytest.raises(AdaptationFailure):
            B.validate_adapted(bad)

    def test_nonvanishing_deformation_rejected(self):
        quad = make_scenario("model-quadric", gamma=0.3)
        const_A = lambda z: np.broadcast_to(
            0.05 * np.eye(2, dtype=complex), np.shape(z)[:-1] + (2, 2))
        chart = G.AmbientChart(A_fn=const_A)
        bad = B.EllipticPointModel(gamma=0.3, chart=chart,
                                   rho=quad.surface.rho_pair)
        with pytest.raises(AdaptationFailure):
            B.validate_adapted(bad)


class TestEllipseMap:
    def test_round_case(self):
        _, c = B.ellipse_map(0.0, 0.49)
        assert c[1] == pytest.approx(0.7, abs=1e-13)
        assert np.max(np.abs(c[2:])) < 1e-12 if len(c) > 2 else True

    def test_half_gamma_corner_value(self):
        # for gamma = 0.5, r = 1 the map sends 1 to the semi-minor vertex
        _, c = B.ellipse_map(0.5, 1.0)
        z1 = np.sum(np.asarray(c))
        assert z1 == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-10)

    @pytest.mark.parametrize("gamma,r", [(0.0, 1.0), (0.3, 0.5), (0.5, 1.0),
                                         (0.8, 0.25), (0.85, 1.0), (0.9, 0.5)])
    def test_boundary_on_ellipse(self, gamma, r):
        _, c = B.ellipse_map(gamma, r)
        th = np.linspace(0, 2 * np.pi, 181)
        z = np.polyval(np.asarray(c)[::-1], np.exp(1j * th))
        P = np.abs(z) ** 2 + gamma * np.real(z ** 2)
        assert np.max(np.abs(P - r)) < 1e-8

    def test_normalization(self):
        _, c = B.ellipse_map(0.4, 0.7)
        assert abs(c[0]) < 1e-13          # z(0) = 0
        assert np.imag(c[1]) == pytest.approx(0.0, abs=1e-12)
        assert np.real(c[1]) > 0          # z'(0) > 0

    @pytest.mark.parametrize("gamma", [0.3, 0.7])
    def test_scaling_in_r(self, gamma):
        """The ellipse {P < r} is sqrt(r) times {P < 1}, and so is its map."""
        _, unit = B.ellipse_map(gamma, 1.0)
        for r in (0.1, 0.5, 2.0):
            _, c = B.ellipse_map(gamma, r)
            m = min(len(c), len(unit))
            assert np.max(np.abs(c[:m] - np.sqrt(r) * unit[:m])) <= 1e-13

    def test_sampling_cap(self, monkeypatch):
        # gamma 0.7 needs 2048 samples
        monkeypatch.setattr(B, "MAX_ELLIPSE_N", 1024)
        with pytest.raises(Underresolved, match="1024 samples"):
            B.ellipse_map(0.7, 1.0)

    def test_invalid_parameters(self):
        with pytest.raises(NegativeGamma):
            B.ellipse_map(1.0, 1.0)
        with pytest.raises(ValueError):
            B.ellipse_map(0.5, -1.0)


class TestCarlsonRF:
    @pytest.mark.parametrize("args,value", [
        ((4.0, 4.0, 4.0), 0.5),                  # R_F(x, x, x) = x^(-1/2)
        ((0.0, 1.0, 1.0), np.pi / 2),
        ((0.0, 1.0, 2.0), 1.3110287771460599),   # the lemniscate constant
        ((0.0, 0.5, 1.0), 1.8540746773013719),   # K(1/sqrt 2)
    ])
    def test_closed_forms(self, args, value):
        assert B._carlson_rf(*args) == pytest.approx(value, rel=1e-15)

    def test_equal_complex_arguments(self):
        x = np.array([0.25, 2.0, 1j, -3.0 + 1j])
        assert np.allclose(B._carlson_rf(x, x, x), x ** -0.5,
                           rtol=1e-15, atol=0)

    @pytest.mark.parametrize("gamma", [0.1, 0.5, 0.7, 0.9])
    def test_matches_scipy_at_the_map_nodes(self, gamma):
        special = pytest.importorskip("scipy.special")
        a, b = np.sqrt(1.0 / (1.0 + gamma)), np.sqrt(1.0 / (1.0 - gamma))
        q = ((b - a) / (b + a)) ** 2
        j = np.arange(30)
        k = (2.0 * q ** 0.25 * np.sum(q ** (j * (j + 1)))
             / (1.0 + 2.0 * np.sum(q ** (j[1:] ** 2)))) ** 2
        n = 2048
        x = np.exp(1j * np.pi * (2 * np.arange(n) + 1) / n) / np.sqrt(k)
        args = (1 - x * x, 1 - k * k * x * x, 1)
        ref = special.elliprf(*args)
        err = np.abs(B._carlson_rf(*args) - ref) / np.abs(ref)
        assert np.max(err) <= 1e-14
        K = B._carlson_rf(0.0, 1.0 - k * k, 1.0).real
        assert K == pytest.approx(special.ellipk(k * k), rel=1e-14)


class TestModelFamily:
    def test_round_family_exact(self, grid):
        discs = B.model_family(0.0, [0.25, 0.5, 1.0], grid)
        for disc, r in zip(discs, [0.25, 0.5, 1.0]):
            ref = grid.taylor_values([0.0, np.sqrt(r)])
            assert np.max(np.abs(disc.f[0] - ref)) < 1e-8
            assert abs(disc.f[1, 0, 0] - r) < 1e-12

    def test_boundary_residuals(self, grid):
        discs = B.model_family(0.5, np.linspace(0.2, 1.0, 5), grid)
        for disc in discs:
            assert disc.diagnostics["boundary_residual"] < 1e-8

    def test_maximal_rank_in_r(self, grid):
        """d(disc)/dr has a nonvanishing z2 component (finite differences)."""
        r = 0.5
        dr = 1e-5
        d0, d1 = B.model_family(0.5, [r, r + dr], grid)
        dz2 = (d1.f[1] - d0.f[1]) / dr
        assert np.min(np.abs(dz2)) > 0.5

    def test_monotone_r_required(self, grid):
        with pytest.raises(ValueError):
            B.model_family(0.3, [0.5, 0.25], grid)


class TestBishopDiscRecord:
    """A disc is one (2, R, n_theta) array of finite samples on its grid."""

    def f(self, grid):
        return np.stack([grid.taylor_values([0.0, 0.5]),
                         grid.taylor_values([0.3])])

    def test_wrong_shape_rejected(self, grid):
        with pytest.raises(ValueError, match="do not match the grid"):
            B.BishopDisc(grid, self.f(grid)[0], h_coeffs=(), t=0.3)
        with pytest.raises(ValueError, match="do not match the grid"):
            B.BishopDisc(grid, self.f(grid)[:, :-1], h_coeffs=(), t=0.3)

    def test_nan_sample_rejected(self, grid):
        f = self.f(grid)
        f[1, 3, 5] = np.nan
        with pytest.raises(ValueError, match="finite"):
            B.BishopDisc(grid, f, h_coeffs=(), t=0.3)


class TestPsiOperator:
    def chart(self, strength=0.05):
        A0 = np.array([[0.35, 0.20 + 0.10j], [0.15 - 0.05j, 0.30]])

        def A_fn(z):
            z = np.asarray(z, dtype=float)
            z2 = z[..., 2] + 1j * z[..., 3]
            return strength * (1.0 - z2 ** 2)[..., None, None] * A0

        return G.AmbientChart(A_fn=A_fn)

    def test_roundtrip(self, grid):
        chart = self.chart()
        f = np.stack([
            DiscField.from_function(grid, lambda z: 0.3 * z + 0.1 * z ** 2).values,
            DiscField.from_function(grid, lambda z: 0.2 + 0.05 * z).values])
        back, _ = B.psi_inverse_values(chart, grid,
                                       psi_apply_values(chart, grid, f))
        assert np.max(np.abs(back[0] - f[0])) < 1e-11
        assert np.max(np.abs(back[1] - f[1])) < 1e-11

    def test_inverse_gives_j_holomorphic_disc(self, grid):
        chart = self.chart()
        h = np.stack([DiscField.from_taylor(grid, [0.1, 0.3, 0.05]).values,
                      DiscField.from_taylor(grid, [0.2, 0.05]).values])
        f, _ = B.psi_inverse_values(chart, grid, h)
        assert B.cr_residual_values(chart, grid, f) < 1e-8

    def test_identity_for_standard_structure(self, grid):
        sc = make_scenario("ball")
        h = np.stack([DiscField.from_taylor(grid, [0.0, 0.5]).values,
                      DiscField.from_taylor(grid, [0.3]).values])
        f, sweeps = B.psi_inverse_values(sc.chart, grid, h)
        assert sweeps == 0
        assert np.max(np.abs(f[0] - h[0])) < 1e-14
        assert np.max(np.abs(f[1] - h[1])) < 1e-14

    def test_no_contraction_for_large_deformation(self, grid):
        chart = self.chart(strength=6.0)
        h1 = DiscField.from_taylor(grid, [0.0, 1.0])
        h2 = DiscField.from_taylor(grid, [0.0])   # A is largest near z2 = 0
        with pytest.raises(NoContraction):
            B.psi_inverse_values(
                chart, grid,
                np.stack([h1.values, h2.values]))

    def test_batched_consistency(self, grid):
        chart = self.chart()
        h = np.stack([
            np.stack([DiscField.from_taylor(grid, [0.1 * k, 0.3]).values,
                      DiscField.from_taylor(grid, [0.2]).values])
            for k in range(3)])
        batch, _ = B.psi_inverse_values(chart, grid, h)
        for k in range(3):
            single, _ = B.psi_inverse_values(chart, grid, h[k])
            assert np.max(np.abs(batch[k] - single)) < 1e-12

    def test_warm_start_matches_cold(self, grid):
        # start from the correction h - f of a nearby solve
        chart = self.chart()

        def h_vals(c):
            return np.stack([DiscField.from_taylor(grid, [0.1, c, 0.05]).values,
                             DiscField.from_taylor(grid, [0.2, 0.05]).values])

        near, h = h_vals(0.3), h_vals(0.31)
        f_near, _ = B.psi_inverse_values(chart, grid, near)
        cold, cold_sweeps = B.psi_inverse_values(chart, grid, h)
        warm, warm_sweeps = B.psi_inverse_values(chart, grid, h,
                                                 start=h - (near - f_near))
        assert np.max(np.abs(warm - cold)) <= 1e-12
        assert 0 < warm_sweeps < cold_sweeps


def psi_apply_values(chart, grid, vals):
    """The forward resolution operator Psi: f -> f + T(A(f) dbar(conj f))."""
    return vals + B._psi_rhs(chart, grid, vals)


def full_psi_rhs(chart, grid, vals):
    """The Psi sweep with no shortcut, as a reference for the fast path."""
    dbar_conj = np.conj(grid.dz_apply(vals))
    A = chart.deformation_at(G.to_real(np.moveaxis(vals, -3, -1)))
    q = np.einsum("...ij,...j->...i", A, np.moveaxis(dbar_conj, -3, -1))
    return grid.cg_apply(np.moveaxis(q, -1, -3))


def full_cr_residual(chart, grid, vals):
    dbar_conj = np.conj(grid.dz_apply(vals))
    A = chart.deformation_at(G.to_real(np.moveaxis(vals, -3, -1)))
    q = np.einsum("...ij,...j->...i", A, np.moveaxis(dbar_conj, -3, -1))
    return float(np.max(np.abs(grid.dbar_apply(vals)
                               + np.moveaxis(q, -1, -3))))


class TestZeroDeformationFastPath:
    """Where A = 0 Psi is skipped; the results match the full sweep exactly."""

    def h_vals(self, grid):
        return np.stack([DiscField.from_taylor(grid, [0.1, 0.5, 0.2j]).values,
                         DiscField.from_taylor(grid, [0.3, 0.05]).values])

    def test_psi_skips_the_sweep(self, grid, monkeypatch):
        chart = make_scenario("ball").chart
        h = self.h_vals(grid)

        def forbidden(self, values):
            raise AssertionError("Psi sweep where A = 0")

        monkeypatch.setattr(DiscGrid, "dz_apply", forbidden)
        monkeypatch.setattr(DiscGrid, "cg_apply", forbidden)
        f, sweeps = B.psi_inverse_values(chart, grid, h)
        assert f is not h and np.array_equal(f, h) and sweeps == 0
        g = psi_apply_values(chart, grid, h)
        assert g is not h and np.array_equal(g, h)
        f = np.stack([np.conj(grid.zeta), h[1]])
        assert B.cr_residual_values(chart, grid, f) \
            == float(np.max(np.abs(grid.dbar_apply(f))))

    @pytest.mark.parametrize("name", ["ball", "weak-m2", "model-quadric"])
    def test_matches_full_sweep(self, grid, name):
        chart = make_scenario(name).chart
        h = self.h_vals(grid)
        assert np.array_equal(psi_apply_values(chart, grid, h),
                              h + full_psi_rhs(chart, grid, h))
        assert np.array_equal(B.psi_inverse_values(chart, grid, h)[0],
                              h - full_psi_rhs(chart, grid, h))
        # cr_residual keeps measuring sup |dbar f|: nonzero for f = conj zeta
        f = np.stack([np.conj(grid.zeta), h[1]])
        for vals in (h, f):
            assert B.cr_residual_values(chart, grid, vals) \
                == full_cr_residual(chart, grid, vals)
        assert B.cr_residual_values(chart, grid, f) > 0.4

    def test_perturbed_chart_keeps_the_sweep(self, grid):
        chart = make_scenario("perturbed-ball").chart
        h = self.h_vals(grid)
        assert np.array_equal(psi_apply_values(chart, grid, h),
                              h + full_psi_rhs(chart, grid, h))
        assert B.cr_residual_values(chart, grid, h) \
            == full_cr_residual(chart, grid, h)

    def test_family_unchanged(self, monkeypatch):
        sc = make_scenario("ball")
        leaves = C.reference_leaves(sc)
        grid = DiscGrid(32, 16)

        def family():
            return C.continue_family(sc, leaves, 0.30, 0.36, grid=grid,
                                     n_taylor=12)

        fast = family()
        monkeypatch.setattr(B, "_psi_rhs", full_psi_rhs)
        monkeypatch.setattr(B, "cr_residual_values", full_cr_residual)
        slow = family()
        assert np.array_equal(fast.t_values, slow.t_values)
        for a, b in zip(fast.discs, slow.discs):
            # the one difference: the fast path runs no sweep, so it
            # needs no exact re-solve of a loosely solved disc either
            assert a.diagnostics.pop("psi_sweeps") == 0
            assert b.diagnostics.pop("psi_sweeps") > 0
            assert a.diagnostics.pop("psi_solves") \
                < b.diagnostics.pop("psi_solves")
            assert a.diagnostics == b.diagnostics
            for ca, cb in zip(a.h_coeffs, b.h_coeffs):
                assert np.array_equal(ca, cb)


def full_jacobian_solve(sc, init, pins, n_taylor, newton_tol=1e-10,
                        max_iter=25, fd_step=1e-6):
    """Gauss-Newton with every Jacobian column through Psi^-1: a reference
    for bishop_solve, which differences the rows at the boundary of h."""
    chart, grid = sc.chart, init.grid
    n = n_taylor + 1
    coeffs = np.zeros((2, n), dtype=complex)
    for c, init_c in zip(coeffs, init.h_coeffs):
        c[:min(n, len(init_c))] = init_c[:n]
    x = G.to_real(coeffs.reshape(-1))

    def residual(xb):
        vals = grid.taylor_values(
            G.to_complex(xb).reshape(xb.shape[:-1] + (2, n)))
        f, _ = B.psi_inverse_values(chart, grid, vals)
        return B._residual_rows(sc.surface, pins, grid, f[..., -1, :])

    r0 = residual(x)
    best = float(np.max(np.abs(r0)))
    for _ in range(max_iter):
        if best <= newton_tol:
            break
        steps = fd_step * np.maximum(1.0, np.abs(x))
        rb = residual(x[None, :] + np.diag(steps))
        J = (rb - r0[None, :]).T / steps[None, :]
        dx = np.linalg.lstsq(J, -r0, rcond=None)[0]
        for k in range(9):
            xt = x + dx * 0.5 ** k
            rt = residual(xt)
            if float(np.max(np.abs(rt))) < best:
                x, r0, best = xt, rt, float(np.max(np.abs(rt)))
                break
        else:
            raise AssertionError("reference Gauss-Newton stalled")
    assert best <= newton_tol
    return G.to_complex(x).reshape(2, n)


class TestStandardStructureJacobian:
    """bishop_solve differences its Jacobian without Psi^-1."""

    def solve_input(self, name, resolution, n_taylor, t=0.3, **params):
        sc = make_scenario(name, **params)
        leaves = C.reference_leaves(sc)
        grid = DiscGrid(*resolution)
        return (sc, C._initial_guess(sc, leaves, t, grid, n_taylor),
                C.make_pinset(sc, leaves, t))

    # at eps 0.05 and 32x16, 12 terms stall near 2e-9 with either Jacobian;
    # 15, the grid's limit, converge
    def perturbed(self):
        return self.solve_input("perturbed-ball", (32, 16), 15, eps=0.05)

    def test_psi_inverse_only_unbatched(self, monkeypatch):
        sc, init, pins = self.perturbed()
        shapes = []
        psi_inverse = B.psi_inverse_values

        def spy(chart, grid, hvals, **kw):
            shapes.append(hvals.shape)
            return psi_inverse(chart, grid, hvals, **kw)

        monkeypatch.setattr(B, "psi_inverse_values", spy)
        disc = B.bishop_solve(sc, sc.surface, init, pins, n_taylor=15)
        grid = init.grid
        assert shapes and set(shapes) == {(2, grid.n_radial, grid.n_theta)}
        assert disc.diagnostics["newton_iters"] > 0
        assert disc.diagnostics["boundary_residual"] <= 1e-10
        assert disc.diagnostics["cr_residual"] <= 1e-8

    def test_matches_full_jacobian(self):
        sc, init, pins = self.perturbed()
        disc = B.bishop_solve(sc, sc.surface, init, pins, n_taylor=15)
        ref = full_jacobian_solve(sc, init, pins, 15)
        for a, b in zip(disc.h_coeffs, ref):
            assert np.max(np.abs(a - b)) <= 1e-8

    def test_exact_where_a_vanishes(self):
        # A = 0: the standard-structure Jacobian is the full one.  The flat
        # circle already meets newton_tol, so the seed is moved off it; the
        # exact and the forward-difference Jacobian then take different
        # steps to the same disc, which agree to rounding, not bit for bit
        sc, init, pins = self.solve_input("ball", (32, 16), 12)
        c1 = init.h_coeffs[0].copy()
        c1[2] += 0.02
        c1[3] -= 0.01j
        # q = h - f stays 0
        f = np.stack([init.grid.taylor_values(c1), init.f[1]])
        seed = B.BishopDisc(init.grid, f, h_coeffs=(c1, init.h_coeffs[1]),
                            t=init.t)
        disc = B.bishop_solve(sc, sc.surface, seed, pins, n_taylor=12)
        assert disc.diagnostics["newton_iters"] >= 1
        ref = full_jacobian_solve(sc, seed, pins, 12)
        for a, b in zip(disc.h_coeffs, ref):
            assert np.max(np.abs(a - b)) <= 1e-12


def fd_jacobian(sc, pins, grid, n, x, step=1e-6):
    """Forward difference of _residual_rows at the boundary of h."""
    def rows(xb):
        bdry = grid.taylor_values(G.to_complex(xb).reshape(2, n))[..., -1, :]
        return B._residual_rows(sc.surface, pins, grid, bdry)

    steps = step * np.maximum(1.0, np.abs(x))
    cols = [(rows(x + e) - rows(x)) / h for e, h in zip(np.diag(steps), steps)]
    return np.stack(cols, axis=-1)


class TestExactJacobian:
    """The chain-rule Jacobian of the standard-structure rows."""

    CASES = {"ball": ("ball", 12, {}),
             "perturbed": ("perturbed-ball", 15, {"eps": 0.05})}

    @pytest.mark.parametrize("case", CASES)
    def test_matches_forward_difference(self, case):
        name, n_taylor, params = self.CASES[case]
        sc = make_scenario(name, **params)
        leaves = C.reference_leaves(sc)
        grid = DiscGrid(32, 16)
        pins = C.make_pinset(sc, leaves, 0.3)
        init = C._initial_guess(sc, leaves, 0.3, grid, n_taylor)
        n = n_taylor + 1
        coeffs = np.zeros((2, n), dtype=complex)
        for c, init_c in zip(coeffs, init.h_coeffs):
            c[:len(init_c)] = init_c
        # off the solution, with every coefficient in play
        rng = np.random.default_rng(0)
        x = G.to_real(coeffs.reshape(-1)) + 0.01 * rng.standard_normal(4 * n)
        basis = B._boundary_basis(grid.n_theta, n)
        exact = B._jacobian(sc.surface, pins, basis, x)
        fd = fd_jacobian(sc, pins, grid, n, x)
        assert exact.shape == fd.shape == (2 * grid.n_theta + 4, 4 * n)
        assert np.max(np.abs(exact - fd)) <= 1e-6 * np.max(np.abs(fd))

    def test_basis_shared_read_only(self):
        basis = B._boundary_basis(32, 13)
        assert B._boundary_basis(32, 13) is basis
        assert basis.shape == (32 + 2, 4, 4 * 13)
        with pytest.raises(ValueError):
            basis[0, 0, 0] = 1.0

    def test_rows_never_batched(self, monkeypatch):
        sc = make_scenario("perturbed-ball", eps=0.05)
        leaves = C.reference_leaves(sc)
        grid = DiscGrid(32, 16)
        rows = B._residual_rows
        shapes = []

        def spy(surface, pins, grid, bdry):
            shapes.append(bdry.shape)
            return rows(surface, pins, grid, bdry)

        monkeypatch.setattr(B, "_residual_rows", spy)
        disc = B.bishop_solve(sc, sc.surface,
                              C._initial_guess(sc, leaves, 0.3, grid, 15),
                              C.make_pinset(sc, leaves, 0.3), n_taylor=15)
        assert disc.diagnostics["newton_iters"] > 0
        assert set(shapes) == {(2, grid.n_theta)}

    def test_rank_deficient_jacobian_stalls(self):
        J = np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]])
        with pytest.raises(NewtonStalled, match="diag R"):
            B._gauss_newton_step(J, np.ones(3))


class TestInexactPsiInverse:
    """Psi^-1 solved to ETA |r| inside Newton, once more to PSI_TOL at the end."""

    def family(self, name, n_taylor, monkeypatch=None, **params):
        """Five discs from t 0.30 to 0.40 at 32x16, and the tolerance of
        each Psi^-1 call when monkeypatch is given."""
        sc = make_scenario(name, **params)
        tols = []
        psi_inverse = B.psi_inverse_values

        def spy(chart, grid, hvals, **kw):
            tols.append(kw["tol"])
            return psi_inverse(chart, grid, hvals, **kw)

        if monkeypatch is not None:
            monkeypatch.setattr(B, "psi_inverse_values", spy)
        fam = C.continue_family(sc, C.reference_leaves(sc), 0.30, 0.40,
                                grid=DiscGrid(32, 16), n_taylor=n_taylor)
        return fam, tols

    def test_same_discs_as_exact_solves(self, monkeypatch):
        inexact, tols = self.family("perturbed-ball", 15, monkeypatch,
                                    eps=0.05)
        # each disc ends with one exact re-solve
        assert tols.count(B.PSI_TOL) == len(inexact.discs)
        assert tols[-1] == B.PSI_TOL
        monkeypatch.setattr(B, "ETA", 0.0)
        exact, _ = self.family("perturbed-ball", 15, eps=0.05)
        assert np.array_equal(inexact.t_values, exact.t_values)
        for a, b in zip(inexact.discs, exact.discs):
            assert np.max(np.abs(a.f - b.f)) <= 1e-10
            assert a.diagnostics["cr_residual"] <= 1e-12
            assert a.diagnostics["psi_sweeps"] < b.diagnostics["psi_sweeps"]

    def test_loose_convergence_is_checked_exactly(self, monkeypatch):
        # loose solves that run one sweep and return their start: Newton
        # meets newton_tol on a wrong residual, the exact re-solve refutes
        # it, and Newton goes on with exact solves to the same disc
        sc = make_scenario("perturbed-ball", eps=0.05)
        leaves = C.reference_leaves(sc)
        grid = DiscGrid(32, 16)

        def solve():
            return B.bishop_solve(
                sc, sc.surface, C._initial_guess(sc, leaves, 0.3, grid, 15),
                C.make_pinset(sc, leaves, 0.3), n_taylor=15)

        ref = solve()
        psi_inverse = B.psi_inverse_values
        tols = []

        def lazy(chart, grid, hvals, start=None, tol=B.PSI_TOL):
            tols.append(tol)
            if tol > B.PSI_TOL:
                return hvals if start is None else start, 1
            return psi_inverse(chart, grid, hvals, start=start, tol=tol)

        monkeypatch.setattr(B, "psi_inverse_values", lazy)
        disc = solve()
        first_exact = tols.index(B.PSI_TOL)
        assert first_exact < len(tols) - 2       # Newton went on after it
        assert set(tols[first_exact:]) == {B.PSI_TOL}
        assert disc.diagnostics["newton_iters"] > ref.diagnostics["newton_iters"]
        assert np.max(np.abs(disc.f - ref.f)) <= 1e-10

    def test_ball_needs_no_resolve(self, monkeypatch):
        fam, tols = self.family("ball", 12, monkeypatch)
        assert min(tols) > B.PSI_TOL                 # A = 0: no re-solve
        assert sum(d.diagnostics["psi_solves"] for d in fam.discs) \
            == len(tols)
        assert all(d.diagnostics["psi_sweeps"] == 0 for d in fam.discs)


class TestProbeDisc:
    def test_center_conditions(self):
        sc = make_scenario("perturbed-ball")
        p = np.array([0.1, 0.2, -0.1, 0.05])
        t = np.array([1.0, 0.3, -0.2, 0.4])
        scale = 1e-2
        vals, grid = B.probe_disc(sc.chart, p, t, scale=scale)
        center = np.stack([grid.center_value(vals[..., k]) for k in range(2)],
                          -1)
        assert np.max(np.abs(G.to_real(center[None, :])[0] - p)) < 1e-10
        # real x-directional derivative at the center equals scale * t
        pts = G.to_real(vals)                      # (R, T, 4)
        dx = np.array([2.0 * np.real(grid.center_dz(pts[..., k] + 0j))
                       for k in range(4)])
        assert np.max(np.abs(dx - scale * t)) < 1e-9


class TestBishopSolve:
    def test_ball_disc_is_flat(self):
        sc = make_scenario("ball")
        leaves = C.reference_leaves(sc)
        grid = DiscGrid(64, 32)
        t = 0.3
        disc = B.bishop_solve(sc, sc.surface,
                              C._initial_guess(sc, leaves, t, grid, 24),
                              C.make_pinset(sc, leaves, t))
        assert disc.diagnostics["boundary_residual"] < 1e-10
        assert disc.diagnostics["cr_residual"] < 1e-8
        assert disc.diagnostics["mu"] == 0
        # flat disc: z2 constant, z1 a rotation of a real multiple of zeta
        c2 = disc.h_coeffs[1]
        assert np.max(np.abs(c2[1:])) < 1e-9
        c1 = disc.h_coeffs[0]
        assert np.max(np.abs(c1[np.arange(len(c1)) != 1])) < 1e-9

    def test_pin_is_interpolated(self):
        sc = make_scenario("ball")
        leaves = C.reference_leaves(sc)
        grid = DiscGrid(64, 32)
        t = 0.4
        pins = C.make_pinset(sc, leaves, t)
        disc = B.bishop_solve(sc, sc.surface,
                              C._initial_guess(sc, leaves, t, grid, 24), pins)
        f_at_one = G.to_real(grid.boundary_at(disc.f[:, -1], [0.0])[:, 0])
        assert np.linalg.norm(f_at_one - pins.point) < 1e-9

    @pytest.mark.parametrize("resolution,limit", [((32, 16), 15),
                                                  ((64, 16), 16)])
    def test_taylor_order_limit(self, resolution, limit):
        sc = make_scenario("ball")
        leaves = C.reference_leaves(sc)
        grid = DiscGrid(*resolution)
        t = 0.3
        with pytest.raises(ConfigError, match=f"exceeds {limit}"):
            B.bishop_solve(sc, sc.surface,
                           C._initial_guess(sc, leaves, t, grid, 24),
                           C.make_pinset(sc, leaves, t), n_taylor=24)

    @pytest.mark.parametrize("n_taylor,n_theta,n_rho", [(12, 32, 16),
                                                        (24, 64, 32)])
    def test_taylor_order_accepted(self, n_taylor, n_theta, n_rho):
        B.check_taylor_order(n_taylor, n_theta, n_rho)
