"""Tests for the ambient geometry module (Levi forms, deformation tensors,
exhaustion functions, areas)."""

import numpy as np
import pytest

from leviflat import geometry as G
from leviflat.calculus import DiscGrid
from leviflat.errors import (
    FieldDomainError,
    SingularMatrix,
    StepTooLarge,
)
from leviflat.scenarios import make_scenario


def standard_chart():
    return G.AmbientChart()


def perturbed_chart(eps=0.05):
    A0 = np.array([[0.35, 0.20 + 0.10j], [0.15 - 0.05j, 0.30]])

    def A_fn(z):
        z = np.asarray(z, dtype=float)
        z2 = z[..., 2] + 1j * z[..., 3]
        return eps * (1.0 - z2 ** 2)[..., None, None] * A0

    return G.AmbientChart(A_fn=A_fn)


class TestStructures:
    def test_j_squared(self):
        assert np.allclose(G.J_ST @ G.J_ST, -np.eye(4))

    def test_complex_real_roundtrip(self):
        z = np.array([1 + 2j, -0.5 + 0.25j])
        assert np.allclose(G.to_complex(G.to_real(z)), z)

    def test_deformation_roundtrip(self):
        """A -> J via AmbientChart.J -> A via pointwise recovery."""
        chart = perturbed_chart()
        rng = np.random.default_rng(0)
        pts = rng.uniform(-0.8, 0.8, (10, 4))
        A_direct = chart.A_fn(pts)
        A_rec = G.deformation_tensor_values(chart.J(pts))
        assert np.max(np.abs(A_direct - A_rec)) < 1e-12

    def test_check_invariants(self):
        chart = perturbed_chart()
        rng = np.random.default_rng(1)
        rep = chart.check_invariants(rng.uniform(-0.7, 0.7, (16, 4)))
        assert rep["j_square_error"] < 1e-10
        assert rep["taming_min"] > 0

    def test_standard_structure_by_default(self):
        chart = G.AmbientChart()
        pts = np.random.default_rng(7).uniform(-0.8, 0.8, (6, 3, 4))
        J = chart.J(pts)
        assert J.shape == (6, 3, 4, 4)
        assert np.array_equal(J, np.broadcast_to(G.J_ST, J.shape))
        assert not chart.deformation_at(pts).any()

    def test_antilinear_to_real(self):
        rng = np.random.default_rng(2)
        batch = rng.standard_normal((5, 2, 2)) \
            + 1j * rng.standard_normal((5, 2, 2))
        for A in (np.array([[1 + 2j, 0.5], [0, -1j]]), batch):
            U = G.antilinear_to_real(A)
            v = rng.standard_normal(A.shape[:-2] + (4,))
            lhs = G.to_complex(np.einsum("...ij,...j->...i", U, v))
            rhs = np.einsum("...ij,...j->...i", A, np.conj(G.to_complex(v)))
            assert np.allclose(lhs, rhs)

    def test_singular_matrix_guard(self):
        # J = -J_st makes J_st + J singular
        with pytest.raises(SingularMatrix):
            G.deformation_tensor_values(-G.J_ST[None])


class TestLeviForm:
    def test_flat_quadratic(self):
        chart = standard_chart()
        rho = lambda z: z[..., 0] ** 2 + z[..., 1] ** 2
        val = G.levi_form(chart, rho, np.zeros(4), np.array([1.0, 0, 0, 0]))
        assert val == pytest.approx(4.0, abs=1e-8)

    def test_levi_is_laplacian_for_standard_j(self):
        # for J_st the Levi form along e_{x1} equals the z1-Laplacian
        chart = standard_chart()
        rho = lambda z: np.exp(z[..., 0]) + z[..., 1] ** 2
        p = np.zeros(4)
        val = G.levi_form(chart, rho, p, np.array([1.0, 0, 0, 0]))
        assert val == pytest.approx(1.0 + 2.0, abs=1e-6)

    def test_quadratic_scaling_in_direction(self):
        chart = standard_chart()
        rho = lambda z: np.sum(np.asarray(z) ** 2, axis=-1)
        p = np.zeros(4)
        t = np.array([1.0, 0.5, -0.2, 0.3])
        v1 = G.levi_form(chart, rho, p, t)
        v2 = G.levi_form(chart, rho, p, 2 * t)
        assert v2 == pytest.approx(4 * v1, rel=1e-8)

    def test_harmonic_direction_vanishes(self):
        # |z2|^4 has vanishing Levi form in the z1 directions
        chart = standard_chart()
        rho = lambda z: (z[..., 2] ** 2 + z[..., 3] ** 2) ** 2
        val = G.levi_form(chart, rho, np.array([0.3, 0.1, 0.0, 0.0]),
                          np.array([1.0, 0, 0, 0]))
        assert abs(val) < 1e-8

    def test_via_disc_cross_check(self):
        chart = perturbed_chart()
        rho = lambda z: (z[..., 0] ** 2 + 2 * z[..., 1] ** 2
                         + 0.5 * z[..., 2] ** 2 + z[..., 3] ** 2)
        p = np.array([0.1, 0.2, -0.1, 0.05])
        t = np.array([1.0, 0.3, -0.2, 0.4])
        v1 = G.levi_form(chart, rho, p, t)
        v2 = G.levi_form_via_disc(chart, rho, p, t)
        assert abs(v1 - v2) < 1e-6

    def test_batched_equals_per_sample(self):
        # per-sample rows are (1, 4): a lone (4,) point would send the
        # scenario's complex z2 ** 2 through numpy's scalar arithmetic,
        # which rounds differently from its array loops
        sc = make_scenario("perturbed-ball", eps=0.1)
        rho = sc.chart.defining_r
        rng = np.random.default_rng(11)
        P = rng.uniform(-0.6, 0.6, (32, 4))
        T = rng.standard_normal((32, 4))
        vals = G.levi_form(sc.chart, rho, P, T)
        assert vals.shape == (32,)
        rows = [G.levi_form(sc.chart, rho, P[i:i + 1], T[i:i + 1])
                for i in range(32)]
        assert np.array_equal(vals, np.concatenate(rows))

    @pytest.mark.parametrize("name", ["ball", "weak-m2"])
    def test_closed_forms_standard_structure(self, name):
        """4|t|^2 on the ball, 4(|t1|^2 + 4|z2|^2 |t2|^2) on weak-m2."""
        sc = make_scenario(name)
        rng = np.random.default_rng(12)
        P = rng.uniform(-0.8, 0.8, (200, 4))
        T = rng.standard_normal((200, 4))
        T /= np.linalg.norm(T, axis=1)[:, None]
        z, t = G.to_complex(P), G.to_complex(T)
        weight = 1.0 if name == "ball" else 4.0 * np.abs(z[:, 1]) ** 2
        exact = 4.0 * (np.abs(t[:, 0]) ** 2 + weight * np.abs(t[:, 1]) ** 2)
        vals = G.levi_form(sc.chart, sc.chart.defining_r, P, T)
        assert np.max(np.abs(vals - exact)) < 1e-7

    def test_one_kinked_sample_fails_the_batch(self):
        chart = standard_chart()
        rho = lambda z: np.abs(z[..., 0]) + np.sum(z ** 2, axis=-1)
        P = np.array([[0.3, 0.1, 0.0, 0.2], [-0.4, 0.0, 0.1, 0.0],
                      [0.0, 0.2, 0.1, 0.0]])
        T = np.tile([1.0, 0.0, 0.0, 0.0], (3, 1))
        assert np.allclose(G.levi_form(chart, rho, P[:2], T[:2]), 4.0)
        with pytest.raises(StepTooLarge):
            G.levi_form(chart, rho, P, T)


class TestPshAndExhaustion:
    def test_check_plurisubharmonic_pass(self):
        chart = standard_chart()
        rho = lambda z: np.sum(np.asarray(z) ** 2, axis=-1)
        rng = np.random.default_rng(3)
        samples = [(rng.uniform(-0.5, 0.5, 4), rng.standard_normal(4))
                   for _ in range(8)]
        rep = G.check_plurisubharmonic(chart, rho, samples)
        assert rep.passed
        assert rep.positive_fraction == 1.0

    def test_check_plurisubharmonic_fail(self):
        chart = standard_chart()
        rho = lambda z: -z[..., 0] ** 2 - z[..., 1] ** 2
        samples = [(np.zeros(4), np.array([1.0, 0, 0, 0]))]
        rep = G.check_plurisubharmonic(chart, rho, samples)
        assert not rep.passed

    def test_df_exhaustion_closed_form(self):
        """-(-r e^{-A psi})^eta against a hand-evaluated value."""
        chart = G.AmbientChart(
            defining_r=lambda z: np.sum(np.asarray(z) ** 2, axis=-1) - 1.0,
            psi=lambda z: np.sum(np.asarray(z) ** 2, axis=-1))
        fn = G.df_exhaustion(chart, A=1.0, eta=0.5)
        p = np.array([0.5, 0.5, 0.5, 0.0])   # r = -0.25, psi = 0.75
        expected = -(0.25 * np.exp(-0.75)) ** 0.5
        assert fn(p) == pytest.approx(expected, abs=1e-14)

    def test_df_exhaustion_domain_guard(self):
        chart = G.AmbientChart(
            defining_r=lambda z: np.sum(np.asarray(z) ** 2, axis=-1) - 1.0,
            psi=lambda z: np.sum(np.asarray(z) ** 2, axis=-1))
        fn = G.df_exhaustion(chart, A=1.0, eta=0.5)
        with pytest.raises(FieldDomainError):
            fn(np.array([2.0, 0, 0, 0]))

    def test_df_exhaustion_parameter_validation(self):
        chart = G.AmbientChart(
            defining_r=lambda z: -np.ones(np.shape(z)[:-1]),
            psi=lambda z: np.zeros(np.shape(z)[:-1]))
        with pytest.raises(ValueError):
            G.df_exhaustion(chart, A=-1.0, eta=0.5)
        with pytest.raises(ValueError):
            G.df_exhaustion(chart, A=1.0, eta=1.5)


class TestAreas:
    def test_unit_disc_area(self):
        grid = DiscGrid(64, 32)
        f = np.stack([grid.taylor_values([0.0, 1.0]),
                      grid.taylor_values([0.3])])
        assert G.disc_area(grid, f) == pytest.approx(np.pi, abs=1e-10)

    def test_scaled_disc_area(self):
        grid = DiscGrid(64, 32)
        f = np.stack([grid.taylor_values([0.0, 0.8]),
                      grid.taylor_values([0.0])])
        assert G.disc_area(grid, f) == pytest.approx(0.64 * np.pi, abs=1e-10)

    def test_area_is_parametrization_invariant(self):
        # same image disc under a Moebius reparametrization
        grid = DiscGrid(64, 32)
        a = 0.3
        f = np.stack([(grid.zeta + a) / (1 + a * grid.zeta),
                      grid.taylor_values([0.0])])
        assert G.disc_area(grid, f) == pytest.approx(np.pi, abs=1e-8)
