"""Tests for the built-in scenario catalog."""

import numpy as np
import pytest

from leviflat import bishop as B
from leviflat import geometry as G
from leviflat.errors import ConfigError
from leviflat.scenarios import SCENARIO_NAMES, make_scenario


def surface_samples(sc, n=64, seed=0):
    """Random points on the sphere via the closed-form parametrization."""
    rng = np.random.default_rng(seed)
    phi = rng.uniform(0.05, np.pi - 0.05, n)
    alpha = rng.uniform(0, 2 * np.pi, n)
    return sc.surface.parametrization(phi, alpha)


def off_surface_samples(sc, seed=2):
    """Surface points moved off the sphere: |z| != 1 and y2 != 0."""
    pts = surface_samples(sc, n=16, seed=seed)
    rng = np.random.default_rng(seed)
    return pts * rng.uniform(0.8, 1.2, (16, 1)) \
        + np.array([0.0, 0.0, 0.0, 1.0]) * rng.uniform(-0.5, 0.5, (16, 1))


class TestCatalog:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_chart_invariants(self, name):
        sc = make_scenario(name)
        rng = np.random.default_rng(1)
        rep = sc.chart.check_invariants(rng.uniform(-0.7, 0.7, (16, 4)))
        assert rep["j_square_error"] < 1e-10
        assert rep["taming_min"] > 0

    @pytest.mark.parametrize("name,flat", [
        ("ball", True), ("weak-m2", True), ("model-quadric", True),
        ("perturbed-ball", False)])
    def test_zero_deformation(self, name, flat):
        # A = 0 on every chart of a flat scenario lets the disc solvers skip Psi
        sc = make_scenario(name)
        charts = [sc.chart] + [pole.model.chart for pole in sc.poles]
        pts = np.random.default_rng(3).uniform(-0.7, 0.7, (64, 4))
        assert [bool(c.deformation_at(pts).any()) for c in charts] \
            == [not flat] * len(charts)

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            make_scenario("donut")

    @pytest.mark.parametrize("name,params", [
        ("perturbed-ball", {"epsilon": 0.01}), ("ball", {"bogus": 1}),
        ("ball", {"eps": 0.01}), ("weak-m2", {"gamma": 0.5}),
        ("model-quadric", {"eps": 0.01})])
    def test_unknown_parameter(self, name, params):
        with pytest.raises(ConfigError, match=next(iter(params))):
            make_scenario(name, **params)

    def test_parameter_ranges(self):
        with pytest.raises(ConfigError):
            make_scenario("perturbed-ball", eps=0.5)
        with pytest.raises(ConfigError):
            make_scenario("model-quadric", gamma=1.0)
        with pytest.raises(ConfigError):
            make_scenario("model-quadric", gamma=-0.1)


class TestSurface:
    @pytest.mark.parametrize("name", ["ball", "weak-m2", "perturbed-ball"])
    def test_parametrization_on_surface(self, name):
        sc = make_scenario(name)
        rho = sc.surface.rho_pair(surface_samples(sc))
        assert np.max(np.abs(rho)) < 1e-12

    @pytest.mark.parametrize("name", ["ball", "weak-m2", "perturbed-ball"])
    def test_rho_grad_matches_finite_differences(self, name):
        sc = make_scenario(name)
        # off the surface too: there y2 != 0, which the z2 scaling of
        # weak-m2 multiplies
        pts = np.concatenate([surface_samples(sc, n=16, seed=2),
                              off_surface_samples(sc)])
        grad = sc.surface.rho_grad(pts)
        eps = 1e-6
        for k in range(4):
            dp = np.zeros(4)
            dp[k] = eps
            fd = (sc.surface.rho_pair(pts + dp)
                  - sc.surface.rho_pair(pts - dp)) / (2 * eps)
            assert np.max(np.abs(fd - grad[..., :, k])) < 1e-6

    @pytest.mark.parametrize("name", ["ball", "weak-m2", "perturbed-ball"])
    def test_r_grad_matches_finite_differences(self, name):
        sc = make_scenario(name)
        pts = off_surface_samples(sc)
        grad = sc.chart.r_grad(pts)
        eps = 1e-6
        for k in range(4):
            dp = np.zeros(4)
            dp[k] = eps
            fd = (sc.chart.defining_r(pts + dp)
                  - sc.chart.defining_r(pts - dp)) / (2 * eps)
            assert np.max(np.abs(fd - grad[..., k])) < 1e-6

    def test_quadric_rho_grad(self):
        sc = make_scenario("model-quadric", gamma=0.3)
        rng = np.random.default_rng(3)
        pts = rng.uniform(-0.5, 0.5, (16, 4))
        grad = sc.surface.rho_grad(pts)
        eps = 1e-6
        for k in range(4):
            dp = np.zeros(4)
            dp[k] = eps
            fd = (sc.surface.rho_pair(pts + dp)
                  - sc.surface.rho_pair(pts - dp)) / (2 * eps)
            assert np.max(np.abs(fd - grad[..., :, k])) < 1e-6

    @pytest.mark.parametrize("name,m", [("ball", 1), ("weak-m2", 2)])
    def test_total_unsigned_symplectic_area(self, name, m):
        """The total |omega|-mass of the sphere is exactly 2 pi.

        Oracle: on {y2 = 0} the pullback of omega is d x1 wedge d y1, whose
        unsigned integral over the sphere is twice the area of the unit disc
        footprint {|z1| <= 1}, i.e. 2 pi, independent of m.
        """
        sc = make_scenario(name)
        total = 0.0
        for pts, du, dv, w in sc.surface.area_elements():
            om = np.einsum("...i,ij,...j->...", du, G.STANDARD_OMEGA, dv)
            total += float(np.sum(np.abs(om) * w))
        assert total == pytest.approx(2 * np.pi, abs=1e-8)

    def test_to_uv_coordinates(self):
        sc = make_scenario("ball")
        pts = surface_samples(sc, n=16, seed=5)
        uv = sc.surface.to_uv(pts)
        assert np.allclose(uv[:, 0], np.arctan2(pts[:, 1], pts[:, 0]))
        assert np.allclose(uv[:, 1], pts[:, 2])


class TestPoles:
    @pytest.mark.parametrize("name", ["ball", "weak-m2", "perturbed-ball"])
    def test_adapted_chart_roundtrip(self, name):
        sc = make_scenario(name)
        rng = np.random.default_rng(6)
        pts = rng.uniform(-0.8, 0.8, (16, 4))
        for pole in sc.poles:
            back = pole.from_adapted(pole.to_adapted(pts))
            assert np.max(np.abs(back - pts)) < 1e-12
            # the pole itself maps to the adapted origin
            w0 = pole.to_adapted(pole.location)
            assert np.max(np.abs(w0)) < 1e-12

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_models_are_adapted(self, name):
        sc = make_scenario(name)
        for pole in sc.poles:
            assert B.validate_adapted(pole.model)["passed"]

    def test_pole_model_structure_is_pushforward(self):
        # J on the adapted chart is D J(z) D^-1, D = dw/dz = diag(1, -s 2m)
        sc = make_scenario("perturbed-ball")
        w = np.random.default_rng(8).uniform(-0.5, 0.5, (16, 4))
        for pole, sign in zip(sc.poles, (1, -1)):
            D = np.diag([1.0, 1.0, -2.0 * sign, -2.0 * sign])
            z = pole.from_adapted(w)
            expected = D @ sc.chart.J(z) @ np.linalg.inv(D)
            assert np.max(np.abs(pole.model.chart.J(w) - expected)) < 1e-13

    def test_perturbation_vanishes_at_poles(self):
        sc = make_scenario("perturbed-ball")
        for pole in sc.poles:
            A = sc.chart.A_fn(pole.location)
            assert np.max(np.abs(A)) < 1e-14
        # ... but not in between
        mid = np.array([1.0, 0.0, 0.0, 0.0])
        assert np.max(np.abs(sc.chart.A_fn(mid))) > 1e-3

    def test_pole_locations_on_surface(self):
        for name in ["ball", "weak-m2", "perturbed-ball"]:
            sc = make_scenario(name)
            for pole in sc.poles:
                assert np.max(np.abs(sc.surface.rho_pair(pole.location))) \
                    < 1e-14
