"""Tests for leaves, disc-family continuation, gluing, and the certificate."""

import json

import numpy as np
import pytest

from leviflat import cli
from leviflat import continuation as C
from leviflat.calculus import DiscGrid
from leviflat.errors import (
    BlowUp,
    ComplexPointProximity,
    NewtonStalled,
    NoMatch,
)
from leviflat.scenarios import make_scenario


@pytest.fixture(scope="module")
def ball():
    return make_scenario("ball")


@pytest.fixture(scope="module")
def leaves(ball):
    return C.reference_leaves(ball)


@pytest.fixture(scope="module")
def grid():
    return DiscGrid(64, 32)


@pytest.fixture(scope="module")
def ball_disc(ball, leaves, grid):
    from leviflat import bishop as B
    t = 0.35
    return B.bishop_solve(ball, ball.surface,
                          C._initial_guess(ball, leaves, t, grid, 24),
                          C.make_pinset(ball, leaves, t))


@pytest.fixture(scope="module")
def glued(ball, leaves, grid):
    fp = C.continue_family(ball, leaves, 0.30, 0.45, grid=grid, side="p")
    fq = C.continue_family(ball, leaves, 0.60, 0.45, grid=grid, side="q")
    return C.glue(fp, fq)


class TestCharacteristicField:
    def test_orthogonality(self, ball):
        pts = ball.surface.parametrization(
            np.array([0.8, 1.5, 2.2]), np.array([0.0, 1.0, 2.0]))
        d = C.characteristic_field(ball, pts)
        assert np.allclose(np.linalg.norm(d, axis=-1), 1.0)
        G = ball.surface.rho_grad(pts)
        assert np.max(np.abs(np.einsum("...ki,...i->...k", G, d))) < 1e-10
        Jt_gr = np.einsum("...ji,...j->...i", ball.chart.J(pts),
                          ball.chart.r_grad(pts))
        assert np.max(np.abs(np.einsum("...i,...i->...", Jt_gr, d))) < 1e-10

    def test_pole_proximity_guard(self, ball):
        near_pole = np.array([0.02, 0.0, 0.999, 0.0])
        with pytest.raises(ComplexPointProximity):
            C.characteristic_field(ball, near_pole)


class TestLeaves:
    def test_leaf_stays_on_surface(self, ball, leaves):
        leaf = leaves[0]
        assert np.max(np.abs(ball.surface.rho_pair(leaf.points))) < 1e-9

    def test_leaf_spans_the_sphere(self, ball, leaves):
        for leaf in leaves:
            assert leaf.t[0] < 0.05
            assert leaf.t[-1] > 0.9

    def test_membership_vanishes_on_leaf(self, ball, leaves):
        leaf = leaves[1]
        member = leaf.membership(ball.surface)
        inner = leaf.points[5:-5]
        assert np.max(np.abs(member(inner))) < 1e-6

    def test_three_reference_leaves(self, leaves):
        assert len(leaves) == 3

    def test_pinset_on_surface(self, ball, leaves):
        pins = C.make_pinset(ball, leaves, 0.4)
        assert np.max(np.abs(ball.surface.rho_pair(pins.point))) < 1e-10
        assert pins.tangent_basis.shape == (4, 2)


class TestDiscMonitors:
    def test_maslov_index_zero(self, ball, ball_disc):
        assert C.maslov_index(ball_disc, ball.surface) == 0

    def test_single_leaf_crossing(self, ball, ball_disc, leaves):
        for leaf in leaves:
            assert C.leaf_crossings(ball_disc, ball.surface, leaf) == 1

    def test_hopf_coefficient_positive(self, ball, ball_disc):
        assert C.hopf_coefficient(ball_disc, ball.chart) > 0.1

    def test_collar_decay_positive(self, ball, ball_disc):
        assert C.collar_decay(ball_disc, ball.chart) > 0

    def test_monitor_keys(self, ball, ball_disc, leaves):
        m = C.monitor(ball_disc, ball, leaves)
        assert set(m) == {"mu", "area", "a_min", "max_grad",
                          "boundary_leaf_crossings"}
        assert m["mu"] == 0
        assert m["boundary_leaf_crossings"] == 1
        # flat disc at height v: area = pi (1 - v^2)
        v = ball_disc.points()[0, 0, 2]
        assert m["area"] == pytest.approx(np.pi * (1 - v ** 2), abs=1e-8)


class TestContinuation:
    def test_family_snaps_to_stop(self, ball, leaves, grid):
        fam = C.continue_family(ball, leaves, 0.30, 0.38, grid=grid)
        assert fam.t_values[0] == pytest.approx(0.30)
        assert fam.t_values[-1] == 0.38
        assert np.all(np.diff(fam.t_values) > 0)
        assert len(fam.discs) == len(fam.monitors) == len(fam.t_values)

    def test_blowup_guard(self, ball, leaves, grid):
        with pytest.raises(BlowUp):
            C.continue_family(ball, leaves, 0.30, 0.38, grid=grid,
                              grad_cap=1e-3)


def fail_solves(monkeypatch, failing):
    """Make the bishop_solve calls numbered in `failing` (from 1) fail."""
    solve = C.bishop_solve
    calls = 0

    def flaky(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls in failing:
            raise NewtonStalled("forced failure")
        return solve(*args, **kwargs)

    monkeypatch.setattr(C, "bishop_solve", flaky)


def ball_config(tmp_path):
    return cli.RunConfig(scenario="ball", n_theta=32, n_rho=16, n_taylor=12,
                         output_dir=str(tmp_path))


def report_diagnostics(tmp_path):
    return json.loads((tmp_path / "report.json").read_text())["diagnostics"]


class TestRejectedSteps:
    def test_family_records_rejection(self, ball, leaves, monkeypatch):
        fail_solves(monkeypatch, {2})
        fam = C.continue_family(ball, leaves, 0.30, 0.36,
                                grid=DiscGrid(32, 16), n_taylor=12)
        assert fam.rejected == [{"side": "p", "t": 0.30, "dt": 0.025,
                                 "error": "NewtonStalled",
                                 "message": "forced failure"}]
        assert fam.t_values[1] == pytest.approx(0.3125)   # the halved step

    def test_report_lists_rejection(self, tmp_path, monkeypatch):
        fail_solves(monkeypatch, {2})
        assert cli.run_scenario(ball_config(tmp_path), quiet=True) == 0
        diag = report_diagnostics(tmp_path)
        assert diag["rejected_steps"] == [{
            "side": "p", "t": 0.05, "dt": 0.025, "error": "NewtonStalled",
            "message": "forced failure"}]
        assert diag["total_newton_iters"] >= diag["max_newton_iters"] > 0

    def test_failed_run_lists_rejections(self, tmp_path, monkeypatch):
        # every step after the first disc fails: 8 halvings reach min_dt
        fail_solves(monkeypatch, set(range(2, 100)))
        assert cli.run_scenario(ball_config(tmp_path), quiet=True) == 2
        diag = report_diagnostics(tmp_path)
        assert [s["dt"] for s in diag["rejected_steps"]] == \
            [0.025 * 0.5 ** k for k in range(8)]
        assert {s["side"] for s in diag["rejected_steps"]} == {"p"}


class TestGlue:
    def test_junction(self, glued):
        assert glued.junction_t == pytest.approx(0.45)
        assert glued.glue_distance < 1e-10
        # t runs monotonically across the junction
        assert np.all(np.diff(glued.t_values) > 0)

    def test_mismatched_parameters_rejected(self, ball, leaves, grid):
        fp = C.continue_family(ball, leaves, 0.30, 0.34, grid=grid)
        fq = C.continue_family(ball, leaves, 0.60, 0.56, grid=grid)
        with pytest.raises(NoMatch):
            C.glue(fp, fq)

    def test_distance_tolerance_rejected(self, ball, leaves, grid):
        fp = C.continue_family(ball, leaves, 0.30, 0.45, grid=grid)
        fq = C.continue_family(ball, leaves, 0.60, 0.45, grid=grid)
        with pytest.raises(NoMatch):
            C.glue(fp, fq, tol=1e-18)

    def test_cloud_shapes(self, glued, grid):
        cl = glued.cloud()
        n = len(glued.discs) * grid.n_radial * grid.n_theta
        assert cl.shape == (n, 7)
        bc = glued.boundary_cloud()
        assert bc.shape == (len(glued.discs) * grid.n_theta, 7)
        assert np.allclose(bc[:, 1], 1.0)
        # boundary trace lies on the sphere: y2 = 0 for the round ball
        assert np.max(np.abs(bc[:, 6])) < 1e-9


class TestLeviCertificate:
    def test_flat_filling_is_levi_flat(self, ball, glued):
        vals = C.levi_certificate(glued, ball.chart, n_samples=10)
        assert len(vals) == 10
        assert np.max(np.abs(vals)) < 1e-3
