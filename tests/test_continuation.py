"""Tests for leaves, disc-family continuation, gluing, and the certificate."""

import json
import re

import numpy as np
import pytest

from leviflat import bishop as B
from leviflat import cli
from leviflat import continuation as C
from leviflat.calculus import DiscGrid
from leviflat.errors import (
    BlowUp,
    ComplexPointProximity,
    LeafStalled,
    NewtonStalled,
    NoMatch,
    Underresolved,
    WindingChanged,
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
    t = 0.35
    return B.bishop_solve(ball, ball.surface,
                          C._initial_guess(ball, leaves, t, grid, 24),
                          C.make_pinset(ball, leaves, t))


@pytest.fixture(scope="module")
def glued(ball, leaves, grid):
    fp = C.continue_family(ball, leaves, 0.30, 0.45, grid=grid, side="p")
    fq = C.continue_family(ball, leaves, 0.60, 0.45, grid=grid, side="q")
    return C.glue(fp, fq)


SPHERES = ("ball", "weak-m2", "perturbed-ball")


def svd_rows(scenario, z):
    """The rows grad rho1, grad rho2, J^T grad r of the characteristic field."""
    Jt_gr = np.einsum("...ji,...j->...i", scenario.chart.J(z),
                      scenario.chart.r_grad(z))
    return np.concatenate([scenario.surface.rho_grad(z), Jt_gr[..., None, :]],
                          axis=-2)


def svd_field(scenario, z, trim=C.POLE_TRIM):
    """Reference field: the null line of the rows by SVD, degenerate where
    sigma_3 < 1e-6."""
    z = np.asarray(z, dtype=float)
    for pole in scenario.surface.poles:
        if np.min(np.linalg.norm(z - pole, axis=-1)) < trim:
            raise ComplexPointProximity(f"point within {trim} of {pole}")
    _, svals, vh = np.linalg.svd(svd_rows(scenario, z))
    if np.min(svals[..., -1]) < 1e-6:
        raise ComplexPointProximity("characteristic line degenerates")
    return vh[..., -1, :]


def leaf_slope(scenario, phi, u):
    """du/dphi of the leaf graph u(phi), for any broadcast shape."""
    z = scenario.surface.parametrization(phi, u)
    n = C.characteristic_field(scenario, z)
    x, y = z[..., 0], z[..., 1]
    return -np.sin(phi) * (x * n[..., 1] - y * n[..., 0]) \
        / ((x ** 2 + y ** 2) * n[..., 2])


def rk4_leaf(scenario, u0, steps=1024):
    """Reference leaves: classical RK4 with `steps` uniform steps over
    [LEAF_PHI, pi - LEAF_PHI], all angles u0 in one batch; u at the
    LEAF_STEPS + 1 angles of the tabulated leaf, one column per u0."""
    phi = np.linspace(C.LEAF_PHI, np.pi - C.LEAF_PHI, steps + 1)
    h = phi[1] - phi[0]
    u = np.empty((steps + 1, len(u0)))
    u[0] = u0
    for i in range(steps):
        k1 = leaf_slope(scenario, phi[i], u[i])
        k2 = leaf_slope(scenario, phi[i] + 0.5 * h, u[i] + 0.5 * h * k1)
        k3 = leaf_slope(scenario, phi[i] + 0.5 * h, u[i] + 0.5 * h * k2)
        k4 = leaf_slope(scenario, phi[i + 1], u[i] + h * k3)
        u[i + 1] = u[i] + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    return u[::steps // C.LEAF_STEPS]


def sample_points(sc):
    """Surface points and points off the surface (y2 != 0, |z| != 1), all
    away from the poles."""
    on = sc.surface.parametrization(np.linspace(0.3, np.pi - 0.3, 7),
                                    np.linspace(0.0, 5.0, 7))
    return np.concatenate([on, 1.05 * on + np.array([0.0, 0.0, 0.0, 0.1])])


class TestCharacteristicField:
    def test_orthogonality(self):
        for name in SPHERES:      # in a loop, so the test keeps its name
            sc = make_scenario(name)
            pts = sc.surface.parametrization(
                np.array([0.8, 1.5, 2.2]), np.array([0.0, 1.0, 2.0]))
            d = C.characteristic_field(sc, pts)
            assert np.allclose(np.linalg.norm(d, axis=-1), 1.0)
            G = sc.surface.rho_grad(pts)
            assert np.max(np.abs(np.einsum("...ki,...i->...k", G, d))) < 1e-10
            Jt_gr = np.einsum("...ji,...j->...i", sc.chart.J(pts),
                              sc.chart.r_grad(pts))
            assert np.max(np.abs(np.einsum("...i,...i->...", Jt_gr, d))) \
                < 1e-10

    @pytest.mark.parametrize("name", SPHERES)
    def test_matches_svd_null_line(self, name):
        sc = make_scenario(name)
        pts = sample_points(sc)
        dots = np.einsum("...i,...i->...", C.characteristic_field(sc, pts),
                         svd_field(sc, pts))
        assert np.max(np.abs(np.abs(dots) - 1.0)) < 1e-12

    @pytest.mark.parametrize("name", SPHERES)
    def test_degeneracy_calibrated_on_pole_approach(self, name):
        # the closed-form test fires wherever sigma_3 < 1e-6 and passes
        # wherever sigma_3 > 1e-5; below polar angle ~1e-8 the
        # parametrization rounds to the pole itself, where it must fire too
        sc = make_scenario(name)
        fired, passed = [], []
        for phi in np.logspace(-2, -9, 15):
            z = sc.surface.parametrization(phi, 0.3)
            sigma_3 = np.linalg.svd(svd_rows(sc, z), compute_uv=False)[-1]
            try:
                d = C.characteristic_field(sc, z, trim=0.0)
            except ComplexPointProximity:
                fired.append(sigma_3)
                continue
            passed.append(sigma_3)
            assert np.linalg.norm(d) == pytest.approx(1.0, abs=1e-12)
        assert min(passed) > 1e-6 and len(fired) >= 5
        assert max(fired) < 1e-5

    def test_pole_proximity_guard(self, ball):
        # a batch with one point near a pole; the message names that pole
        for pole in ball.surface.poles:
            pts = np.array([[0.6, 0.0, 0.8, 0.0],
                            [0.02, 0.0, 0.999 * pole[2], 0.0]])
            with pytest.raises(ComplexPointProximity,
                               match=re.escape(f"complex point at {pole}")):
                C.characteristic_field(ball, pts)

    @pytest.mark.parametrize("name", SPHERES)
    def test_leaf_matches_svd_reference(self, name, monkeypatch):
        sc = make_scenario(name)
        leaf = C.integrate_leaf(sc, 2.1)
        monkeypatch.setattr(C, "characteristic_field", svd_field)
        ref = C.integrate_leaf(sc, 2.1)
        assert np.max(np.abs(leaf.u - ref.u)) < 1e-13
        assert np.max(np.abs(leaf.points - ref.points)) < 1e-13


class TestLeaves:
    @pytest.mark.parametrize("name", ["ball", "weak-m2"])
    def test_leaves_are_meridians(self, name):
        # oracle: with the standard structure the field has no angular part
        # (Im(conj(z1) dz1) = 0), so every leaf keeps its starting angle
        for leaf, u0 in zip(C.reference_leaves(make_scenario(name)),
                            C.LEAF_ANGLES):
            assert np.max(np.abs(leaf.u - u0)) < 1e-12

    def test_leaf_tangent_is_characteristic(self):
        # the chord direction of consecutive leaf points (central
        # differences) is the characteristic line, up to O(h^2)
        sc = make_scenario("perturbed-ball", eps=0.05)
        for leaf in C.reference_leaves(sc):
            tang = np.gradient(leaf.points, axis=0)[1:-1]
            tang /= np.linalg.norm(tang, axis=-1, keepdims=True)
            cos = np.einsum("ij,ij->i", tang,
                            C.characteristic_field(sc, leaf.points[1:-1]))
            assert np.max(np.sqrt(1.0 - np.minimum(cos ** 2, 1.0))) < 1e-4

    def test_leaf_step_converged(self, monkeypatch):
        # doubling the Chebyshev degree moves the tabulated leaf by < 1e-11
        sc = make_scenario("perturbed-ball", eps=0.05)
        coarse = C.reference_leaves(sc)
        monkeypatch.setattr(C, "LEAF_NODES", 2 * C.LEAF_NODES)
        for a, b in zip(coarse, C.reference_leaves(sc)):
            assert len(a.u) == len(b.u) == C.LEAF_STEPS + 1
            assert np.max(np.abs(a.u - b.u)) < 1e-11

    @pytest.mark.parametrize("name,eps,tol", [
        ("ball", None, 1e-12), ("weak-m2", None, 1e-12),
        ("perturbed-ball", 0.01, 1e-11), ("perturbed-ball", 0.05, 1e-11),
        ("perturbed-ball", 0.1, 1e-11)])
    def test_leaf_matches_rk4_reference(self, name, eps, tol):
        sc = make_scenario(name, **({} if eps is None else {"eps": eps}))
        ref = rk4_leaf(sc, np.array(C.LEAF_ANGLES))
        for k, leaf in enumerate(C.reference_leaves(sc)):
            assert np.max(np.abs(leaf.u - ref[:, k])) < tol

    def test_latitude_tangent_field_stalls(self, ball, monkeypatch):
        monkeypatch.setattr(C, "characteristic_field",
                            lambda sc, z: np.array([0.0, 1.0, 0.0, 0.0]))
        with pytest.raises(LeafStalled):
            C.integrate_leaf(ball, 0.0)

    def test_one_field_call_per_sweep(self, monkeypatch):
        # the gain without a clock: one field call per sweep, each on the
        # whole node batch, never on a single point
        sc = make_scenario("perturbed-ball", eps=0.05)
        field_fn, shapes = C.characteristic_field, []

        def spy(scenario, z, *args, **kwargs):
            shapes.append(np.shape(z))
            return field_fn(scenario, z, *args, **kwargs)

        monkeypatch.setattr(C, "characteristic_field", spy)
        leaf = C.integrate_leaf(sc, 2.1)
        assert 1 < len(shapes) == leaf.sweeps <= C.LEAF_MAX_SWEEPS + 1
        assert set(shapes) == {(C.LEAF_NODES + 1, 4)}

    def test_sweep_cap_stalls(self, monkeypatch, tmp_path):
        sc = make_scenario("perturbed-ball", eps=0.05)
        monkeypatch.setattr(C, "LEAF_MAX_SWEEPS", 2)
        with pytest.raises(LeafStalled,
                           match=r"in 2 sweeps \(last correction \d\.\d+e-"):
            C.integrate_leaf(sc, 2.1)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"scenario": "perturbed-ball"}))
        out_dir = tmp_path / "out"
        assert cli.main(["--out", str(out_dir), "--quiet", "leaf",
                         str(cfg)]) == 2
        report = json.loads((out_dir / "report.json").read_text())
        assert report["status"] == "FAIL"
        assert report["error"].startswith("LeafStalled: leaf did not converge")
        assert (out_dir / "FAILED").read_text().startswith("FAIL: LeafStalled")

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


def fail_solves(monkeypatch, failing, error=NewtonStalled):
    """Make the bishop_solve calls numbered in `failing` (from 1) fail."""
    solve = C.bishop_solve
    calls = 0

    def flaky(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls in failing:
            raise error("forced failure")
        return solve(*args, **kwargs)

    monkeypatch.setattr(C, "bishop_solve", flaky)
    return lambda: calls


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
        assert diag["total_psi_sweeps"] == 0      # A = 0 on the ball
        assert diag["leaf_sweeps"] == [1, 1, 1]

    def test_failed_run_lists_rejections(self, tmp_path, monkeypatch):
        # every step after the first disc fails: 8 halvings reach min_dt
        fail_solves(monkeypatch, set(range(2, 100)))
        assert cli.run_scenario(ball_config(tmp_path), quiet=True) == 2
        diag = report_diagnostics(tmp_path)
        assert [s["dt"] for s in diag["rejected_steps"]] == \
            [0.025 * 0.5 ** k for k in range(8)]
        assert {s["side"] for s in diag["rejected_steps"]} == {"p"}


    def test_underresolved_is_not_halved(self, ball, leaves, monkeypatch):
        calls = fail_solves(monkeypatch, {2}, error=Underresolved)
        with pytest.raises(Underresolved):
            C.continue_family(ball, leaves, 0.30, 0.36,
                              grid=DiscGrid(32, 16), n_taylor=12)
        assert calls() == 2


class TestWindingChanged:
    """A disc of winding mu != 0 is refused; no smaller step mends it."""

    def test_solver_refuses_it(self, ball, leaves, monkeypatch):
        monkeypatch.setattr(C, "maslov_index", lambda disc, surface: 1)
        grid = DiscGrid(32, 16)
        with pytest.raises(WindingChanged, match="mu = 1"):
            B.bishop_solve(ball, ball.surface,
                           C._initial_guess(ball, leaves, 0.3, grid, 12),
                           C.make_pinset(ball, leaves, 0.3), n_taylor=12)

    def test_continuation_propagates_it(self, ball, leaves, monkeypatch):
        calls = 0

        def winding(disc, surface):     # the first disc is fine
            nonlocal calls
            calls += 1
            return 0 if calls == 1 else 1

        monkeypatch.setattr(C, "maslov_index", winding)
        with pytest.raises(WindingChanged):
            C.continue_family(ball, leaves, 0.30, 0.36,
                              grid=DiscGrid(32, 16), n_taylor=12)
        assert calls == 2               # no halved retry


def disc_at(grid, h_coeffs, q, t):
    """A disc record with Taylor coefficients h_coeffs and Psi correction q
    (values of h - f, one per component)."""
    f = np.stack([grid.taylor_values(c) for c in h_coeffs]) - q
    return B.BishopDisc(grid, f, h_coeffs=tuple(h_coeffs), t=t)


def correction(grid, disc, k):
    return grid.taylor_values(disc.h_coeffs[k]) - disc.f[k]


class TestLagrangePredictor:
    def test_seed_extrapolates_and_keeps_the_correction(self):
        # two discs: the secant through them
        sc = make_scenario("perturbed-ball", eps=0.05)
        grid = DiscGrid(32, 16)
        fam = C.continue_family(sc, C.reference_leaves(sc), 0.30, 0.35,
                                grid=grid, n_taylor=15)
        d0, d1 = fam.discs[:2]
        t = 2.0 * d1.t - d0.t
        seed = C._lagrange_seed([d0, d1], t)
        assert seed.t == t
        s = (t - d1.t) / (d1.t - d0.t)
        for k in range(2):
            secant = d1.h_coeffs[k] + s * (d1.h_coeffs[k] - d0.h_coeffs[k])
            assert np.max(np.abs(seed.h_coeffs[k] - secant)) <= 1e-15
            # the seed carries d1's Psi correction h - f
            q1 = correction(grid, d1, k)
            assert np.max(np.abs(q1)) > 1e-6
            assert np.max(np.abs(correction(grid, seed, k) - q1)) <= 1e-14

    def test_cubic_family_is_reproduced(self):
        grid = DiscGrid(32, 16)
        rng = np.random.default_rng(3)
        # h(t) = sum_j a_j t^j, cubic, for both components
        a = rng.standard_normal((4, 2, 8)) + 1j * rng.standard_normal((4, 2, 8))

        def h(t):
            return sum(a[j] * t ** j for j in range(4))

        q = 1e-3 * (rng.standard_normal((2,) + grid.zeta.shape)
                    + 1j * rng.standard_normal((2,) + grid.zeta.shape))
        ts = [0.3, 0.325, 0.3375, 0.35, 0.3625]   # a halved step inside
        discs = [disc_at(grid, h(t), q * (1 + t), t) for t in ts]
        t = 0.3875
        seed = C._lagrange_seed(discs[-C.PREDICTOR_DISCS:], t)
        assert seed.t == t
        for k in range(2):
            assert np.max(np.abs(seed.h_coeffs[k] - h(t)[k])) <= 1e-12
            assert np.max(np.abs(correction(grid, seed, k)
                                 - correction(grid, discs[-1], k))) <= 1e-14
        # three discs miss the cubic term
        seed3 = C._lagrange_seed(discs[-3:], t)
        assert np.max(np.abs(seed3.h_coeffs[0] - h(t)[0])) > 1e-6

    def test_one_disc_is_its_own_seed(self):
        grid = DiscGrid(32, 16)
        c = np.arange(1, 4) * (1 + 1j)
        q = np.full((2,) + grid.zeta.shape, 0.01 + 0j)
        disc = disc_at(grid, (c, c[:1]), q, 0.3)
        seed = C._lagrange_seed([disc], 0.325)
        assert seed.t == 0.325
        for k in range(2):
            assert np.array_equal(seed.h_coeffs[k], disc.h_coeffs[k])
            assert np.array_equal(seed.f[k], disc.f[k])


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
