"""Acceptance gate: the eight end-to-end criteria with analytic oracles.

Each criterion prints one pass/fail line (visible even under pytest capture)
and asserts both the numerical tolerance and the runtime budget.
"""

import time

import numpy as np
import pytest

from leviflat import bishop as B
from leviflat import cli
from leviflat import continuation as C
from leviflat import geometry as G
from leviflat.calculus import DiscGrid
from leviflat.rh import RHProblem, solve_rh
from leviflat.scenarios import make_scenario

FIXTURE_TIMES = {}


def announce(capsys, name, passed, detail, elapsed, limit):
    with capsys.disabled():
        mark = "PASS" if (passed and elapsed < limit) else "FAIL"
        print(f"[{mark}] {name}: {detail} [{elapsed:.1f}s / {limit:.0f}s]")
    assert passed, f"{name}: {detail}"
    assert elapsed < limit, f"{name} exceeded the runtime budget"


def run_pipeline(name, t_junction=0.5):
    sc = make_scenario(name)
    leaves = C.reference_leaves(sc)
    grid = DiscGrid(64, 32)
    fam_p = C.continue_family(sc, leaves, 0.05, t_junction, grid=grid,
                              side="p")
    fam_q = C.continue_family(sc, leaves, 0.95, t_junction, grid=grid,
                              side="q")
    return sc, C.glue(fam_p, fam_q)


@pytest.fixture(scope="module")
def ball_result():
    t0 = time.perf_counter()
    sc, result = run_pipeline("ball")
    FIXTURE_TIMES["ball"] = time.perf_counter() - t0
    return sc, result


@pytest.fixture(scope="module")
def perturbed_result():
    t0 = time.perf_counter()
    sc, result = run_pipeline("perturbed-ball")
    FIXTURE_TIMES["perturbed"] = time.perf_counter() - t0
    return sc, result


def test_criterion_1_cauchy_green_right_inverse(capsys):
    t0 = time.perf_counter()
    grid = DiscGrid(64, 32)
    tests = {
        "1": lambda z: np.ones_like(z),
        "conj(z)": np.conj,
        "Re z": lambda z: np.real(z) + 0j,
        "z^2 conj(z)": lambda z: z ** 2 * np.conj(z),
        "e^z conj(z)^2": lambda z: np.exp(z) * np.conj(z) ** 2,
    }
    worst = 0.0
    for fn in tests.values():
        f = fn(grid.zeta)
        worst = max(worst, float(np.max(np.abs(
            grid.dbar_apply(grid.cg_apply(f)) - f))))
    one = np.ones_like(grid.zeta)
    anti = float(np.max(np.abs(grid.cg_apply(one) - np.conj(grid.zeta))))
    elapsed = time.perf_counter() - t0
    announce(capsys, "criterion 1 area-integral right inverse",
             worst <= 1e-6 and anti <= 1e-8,
             f"max residual {worst:.2e}, T(1) vs conj(z) {anti:.2e}",
             elapsed, 5.0)


def test_criterion_2_rh_regression(capsys):
    t0 = time.perf_counter()
    grid = DiscGrid(64, 32)
    g = np.cos(grid.theta)
    fam = solve_rh(RHProblem(grid=grid, lam=np.ones(64), g=g))
    w_err = float(np.max(np.abs(fam.particular - grid.zeta)))

    dims_ok, worst_res, worst_smin = True, 0.0, np.inf
    for kappa, dim in [(0, 1), (1, 3), (2, 5)]:
        lam_k = np.exp(1j * kappa * grid.theta)
        fk = solve_rh(RHProblem(grid=grid, lam=lam_k, g=g))
        dims_ok = dims_ok and len(fk.basis) == dim
        for b in fk.basis:
            res = np.max(np.abs(np.real(np.conj(lam_k) * b[-1])))
            worst_res = max(worst_res, float(res))
        M = np.stack([np.concatenate([np.real(b.ravel()), np.imag(b.ravel())])
                      for b in fk.basis])
        worst_smin = min(worst_smin,
                         float(np.linalg.svd(M, compute_uv=False)[-1]))
    elapsed = time.perf_counter() - t0
    announce(capsys, "criterion 2 boundary-problem regression",
             w_err <= 1e-8 and dims_ok and worst_res <= 1e-10
             and worst_smin > 1e-6,
             f"w err {w_err:.2e}, dims ok {dims_ok}, "
             f"hom res {worst_res:.2e}, smin {worst_smin:.2e}",
             elapsed, 5.0)


def test_criterion_3_model_family(capsys):
    t0 = time.perf_counter()
    grid = DiscGrid(64, 32)
    r_list = np.linspace(0.2, 1.0, 5)

    round_err = 0.0
    for disc, r in zip(B.model_family(0.0, r_list, grid), r_list):
        ref = np.stack([grid.taylor_values([0.0, np.sqrt(r)]),
                        grid.taylor_values([r])])
        round_err = max(round_err, float(np.max(np.abs(disc.f - ref))))

    bres, mus = 0.0, set()
    for disc, r in zip(B.model_family(0.5, r_list, grid), r_list):
        z = disc.f[0, -1]
        P = np.abs(z) ** 2 + 0.5 * np.real(z ** 2)
        bres = max(bres, float(np.max(np.abs(P - r))))
        sc = make_scenario("model-quadric", gamma=0.5)
        mus.add(C.maslov_index(disc, sc.surface))
    elapsed = time.perf_counter() - t0
    announce(capsys, "criterion 3 model family",
             round_err <= 1e-8 and bres <= 1e-8 and mus == {0},
             f"round err {round_err:.2e}, boundary res {bres:.2e}, mu {mus}",
             elapsed, 10.0)


def test_criterion_4_ball_end_to_end(capsys, ball_result):
    t0 = time.perf_counter()
    sc, result = ball_result

    flat_h, area_err, max_area = 0.0, 0.0, 0.0
    mus, crossings = set(), set()
    for disc, mon in zip(result.discs, result.monitors):
        pts = G.to_complex(disc.points().reshape(-1, 4))
        c = pts[0, 1]                       # disc's own constant z2 level
        a = np.sqrt(max(0.0, 1.0 - abs(c) ** 2))
        d = np.sqrt(np.abs(pts[:, 1] - c) ** 2
                    + np.maximum(0.0, np.abs(pts[:, 0]) - a) ** 2)
        flat_h = max(flat_h, float(np.max(d)))
        area_err = max(area_err,
                       abs(mon["area"] - np.pi * (1 - abs(c) ** 2)))
        max_area = max(max_area, mon["area"])
        mus.add(mon["mu"])
        crossings.add(mon["boundary_leaf_crossings"])

    bound = G.sphere_area_bound(sc.surface, sc.chart.omega)
    y2_max = float(np.max(np.abs(result.boundary_cloud()[:, 6])))
    levi_max = float(np.max(np.abs(
        C.levi_certificate(result, sc.chart, n_samples=40))))
    elapsed = FIXTURE_TIMES["ball"] + time.perf_counter() - t0
    passed = (result.glue_distance <= 1e-5 and flat_h <= 1e-6
              and area_err <= 1e-6 and max_area <= bound + 1e-4
              and mus == {0} and crossings == {1}
              and y2_max <= 1e-5 and levi_max <= 1e-3)
    announce(capsys, "criterion 4 ball end-to-end",
             passed,
             f"glue {result.glue_distance:.2e}, flat {flat_h:.2e}, "
             f"area err {area_err:.2e}, mu {mus}, crossings {crossings}, "
             f"trace |y2| {y2_max:.2e}, levi {levi_max:.2e}",
             elapsed, 60.0)


def test_criterion_5_perturbed_structure(capsys, perturbed_result):
    t0 = time.perf_counter()
    sc, result = perturbed_result
    iters = max(d.diagnostics["newton_iters"] for d in result.discs)
    cr = max(d.diagnostics["cr_residual"] for d in result.discs)
    bres = max(d.diagnostics["boundary_residual"] for d in result.discs)
    a_min = min(m["a_min"] for m in result.monitors)
    elapsed = FIXTURE_TIMES["perturbed"] + time.perf_counter() - t0
    announce(capsys, "criterion 5 perturbed structure",
             iters <= 15 and cr <= 1e-8 and bres <= 1e-8 and a_min > 0,
             f"iters {iters}, cr {cr:.2e}, boundary {bres:.2e}, "
             f"a_min {a_min:.3f}, no blow-up",
             elapsed, 300.0)


def test_criterion_6_levi_form_cross_oracle(capsys):
    t0 = time.perf_counter()
    sc = make_scenario("perturbed-ball")
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        p = rng.uniform(-0.6, 0.6, 4)
        t = rng.standard_normal(4)
        t /= np.linalg.norm(t)
        v1 = G.levi_form(sc.chart, sc.chart.defining_r, p, t)
        v2 = G.levi_form_via_disc(sc.chart, sc.chart.defining_r, p, t)
        worst = max(worst, abs(v1 - v2))
    elapsed = time.perf_counter() - t0
    announce(capsys, "criterion 6 Levi-form cross oracle",
             worst <= 1e-4, f"max discrepancy {worst:.2e} over 100 samples",
             elapsed, 60.0)


def test_criterion_7_exhaustion_scan(capsys):
    t0 = time.perf_counter()
    sc = make_scenario("weak-m2")
    best = cli.df_scan(sc)
    elapsed = time.perf_counter() - t0
    announce(capsys, "criterion 7 bounded-exhaustion scan",
             best is not None and best["passed"],
             f"A={best['A']:g}, eta={best['eta']:g}, "
             f"min levi {best['min_levi']:.2e}, "
             f"positive fraction {best['positive_fraction']:.2f}",
             elapsed, 120.0)


def test_criterion_8_collar_decay(capsys, ball_result):
    t0 = time.perf_counter()
    sc_ball, ball = ball_result
    c_ball = min(C.collar_decay(d, sc_ball.chart) for d in ball.discs)
    sc_weak, weak = run_pipeline("weak-m2")
    c_weak = min(C.collar_decay(d, sc_weak.chart) for d in weak.discs)
    elapsed = time.perf_counter() - t0
    announce(capsys, "criterion 8 collar decay",
             c_ball > 0 and c_weak > 0,
             f"fitted c: ball {c_ball:.3f}, weak-m2 {c_weak:.3f}",
             elapsed, 30.0)
