"""Workload definitions: the entry-point calls of one pass and their oracle gates.

Each workload is a fixed list of calls into `leviflat.cli` (`run_scenario`,
`run_leaf`, `run_levi`, `run_check`).  The seed only enters through the
config `seed` field, so every pass of a workload does the same solver work.
After each call a gate reads the call's outputs and returns the list of
oracle failures; an empty list means the call passed.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from typing import Callable, Optional

CR_TOL = 1e-8          # J-holomorphy residual of every filling disc
BOUNDARY_TOL = 1e-8    # model-disc boundary residual on the quadric
FLAT_Y2_TOL = 1e-5     # ball: |y2| on the disc boundaries
FLAT_X2_TOL = 1e-8     # ball: spread of x2 over one disc

# resolution of the filling workloads; see README.md for the timings that fix it
FILLING_GRID = {"n_theta": 32, "n_rho": 16, "n_taylor": 12}


@dataclass
class Call:
    label: str
    entry: str                     # "run", "leaf", "levi" or "check"
    config: Optional[dict]         # JSON config without seed/output_dir
    gate: Callable                 # (out_dir, code, stdout, config) -> [str]


@dataclass
class ItemRule:
    """How a pass is cut into items for the item-latency metrics.

    With `segment` set, an item ends at each `tick` span called directly from
    a `segment` span and starts where the previous item (or the segment)
    began; otherwise each `tick` span is one item.
    """

    tick: str
    segment: Optional[str] = None


@dataclass
class Workload:
    name: str
    calls: list
    items: ItemRule
    setup: tuple                   # (scenario, params, n_theta, n_rho) for set-up timing


# --- gates --------------------------------------------------------------------


def _report(out_dir):
    with open(os.path.join(out_dir, "report.json")) as fh:
        return json.load(fh)


def _common(out_dir, code):
    errors = []
    if code != 0:
        errors.append(f"exit code {code}")
    if os.path.exists(os.path.join(out_dir, "FAILED")):
        errors.append("FAILED marker present")
    if not os.path.exists(os.path.join(out_dir, "report.json")):
        return errors + ["no report.json"]
    rep = _report(out_dir)
    if rep["status"] != "PASS":
        errors.append(f"status {rep['status']}: {rep['error']}")
    return errors


def _expect_checks(rep, expected):
    return [f"check {name} reads {rep['checks'].get(name)!r}, expected {want}"
            for name, want in expected.items()
            if not str(rep["checks"].get(name, "")).startswith(want)]


def gate_filling(out_dir, code, stdout, config):
    errors = _common(out_dir, code)
    if errors:
        return errors
    rep = _report(out_dir)
    errors += _expect_checks(
        rep, {"glue": "PASS", "mu_zero": "PASS", "area_bound": "PASS"})
    diag = rep["diagnostics"]
    if not diag["max_cr_residual"] <= CR_TOL:
        errors.append(f"max_cr_residual {diag['max_cr_residual']:.3e} > {CR_TOL}")
    glue_tol = config.get("glue_tol", 1e-5)
    if not diag["glue_distance"] <= glue_tol:
        errors.append(f"glue_distance {diag['glue_distance']:.3e} > {glue_tol}")
    return errors


def gate_ball_filling(out_dir, code, stdout, config):
    """Filling gates plus the closed form: every disc is flat, {z2 = c} with c real."""
    errors = gate_filling(out_dir, code, stdout, config)
    if errors:
        return errors
    x2_range = {}
    max_y2 = 0.0
    rows = 0
    with open(os.path.join(out_dir, "gamma_cloud.csv")) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        col = {name: k for k, name in enumerate(header)}
        for row in reader:
            rows += 1
            t, x2 = row[col["t"]], float(row[col["x2"]])
            lo, hi = x2_range.get(t, (x2, x2))
            x2_range[t] = (min(lo, x2), max(hi, x2))
            if float(row[col["rho"]]) == 1.0:
                max_y2 = max(max_y2, abs(float(row[col["y2"]])))
    n_discs = _report(out_dir)["diagnostics"]["n_discs"]
    per_disc = (config["n_rho"] + 1) * config["n_theta"]
    if len(x2_range) != n_discs or rows != n_discs * per_disc:
        errors.append(f"gamma_cloud.csv has {rows} rows over {len(x2_range)} "
                      f"discs, report says {n_discs} discs")
    if max_y2 > FLAT_Y2_TOL:
        errors.append(f"boundary |y2| reaches {max_y2:.3e} > {FLAT_Y2_TOL}")
    spread = max(hi - lo for lo, hi in x2_range.values())
    if spread > FLAT_X2_TOL:
        errors.append(f"x2 varies by {spread:.3e} over a disc (> {FLAT_X2_TOL})")
    return errors


def gate_quadric(out_dir, code, stdout, config):
    errors = _common(out_dir, code)
    if errors:
        return errors
    errors += _expect_checks(_report(out_dir),
                             {"mu_zero": "PASS", "glue": "SKIPPED"})
    with open(os.path.join(out_dir, "family.json")) as fh:
        family = json.load(fh)
    if not family["discs"]:
        errors.append("family.json holds no discs")
    for disc in family["discs"]:
        res = disc["diagnostics"]["boundary_residual"]
        if not res <= BOUNDARY_TOL:
            errors.append(f"disc t={disc['t']}: boundary_residual {res:.3e}")
    return errors


def gate_leaf(out_dir, code, stdout, config):
    errors = _common(out_dir, code)
    if not errors and not all(n > 0 for n in
                              _report(out_dir)["diagnostics"]["n_points"]):
        errors.append("empty characteristic leaf")
    return errors


def gate_levi(out_dir, code, stdout, config):
    errors = _common(out_dir, code)
    if not errors:
        errors += _expect_checks(_report(out_dir), {"df_exhaustion": "PASS"})
    return errors


def gate_check(out_dir, code, stdout, config):
    errors = [] if code == 0 else [f"exit code {code}"]
    lines = stdout.splitlines()
    if not lines:
        errors.append("check printed nothing")
    errors += [f"check line: {line}" for line in lines
               if not line.startswith("PASS ")]
    return errors


# --- the catalog --------------------------------------------------------------


PERTURBED = {"scenario": "perturbed-ball", "epsilon": 0.01}

WORKLOADS = {
    w.name: w for w in [
        Workload(
            name="ball-filling",
            calls=[Call("run", "run", {"scenario": "ball", **FILLING_GRID},
                        gate_ball_filling)],
            items=ItemRule(tick="continuation.monitor",
                           segment="continuation.continue_family"),
            setup=("ball", {}, FILLING_GRID["n_theta"], FILLING_GRID["n_rho"]),
        ),
        Workload(
            name="perturbed-filling",
            calls=[Call("run", "run", {**PERTURBED, **FILLING_GRID},
                        gate_filling)],
            items=ItemRule(tick="continuation.monitor",
                           segment="continuation.continue_family"),
            setup=("perturbed-ball", {"eps": PERTURBED["epsilon"]},
                   FILLING_GRID["n_theta"], FILLING_GRID["n_rho"]),
        ),
        Workload(
            name="quadric-local",
            calls=[Call(f"gamma-{g}", "run",
                        {"scenario": "model-quadric", "gamma": g},
                        gate_quadric)
                   for g in (0.5, 0.6, 0.7)],
            items=ItemRule(tick="bishop.ellipse_map",
                           segment="bishop.model_family"),
            setup=("model-quadric", {"gamma": 0.5}, 64, 32),
        ),
        Workload(
            name="sphere-diagnostics",
            calls=[Call(f"{entry}-{sc}", entry, {"scenario": sc}, gate)
                   for sc in ("ball", "weak-m2", "perturbed-ball")
                   for entry, gate in (("leaf", gate_leaf),
                                       ("levi", gate_levi))]
            + [Call("check", "check", None, gate_check)],
            items=ItemRule(tick="continuation.leaves"),
            setup=("ball", {}, 64, 32),
        ),
    ]
}
