"""Command-line interface: scenario runs, invariant checks, and data dumps.

Subcommands:
  run <config>    full pipeline (models, leaves, continuation, glue, report)
  check           invariant suite over the scenario catalog, no files written
  leaf <config>   dump the three reference characteristic leaves (leaf.csv)
  levi <config>   Levi-form / exhaustion-function diagnostics (report.json)

Flags: --out DIR (output directory), --resolution NT,NR, --quiet.
Exit codes: 0 full pass, 2 diagnostic failure, 1 unexpected error; any
nonzero exit leaves a FAILED marker file in the output directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from dataclasses import dataclass, field, fields

import numpy as np

from . import bishop, continuation, geometry, serialize
from .calculus import DiscGrid, DiscField, cauchy_green, check_grid, dbar
from .errors import ConfigError, LeviflatError, StepUnderflow
from .scenarios import SCENARIO_NAMES, make_scenario

@dataclass
class RunConfig:
    scenario: str
    gamma: float | None = None
    epsilon: float | None = None
    m: int | None = None
    n_theta: int = 64
    n_rho: int = 32
    n_taylor: int = 24
    newton_tol: float = 1e-10
    glue_tol: float = 1e-5
    grad_cap: float = 1000.0
    output_dir: str = "out"
    seed: int = 0


# the config keys: the RunConfig fields and the alias N_taylor of n_taylor
KNOWN_KEYS = set(RunConfig.__dataclass_fields__) | {"N_taylor"}


@dataclass
class RunReport:
    stages: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    manifest: list = field(default_factory=list)
    status: str = "PASS"
    error: str | None = None
    traceback: str | None = None

    def stage(self, name, status, seconds):
        self.stages.append({"name": name, "status": status,
                            "wall_clock_s": float(seconds)})

    def to_dict(self):
        return {"status": self.status, "error": self.error,
                "traceback": self.traceback, "stages": self.stages,
                "checks": self.checks, "diagnostics": self.diagnostics,
                "manifest": self.manifest}


def _number(key, value, kind):
    """value as an int or float; ConfigError naming the field otherwise."""
    try:
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ValueError
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"config field '{key}' needs a number "
                          f"({kind.__name__}), got {value!r}") from None


def load_config(path) -> RunConfig:
    """Read and validate a JSON run configuration, filling defaults."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    if "scenario" not in raw:
        raise ConfigError("config is missing the required field 'scenario'")
    name = raw["scenario"]
    if name not in SCENARIO_NAMES:
        raise ConfigError(
            f"unknown scenario '{name}' (choose from {SCENARIO_NAMES})")
    if "N_taylor" in raw:
        raw["n_taylor"] = raw.pop("N_taylor")
    for f in fields(RunConfig):   # numeric fields; null only for a None default
        kind = {"int": int, "float": float}.get(f.type.split(" | ")[0])
        if kind and f.name in raw and (raw[f.name] is not None
                                       or f.default is not None):
            raw[f.name] = _number(f.name, raw[f.name], kind)

    if "gamma" in raw and name != "model-quadric":
        raise ConfigError("parameter 'gamma' only applies to model-quadric")
    if "epsilon" in raw and name != "perturbed-ball":
        raise ConfigError("parameter 'epsilon' only applies to perturbed-ball")
    if "m" in raw:
        expected = {"ball": 1, "perturbed-ball": 1, "weak-m2": 2}.get(name)
        if expected is None:
            raise ConfigError(f"parameter 'm' does not apply to '{name}'")
        if raw["m"] != expected:
            raise ConfigError(
                f"parameter m = {raw['m']} is incompatible with '{name}'")
    gamma = raw.get("gamma")
    if gamma is not None and not (0 <= gamma < 1):
        raise ConfigError(
            f"gamma = {gamma} is not elliptic (needs 0 <= gamma < 1; "
            "gamma = 1 is the parabolic case)")
    for key in ("newton_tol", "glue_tol", "grad_cap"):
        if key in raw and not 0 < raw[key] < np.inf:
            raise ConfigError(f"tolerance '{key}' must be positive and finite")
    if raw.get("seed", 0) < 0:
        raise ConfigError(f"config field 'seed' must be non-negative, "
                          f"got {raw['seed']}")
    if "n_taylor" in raw and raw["n_taylor"] < 8:
        raise ConfigError("resolution 'n_taylor' must be at least 8")

    config = RunConfig(**raw)
    check_grid(config.n_theta, config.n_rho)
    return config


def _scenario_from(config: RunConfig):
    kw = {}
    if config.gamma is not None:
        kw["gamma"] = config.gamma
    if config.epsilon is not None:
        kw["eps"] = config.epsilon
    return make_scenario(config.scenario, **kw)


def _emit(report: RunReport, out_dir, quiet, code):
    os.makedirs(out_dir, exist_ok=True)
    serialize.write_json(os.path.join(out_dir, "report.json"),
                         report.to_dict())
    marker = os.path.join(out_dir, "FAILED")
    if code != 0:
        with open(marker, "w") as fh:
            fh.write(f"{report.status}: {report.error or ''}\n")
    elif os.path.exists(marker):
        os.remove(marker)
    if not quiet:
        print(f"status: {report.status}"
              + (f" ({report.error})" if report.error else ""))
    return code


def _run_quadric(scenario, config, report, out_dir, quiet):
    """Local model pipeline: the disc family on the quadric, no gluing."""
    grid = DiscGrid(config.n_theta, config.n_rho)
    t0 = time.time()
    bishop.validate_adapted(scenario.poles[0].model)
    report.stage("validate_adapted", "PASS", time.time() - t0)
    t0 = time.time()
    r_list = np.linspace(0.1, 1.0, 10)
    discs = bishop.model_family(scenario.surface.gamma, r_list, grid)
    for disc in discs:
        disc.diagnostics["mu"] = continuation.maslov_index(
            disc, scenario.surface)
        # the univalent z1 = sum c_k zeta^k covers pi sum k |c_k|^2, and
        # the constant z2 = r adds nothing
        c1 = disc.h_coeffs[0]
        disc.diagnostics["area"] = float(
            np.pi * np.sum(np.arange(len(c1)) * np.abs(c1) ** 2))
    report.stage("model_family", "PASS", time.time() - t0)
    mus = sorted({d.diagnostics["mu"] for d in discs})
    report.checks["mu_zero"] = "PASS" if mus == [0] else "FAIL"
    report.checks["glue"] = "SKIPPED (local model, single elliptic point)"
    result = continuation.FillingResult(
        discs=discs, t_values=np.array([d.t for d in discs]),
        monitors=[d.diagnostics for d in discs], junction_t=float("nan"),
        glue_distance=0.0)
    _write_family_files(result, scenario, config, report, out_dir)
    if report.checks["mu_zero"] != "PASS":
        report.status = "FAIL"
        report.error = "nonzero winding in the model family"
        return _emit(report, out_dir, quiet, 2)
    return _emit(report, out_dir, quiet, 0)


def _write_family_files(result, scenario, config, report, out_dir):
    t0 = time.time()
    os.makedirs(out_dir, exist_ok=True)
    fam = os.path.join(out_dir, "family.json")
    serialize.write_family(fam, result, scenario.name,
                           (config.n_theta, config.n_rho))
    cloud = os.path.join(out_dir, "gamma_cloud.csv")
    serialize.write_cloud(cloud, result)
    written = {os.path.basename(p): os.path.getsize(p) for p in (fam, cloud)}
    report.manifest += list(written)
    report.diagnostics["bytes_written"] = written
    report.stage("write_outputs", "PASS", time.time() - t0)


def _reference_leaves(scenario, report):
    """The three pinned leaves, with their stage time and Picard sweeps."""
    t0 = time.time()
    leaves = continuation.reference_leaves(scenario)
    report.stage("integrate_leaf", "PASS", time.time() - t0)
    report.diagnostics["leaf_sweeps"] = [leaf.sweeps for leaf in leaves]
    return leaves


def _guarded(body, config: RunConfig, quiet: bool) -> int:
    """Run the entry point body(config, report, quiet).  A LeviflatError
    ends it with FAIL and exit 2, any other exception with ERROR and exit 1;
    both write the traceback into report.json."""
    report = RunReport()
    try:
        return body(config, report, quiet)
    except Exception as exc:
        diagnostic = isinstance(exc, LeviflatError)
        if isinstance(exc, StepUnderflow):   # the failed branch's steps
            report.diagnostics.setdefault("rejected_steps", []).extend(
                exc.rejected)
        report.status = "FAIL" if diagnostic else "ERROR"
        report.error = f"{type(exc).__name__}: {exc}"
        report.traceback = traceback.format_exc()
        return _emit(report, config.output_dir, quiet, 2 if diagnostic else 1)


def run_scenario(config: RunConfig, quiet=False) -> int:
    return _guarded(_run_scenario, config, quiet)


def _run_scenario(config: RunConfig, report: RunReport, quiet) -> int:
    out_dir = config.output_dir
    t0 = time.time()
    scenario = _scenario_from(config)
    rng = np.random.default_rng(config.seed)
    samples = rng.uniform(-0.7, 0.7, (32, 4))
    inv = scenario.chart.check_invariants(samples)
    report.diagnostics["chart_invariants"] = inv
    report.stage("chart_invariants", "PASS", time.time() - t0)

    if config.scenario == "model-quadric":
        return _run_quadric(scenario, config, report, out_dir, quiet)

    t0 = time.time()
    for pole in scenario.poles:
        bishop.validate_adapted(pole.model)
    report.stage("validate_adapted", "PASS", time.time() - t0)

    leaves = _reference_leaves(scenario, report)

    grid = DiscGrid(config.n_theta, config.n_rho)
    rejected = report.diagnostics["rejected_steps"] = []
    fams = []
    for side, t_start in (("p", 0.05), ("q", 0.95)):
        t0 = time.time()
        fams.append(continuation.continue_family(
            scenario, leaves, t_start, 0.5, grid=grid,
            n_taylor=config.n_taylor, newton_tol=config.newton_tol,
            grad_cap=config.grad_cap, side=side))
        rejected += fams[-1].rejected
        report.stage(f"continue_family_{side}", "PASS", time.time() - t0)

    t0 = time.time()
    result = continuation.glue(*fams, tol=config.glue_tol)
    report.stage("glue", "PASS", time.time() - t0)
    report.checks["glue"] = "PASS"
    report.diagnostics["glue_distance"] = result.glue_distance

    mus = sorted({m["mu"] for m in result.monitors})
    report.checks["mu_zero"] = "PASS" if mus == [0] else "FAIL"
    areas = [m["area"] for m in result.monitors]
    bound = geometry.sphere_area_bound(scenario.surface,
                                       scenario.chart.omega)
    report.checks["area_bound"] = (
        "PASS" if max(areas) <= bound + 1e-4 else "FAIL")
    report.diagnostics["max_area"] = float(max(areas))
    report.diagnostics["sphere_area_bound"] = float(bound)
    report.diagnostics["a_min"] = float(
        min(m["a_min"] for m in result.monitors))
    report.diagnostics["max_cr_residual"] = float(
        max(d.diagnostics["cr_residual"] for d in result.discs))
    report.diagnostics["max_boundary_residual"] = float(
        max(d.diagnostics["boundary_residual"] for d in result.discs))
    report.diagnostics["max_newton_iters"] = int(
        max(d.diagnostics["newton_iters"] for d in result.discs))
    report.diagnostics["n_discs"] = len(result.discs)
    for key in ("newton_iters", "psi_sweeps", "psi_solves"):
        report.diagnostics[f"total_{key}"] = int(sum(
            d.diagnostics[key] for fam in fams for d in fam.discs))

    _write_family_files(result, scenario, config, report, out_dir)

    failed = [k for k, v in report.checks.items() if v == "FAIL"]
    if failed:
        report.status = "FAIL"
        report.error = f"checks failed: {failed}"
        return _emit(report, out_dir, quiet, 2)
    return _emit(report, out_dir, quiet, 0)


def run_check(quiet=False) -> int:
    """Invariant suite over the catalog; prints one line per check."""
    ok = True
    lines = []

    def record(name, passed, detail=""):
        nonlocal ok
        ok = ok and passed
        lines.append(f"{'PASS' if passed else 'FAIL'} {name} {detail}")

    grid = DiscGrid(64, 32)
    f = DiscField.from_function(grid, np.conj)
    err = (dbar(cauchy_green(f)) - f).sup_norm()
    record("cauchy_green right inverse", err <= 1e-6, f"err={err:.3e}")

    from .rh import RHProblem, solve_rh
    fam = solve_rh(RHProblem(grid=grid, lam=np.ones(64), g=np.cos(grid.theta)))
    w_err = float(np.max(np.abs(fam.particular.values - grid.zeta)))
    record("rh regression w = zeta", w_err <= 1e-8, f"err={w_err:.3e}")

    for name in SCENARIO_NAMES:
        try:
            sc = make_scenario(name)
            rng = np.random.default_rng(3)
            sc.chart.check_invariants(rng.uniform(-0.7, 0.7, (16, 4)))
            for pole in sc.poles:
                bishop.validate_adapted(pole.model)
            record(f"scenario {name}", True)
        except LeviflatError as exc:
            record(f"scenario {name}", False, str(exc))

    if not quiet:
        print("\n".join(lines))
    return 0 if ok else 2


def run_leaf(config: RunConfig, quiet=False) -> int:
    return _guarded(_run_leaf, config, quiet)


def _run_leaf(config: RunConfig, report: RunReport, quiet) -> int:
    out_dir = config.output_dir
    scenario = _scenario_from(config)
    if len(scenario.poles) != 2:
        raise ConfigError(f"leaf needs a sphere with two complex points; "
                          f"{config.scenario} has {len(scenario.poles)}")
    leaves = _reference_leaves(scenario, report)
    t0 = time.time()
    os.makedirs(out_dir, exist_ok=True)
    rows = [np.column_stack([np.full(len(leaf.t), float(k)), leaf.t, leaf.u,
                             leaf.v, leaf.points])
            for k, leaf in enumerate(leaves)]
    path = os.path.join(out_dir, "leaf.csv")
    serialize.write_csv(path, ["leaf", "t", "u", "v", "x1", "y1", "x2", "y2"],
                        np.concatenate(rows, axis=0))
    report.manifest.append("leaf.csv")
    report.diagnostics["bytes_written"] = {"leaf.csv": os.path.getsize(path)}
    report.stage("write_outputs", "PASS", time.time() - t0)
    report.diagnostics["n_points"] = [len(l.t) for l in leaves]
    return _emit(report, out_dir, quiet, 0)


def run_levi(config: RunConfig, quiet=False) -> int:
    """Levi-form samples of the boundary defining function + exhaustion scan."""
    return _guarded(_run_levi, config, quiet)


def _run_levi(config: RunConfig, report: RunReport, quiet) -> int:
    out_dir = config.output_dir
    scenario = _scenario_from(config)
    chart = scenario.chart
    rng = np.random.default_rng(config.seed)
    t0 = time.time()
    # Levi form of r at interior samples, random complex-tangent-free dirs
    P, T = [], []
    while len(P) < 24:
        p = rng.uniform(-0.9, 0.9, 4)
        if chart.defining_r(p) >= -0.05:
            continue
        t = rng.standard_normal(4)
        P.append(p)
        T.append(t / np.linalg.norm(t))
    vals = geometry.levi_form(chart, chart.defining_r, np.array(P),
                              np.array(T))
    report.diagnostics["levi_r_min"] = float(np.min(vals))
    report.diagnostics["levi_r_max"] = float(np.max(vals))
    report.stage("levi_samples", "PASS", time.time() - t0)

    if chart.psi is not None:
        t0 = time.time()
        best = df_scan(scenario, seed=config.seed)
        report.diagnostics["df_scan"] = best
        report.checks["df_exhaustion"] = (
            "PASS" if best["passed"] else "FAIL")
        report.stage("df_scan", "PASS", time.time() - t0)
    if report.checks.get("df_exhaustion", "PASS") != "PASS":
        report.status = "FAIL"
        report.error = "no plurisubharmonic exhaustion parameters found"
        return _emit(report, out_dir, quiet, 2)
    return _emit(report, out_dir, quiet, 0)


def collar_samples(scenario, seed=0):
    """32 (point, tangent) pairs in the collar {-0.2 < r < -0.02}."""
    chart = scenario.chart
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < 32:
        p = rng.uniform(-1.1, 1.1, 4)
        r = chart.defining_r(p)
        if not (-0.2 < r < -0.02):
            continue
        t = rng.standard_normal(4)
        t /= np.linalg.norm(t)
        out.append((p, t))
    return out


def df_scan(scenario, seed=0):
    """Scan the bounded-exhaustion parameters for a plurisubharmonic candidate.

    Tries A in 1, 2, 4, ..., 32 and eta in 0.1, 0.2, ..., 0.9.  Returns the
    best (A, eta) with its Levi-form report over collar samples; passed
    means min >= -1e-8 and positive at >= 95% of the samples.
    """
    samples = collar_samples(scenario, seed=seed)
    best = None
    for A in (1, 2, 4, 8, 16, 32):
        for eta in np.round(np.arange(0.1, 1.0, 0.1), 1):
            fn = geometry.df_exhaustion(scenario.chart, float(A), float(eta))
            try:
                rep = geometry.check_plurisubharmonic(
                    scenario.chart, fn, samples)
            except LeviflatError:
                continue
            entry = {"A": float(A), "eta": float(eta),
                     "min_levi": rep.min_value,
                     "positive_fraction": rep.positive_fraction,
                     "passed": bool(rep.passed
                                    and rep.positive_fraction >= 0.95)}
            if best is None or (entry["passed"] and not best["passed"]) \
                    or (entry["passed"] == best["passed"]
                        and entry["min_levi"] > best["min_levi"]):
                best = entry
            if entry["passed"]:
                return entry
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="leviflat",
        description="Bishop disc families and Levi-flat fillings of two-spheres")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--resolution", default=None, metavar="NT,NR",
                        help="grid resolution, e.g. 64,32")
    parser.add_argument("--quiet", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "leaf", "levi"):
        sp = sub.add_parser(name)
        sp.add_argument("config")
    sub.add_parser("check")
    args = parser.parse_args(argv)

    try:
        if args.command == "check":
            return run_check(quiet=args.quiet)
        config = load_config(args.config)
        if args.out:
            config.output_dir = args.out
        if args.resolution:
            try:
                nt, nr = (int(x) for x in args.resolution.split(","))
            except ValueError:
                raise ConfigError(
                    f"--resolution expects NT,NR integers, got {args.resolution}")
            check_grid(nt, nr)
            config.n_theta, config.n_rho = nt, nr
        if args.command == "run" and config.scenario != "model-quadric":
            # only the disc solver uses n_taylor; fail before any stage runs
            bishop.check_taylor_order(config.n_taylor, config.n_theta,
                                      config.n_rho)
        dispatch = {"run": run_scenario, "leaf": run_leaf, "levi": run_levi}
        return dispatch[args.command](config, quiet=args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        out_dir = args.out or _configured_output_dir(args.config)
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "FAILED"), "w") as fh:
            fh.write(f"ConfigError: {exc}\n")
        return 2


def _configured_output_dir(path):
    """The config file's output_dir if it names one, else the default."""
    try:
        with open(path) as fh:
            out_dir = json.load(fh)["output_dir"]
    except (OSError, ValueError, LookupError, TypeError):
        out_dir = None
    return out_dir if isinstance(out_dir, str) and out_dir \
        else RunConfig.output_dir


if __name__ == "__main__":
    sys.exit(main())
