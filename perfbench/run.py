"""Closed-loop benchmark of the leviflat filling pipeline.

    python3 perfbench/run.py --workload ball-filling --seed 0 --seconds 10 --trace 0

One client in one process calls the public entry points of `leviflat.cli`
back to back: each pass starts when the previous one has finished and its
outputs have passed the oracle gates of `workloads.py`.  Passes continue
until `--seconds` have elapsed and enough item samples exist for the item
latency percentiles.  The last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`; `--trace 0`
reports the end-to-end metrics, `--trace 1` the per-layer metrics and the
tracing overhead.  README.md describes the workloads and every metric.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass

from spans import Recorder, Target, aggregate, count_under
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
ITEM_QUANTILE = 80     # item latency percentile reported next to the median
MIN_ITEMS = 50         # so that at least ten samples lie beyond the p80
MEASURE_CAP_S = 140.0  # no pass starts that could end after this

# spans the untraced run keeps: they mark where items begin and end
PROBES = ("continuation.continue_family", "continuation.monitor",
          "bishop.model_family", "bishop.ellipse_map", "continuation.leaves")

ENTRY = {"run": "run_scenario", "leaf": "run_leaf", "levi": "run_levi",
         "check": "run_check"}


@dataclass
class Pass:
    traced: bool
    seconds: float
    errors: list


# --- instrumentation targets --------------------------------------------------


def _measure_cg(args, kwargs, result):
    """Columns and computed operation count of one Cauchy-Green apply.

    Per column: the (R x R) real mode matrices are promoted to complex and
    applied to each of the T angular modes (8 flops per complex multiply-add),
    plus a forward and an inverse FFT of length T on each of the R rings
    (5 T log2 T flops each).  Computed from shapes, not measured.
    """
    grid, values = args[0], args[1]
    cols = math.prod(values.shape[:-2])
    R, T = grid.n_radial, grid.n_theta
    flop = cols * (8 * T * R * R + 2 * 5 * T * math.log2(T) * R)
    return {"cols": cols, "gflop": flop / 1e9}


def _measure_psi(args, kwargs, result):
    return {"cols": math.prod(args[2].shape[:-3])}


def _measure_solve(args, kwargs, result):
    return {"newton_iters": result.diagnostics["newton_iters"]}


def _measure_ellipse(args, kwargs, result):
    return {"max_n": len(result[0])}


def _measure_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def trace_targets():
    from leviflat import (bishop, calculus, cli, continuation, geometry, rh,
                          scenarios, serialize)
    grid = calculus.DiscGrid
    return [
        Target("calculus.cg_apply", grid, "cg_apply", _measure_cg),
        Target("calculus.dz_apply", grid, "dz_apply"),
        Target("calculus.cg_build", grid, "_build_cg"),
        Target("bishop.solve", bishop, "bishop_solve", _measure_solve),
        Target("bishop.psi_inverse", bishop, "psi_inverse_values",
               _measure_psi),
        Target("bishop.ellipse_map", bishop, "ellipse_map", _measure_ellipse),
        Target("bishop.model_family", bishop, "model_family"),
        Target("continuation.leaves", continuation, "integrate_leaf"),
        Target("continuation.characteristic_field", continuation,
               "characteristic_field"),
        Target("continuation.continue_family", continuation,
               "continue_family"),
        Target("continuation.monitor", continuation, "monitor"),
        Target("continuation.glue", continuation, "glue"),
        Target("geometry.levi_form", geometry, "levi_form"),
        Target("geometry.check_plurisubharmonic", geometry,
               "check_plurisubharmonic"),
        Target("geometry.disc_area", geometry, "disc_area"),
        Target("rh.solve_rh", rh, "solve_rh"),
        Target("serialize.write_cloud", serialize, "write_cloud"),
        Target("serialize.write_family", serialize, "write_family"),
        Target("serialize.write_csv", serialize, "write_csv", _measure_bytes),
        Target("serialize.write_json", serialize, "write_json",
               _measure_bytes),
        Target("scenarios.make_scenario", scenarios, "make_scenario"),
    ] + [Target(f"cli.{fn}", cli, fn) for fn in ENTRY.values()]


# --- one pass -----------------------------------------------------------------


def invoke(cli, call, config_path, out_dir):
    """Run one entry-point call; returns (exit code, captured stdout, seconds)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(buf):
            if call.entry == "check":
                code = cli.run_check()
            else:
                config = cli.load_config(config_path)
                config.output_dir = out_dir
                code = getattr(cli, ENTRY[call.entry])(config, quiet=True)
    except Exception:   # the loop must go on and count the failed pass
        code = 1
        buf.write("FAIL uncaught " + traceback.format_exc())
    return code, buf.getvalue(), time.perf_counter() - t0


def run_pass(cli, workload, config_paths):
    seconds, errors = 0.0, []
    for call in workload.calls:
        out_dir = os.path.join(OUT, workload.name, call.label)
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        code, stdout, dt = invoke(cli, call, config_paths.get(call.label), out_dir)
        seconds += dt
        try:
            failures = call.gate(out_dir, code, stdout, call.config or {})
        except (OSError, ValueError, KeyError) as exc:
            failures = [f"unreadable output: {exc!r}"]
        errors += [f"{call.label}: {msg}" for msg in failures]
    return seconds, errors


def write_configs(workload, seed):
    paths = {}
    cfg_dir = os.path.join(OUT, workload.name, "configs")
    os.makedirs(cfg_dir, exist_ok=True)
    for call in workload.calls:
        if call.config is None:
            continue
        paths[call.label] = os.path.join(cfg_dir, f"{call.label}.json")
        with open(paths[call.label], "w") as fh:
            json.dump({**call.config, "seed": seed}, fh)
    return paths


# --- metrics ------------------------------------------------------------------


def item_samples(spans, rule):
    """Item latencies in seconds (see workloads.ItemRule)."""
    if rule.segment is None:
        return [s.seconds for s in spans if s.name == rule.tick]
    out, last = [], {}
    for s in spans:
        if s.name != rule.tick or s.parent < 0 \
                or spans[s.parent].name != rule.segment:
            continue
        out.append(s.end - last.get(s.parent, spans[s.parent].start))
        last[s.parent] = s.end
    return out


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(setup, passes, items):
    secs = [p.seconds for p in passes]
    q = (statistics.quantiles(items, n=100, method="inclusive")
         if len(items) >= 2 else [0.0] * 99)
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "wall_s": metric(statistics.median(secs), "s"),
        "items_per_s": metric(len(items) / sum(secs), "1/s"),
        "item_ms_p50": metric(1e3 * q[49], "ms"),
        f"item_ms_p{ITEM_QUANTILE}": metric(1e3 * q[ITEM_QUANTILE - 1], "ms"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


# (metric, span, statistic): statistic is "calls", "failed", "s" (self
# seconds) or a key summed by the span's measure function
LAYER_METRICS = [
    ("calculus.cg_apply.calls", "calculus.cg_apply", "calls"),
    ("calculus.cg_apply.s", "calculus.cg_apply", "s"),
    ("calculus.cg_apply.cols", "calculus.cg_apply", "cols"),
    ("calculus.cg_apply.gflop_computed", "calculus.cg_apply", "gflop"),
    ("calculus.dz_apply.calls", "calculus.dz_apply", "calls"),
    ("calculus.dz_apply.s", "calculus.dz_apply", "s"),
    ("calculus.cg_build.s", "calculus.cg_build", "s"),
    ("bishop.solve.calls", "bishop.solve", "calls"),
    ("bishop.solve.failed", "bishop.solve", "failed"),
    ("bishop.solve.s", "bishop.solve", "s"),
    ("bishop.newton_iters", "bishop.solve", "newton_iters"),
    ("bishop.psi_inverse.calls", "bishop.psi_inverse", "calls"),
    ("bishop.psi_inverse.cols", "bishop.psi_inverse", "cols"),
    ("bishop.psi_inverse.s", "bishop.psi_inverse", "s"),
    ("bishop.ellipse_map.calls", "bishop.ellipse_map", "calls"),
    ("bishop.ellipse_map.s", "bishop.ellipse_map", "s"),
    ("bishop.ellipse_map.max_n", "bishop.ellipse_map", "max_n"),
    ("bishop.model_family.s", "bishop.model_family", "s"),
    ("continuation.leaves.s", "continuation.leaves", "s"),
    ("continuation.characteristic_field.calls",
     "continuation.characteristic_field", "calls"),
    ("continuation.characteristic_field.s",
     "continuation.characteristic_field", "s"),
    ("continuation.continue_family.s", "continuation.continue_family", "s"),
    ("continuation.monitor.s", "continuation.monitor", "s"),
    ("continuation.glue.s", "continuation.glue", "s"),
    ("geometry.levi_form.calls", "geometry.levi_form", "calls"),
    ("geometry.levi_form.s", "geometry.levi_form", "s"),
    ("geometry.check_plurisubharmonic.s", "geometry.check_plurisubharmonic",
     "s"),
    ("geometry.disc_area.s", "geometry.disc_area", "s"),
    ("rh.solve_rh.calls", "rh.solve_rh", "calls"),
    ("rh.solve_rh.s", "rh.solve_rh", "s"),
    ("serialize.write_cloud.s", "serialize.write_cloud", "s"),
    ("serialize.write_family.s", "serialize.write_family", "s"),
    ("serialize.write_csv.s", "serialize.write_csv", "s"),
    ("serialize.write_json.s", "serialize.write_json", "s"),
    ("scenarios.make_scenario.s", "scenarios.make_scenario", "s"),
]

UNITS = {"calls": "count/pass", "failed": "count/pass", "s": "s/pass",
         "cols": "count/pass", "gflop": "GFLOP/pass", "max_n": "count",
         "newton_iters": "count/pass"}


def per_layer(spans, n_traced, traced_secs, untraced_secs):
    """Per-pass layer counts and self seconds from the traced passes."""
    stats = aggregate(spans)
    out = {}
    for name, span, stat in LAYER_METRICS:
        st = stats.get(span)
        if st is None:
            value = 0.0
        elif stat in ("calls", "failed"):
            value = getattr(st, stat)
        elif stat == "s":
            value = st.self_s
        else:
            value = st.measured[stat]
        if stat != "max_n":
            value /= n_traced
        out[name] = metric(value, UNITS[stat])

    sweeps = count_under(spans, "calculus.cg_apply", "bishop.psi_inverse")
    psi_calls = stats["bishop.psi_inverse"].calls \
        if "bishop.psi_inverse" in stats else 0
    attempted = count_under(spans, "bishop.solve",
                            "continuation.continue_family")
    accepted = count_under(spans, "continuation.monitor",
                           "continuation.continue_family", direct=True)
    written = sum(stats[k].measured["bytes"] for k in
                  ("serialize.write_csv", "serialize.write_json") if k in stats)
    cli_self = sum(st.self_s for name, st in stats.items()
                   if name.startswith("cli."))
    out.update({
        "bishop.psi_sweeps": metric(sweeps / n_traced, "count/pass"),
        "bishop.psi_sweeps_per_call": metric(
            sweeps / psi_calls if psi_calls else 0.0, "ratio"),
        "continuation.steps_attempted": metric(attempted / n_traced,
                                               "count/pass"),
        "continuation.steps_accepted": metric(accepted / n_traced,
                                              "count/pass"),
        "continuation.step_accept_ratio": metric(
            accepted / attempted if attempted else 0.0, "ratio"),
        "serialize.bytes_written": metric(written / n_traced, "B/pass"),
        "cli.self.s": metric(cli_self / n_traced, "s/pass"),
        "trace.spans": metric(len(spans) / n_traced, "count/pass"),
        "trace.overhead_s": metric(statistics.median(traced_secs)
                                   - statistics.median(untraced_secs), "s"),
    })
    return out


# --- environment and set-up ---------------------------------------------------


def environment(nproc):
    import numpy
    import scipy

    env = {"nproc": nproc,
           "threads": {v: os.environ.get(v) for v in THREAD_VARS},
           "python": platform.python_version(),
           "numpy": numpy.__version__, "scipy": scipy.__version__,
           "machine": platform.machine()}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    return env


def measure_setup(workload):
    scenario, params, n_theta, n_rho = workload.setup
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC, scenario,
         json.dumps(params), str(n_theta), str(n_rho)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
    return float(proc.stdout.split()[-1])


# --- main ---------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "leviflat", "__init__.py")):
        print(f"leviflat sources not found under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    # one client on one BLAS thread unless the caller sets the variables:
    # on these small matrices a second thread made passes slower and noisier
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    setup = [measure_setup(workload) for _ in range(SETUP_REPEATS)]

    sys.path.insert(0, SRC)
    import leviflat
    from leviflat import cli
    if not os.path.abspath(leviflat.__file__).startswith(SRC + os.sep):
        print(f"leviflat was imported from {leviflat.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    env = environment(nproc)

    targets = trace_targets()
    probes = [t for t in targets if t.name in PROBES]
    probe_rec, trace_rec = Recorder(), Recorder()
    config_paths = write_configs(workload, args.seed)
    passes = []

    def enough():
        untraced = [p for p in passes if not p.traced]
        if args.trace:
            return untraced and len(untraced) < len(passes)
        return len(item_samples(probe_rec.spans, workload.items)) >= MIN_ITEMS

    t_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_start
        if elapsed >= args.seconds and enough():
            break
        if passes and elapsed + max(p.seconds for p in passes) > MEASURE_CAP_S:
            break
        traced = bool(args.trace) and len(passes) % 2 == 1
        rec = trace_rec if traced else probe_rec
        rec.pass_id = len(passes)
        rec.install(targets if traced else probes)
        try:
            seconds, errors = run_pass(cli, workload, config_paths)
        finally:
            rec.uninstall()
        passes.append(Pass(traced, seconds, errors))

    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    items = item_samples(probe_rec.spans, workload.items)
    failed = sum(1 for p in passes if p.errors)
    if args.trace:
        metrics = per_layer(trace_rec.spans, len(traced),
                            [p.seconds for p in traced],
                            [p.seconds for p in untraced])
    else:
        metrics = end_to_end(setup, untraced, items)

    run_dir = os.path.join(OUT, workload.name)
    tag = f"seed{args.seed}-trace{args.trace}"
    if args.trace:
        trace_rec.write_csv(os.path.join(run_dir, f"spans-{tag}.csv"))
    with open(os.path.join(run_dir, f"result-{tag}.json"), "w") as fh:
        json.dump({"workload": workload.name, "seed": args.seed,
                   "seconds": args.seconds, "environment": env,
                   "setup_s": setup,
                   "passes": [vars(p) for p in passes],
                   "item_s": items, "metrics": metrics}, fh, indent=1)

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"environment {json.dumps(env)}")
    for p in passes:
        print(f"pass {'traced' if p.traced else 'untraced'} "
              f"{p.seconds:.3f} s  {'FAIL ' + '; '.join(p.errors) if p.errors else 'ok'}")
    print(f"items {len(items)}  passes {len(passes)}  "
          f"failed_frac {failed / len(passes):.3f}")
    if not args.trace and len(items) < MIN_ITEMS:
        print(f"warning: {len(items)} item samples, fewer than {MIN_ITEMS}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(passes),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
