"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload ball-filling --seeds 10 [--first-seed 0]

Runs `run.py` once per seed, one run at a time, with the run length from
BENCHMARK.json, and prints for each end-to-end metric the median and the
quartile spread (Q3 - Q1) / median next to the metric's bound.  A metric is
steady when its spread stays below a third of its bound.  The values go to
`.bench_out/<workload>/spread-<first>-<last>.json` for comparing two sets.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)

    seeds = range(args.first_seed, args.first_seed + args.seeds)
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=300, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect result\n{proc.stdout}")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + "  ".join(
            f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)

    print(f"{'metric':<14}{'median':>12}{'spread':>9}{'bound':>7}")
    for m in bench["end_to_end"]:
        vals = values[m["name"]]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med
        flag = "steady" if spread < m["bound"] / 3 else (
            "within bound" if spread <= m["bound"] else "TOO WIDE")
        print(f"{m['name']:<14}{med:>12.5g}{spread:>9.3f}{m['bound']:>7}  {flag}")
    out = os.path.join(ROOT, ".bench_out", args.workload,
                       f"spread-{seeds[0]}-{seeds[-1]}.json")
    with open(out, "w") as fh:
        json.dump(values, fh, indent=1)


if __name__ == "__main__":
    main()
