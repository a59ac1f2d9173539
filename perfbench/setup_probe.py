"""Time one cold set-up of the pipeline and print the seconds it took.

Usage: python3 perfbench/setup_probe.py SRC_DIR SCENARIO PARAMS_JSON N_THETA N_RHO

Set-up is what a fresh process pays before its first disc: importing
leviflat and its numpy/scipy dependencies, `make_scenario`, and the first
`DiscGrid` with its lazily built Cauchy-Green matrices.
"""

import json
import sys
import time


def main(argv):
    src, scenario, params, n_theta, n_rho = argv
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import numpy as np
    from leviflat import cli  # noqa: F401  (loads every pipeline module)
    from leviflat.calculus import DiscGrid
    from leviflat.scenarios import make_scenario

    make_scenario(scenario, **json.loads(params))
    grid = DiscGrid(int(n_theta), int(n_rho))
    grid.cg_apply(np.zeros((grid.n_radial, grid.n_theta), dtype=complex))
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main(sys.argv[1:])
