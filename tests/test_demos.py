"""Smoke test of the demo scripts: each runs to completion.

The demos are copied into a temporary directory first, so that the files
02_ball_filling.py writes next to itself stay out of the source tree.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(f for f in os.listdir(os.path.join(ROOT, "demos"))
               if f.endswith(".py"))


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    target = tmp_path_factory.mktemp("demos")
    for name in DEMOS:
        shutil.copy(os.path.join(ROOT, "demos", name), target)
    return target


def test_four_demos():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(demo_dir, name):
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run([sys.executable, name], cwd=demo_dir, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    if name.startswith("03_"):
        # the printed z(1) of the gamma = 0.5 ellipse map is sqrt(2/3)
        digits = re.search(r"z\(1\) = (\S+)", proc.stdout).group(1)
        assert digits == f"{np.sqrt(2 / 3):.{len(digits.split('.')[1])}f}"
    if name.startswith("02_"):
        fam = json.loads((demo_dir / "out_ball" / "family.json").read_text())
        assert fam["resolution"] == {"n_theta": 64, "n_rho": 32}
