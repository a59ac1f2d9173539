"""The round ball: a sphere whose Bishop-disc filling is known in closed form.

The two-sphere {|z1|^2 + |z2|^2 = 1, Im z2 = 0} inside the unit sphere of C^2
has exactly two complex (elliptic) points, at z = (0, +-1).  The filling by
discs attached to the unit sphere is the family of flat discs {z2 = c} with
-1 < c < 1, so every numerical quantity here has an analytic oracle:
areas are pi (1 - c^2), the winding invariant vanishes, and the assembled
hypersurface is the Levi-flat {y2 = 0} slab.

The script grows the two disc families out of the poles, glues them at the
equator, and checks the result against those closed forms.
"""

import os

import numpy as np

from leviflat import continuation as C
from leviflat import geometry as G
from leviflat import serialize
from leviflat.calculus import DiscGrid
from leviflat.scenarios import make_scenario

sc = make_scenario("ball")
grid = DiscGrid(64, 32)

print("integrating the three pinned characteristic leaves ...")
leaves = C.reference_leaves(sc)

print("continuing the disc family from each pole to the equator ...")
fam_p = C.continue_family(sc, leaves, 0.05, 0.5, grid=grid, side="p")
fam_q = C.continue_family(sc, leaves, 0.95, 0.5, grid=grid, side="q")
result = C.glue(fam_p, fam_q)
print(f"glued {len(result.discs)} discs; junction Hausdorff distance "
      f"{result.glue_distance:.2e}")

# compare each disc with its flat oracle {z2 = c}
worst_flat, worst_area = 0.0, 0.0
for disc, mon in zip(result.discs, result.monitors):
    pts = G.to_complex(disc.points().reshape(-1, 4))
    c = pts[0, 1]
    worst_flat = max(worst_flat, float(np.max(np.abs(pts[:, 1] - c))))
    worst_area = max(worst_area,
                     abs(mon["area"] - np.pi * (1.0 - abs(c) ** 2)))
print(f"max |z2 - c| over all discs:      {worst_flat:.2e}")
print(f"max area error vs pi (1 - c^2):   {worst_area:.2e}")
print(f"winding invariants: {sorted({m['mu'] for m in result.monitors})}")

# the assembled hypersurface should be Levi-flat
levi = C.levi_certificate(result, sc.chart, n_samples=30)
print(f"numerical Levi form on the filling: max |L| = "
      f"{np.max(np.abs(levi)):.2e}")

out = os.path.join(os.path.dirname(__file__), "out_ball")
os.makedirs(out, exist_ok=True)
serialize.write_family(os.path.join(out, "family.json"), result, sc.name,
                       (grid.n_theta, grid.n_rho))
serialize.write_cloud(os.path.join(out, "gamma_cloud.csv"), result)
print(f"wrote family.json and gamma_cloud.csv to {out}")
