"""Discs near an elliptic point: the local quadric model.

Near an elliptic complex point the surface is the graph
x2 = |z1|^2 + gamma Re(z1^2) with 0 <= gamma < 1.  Its attached analytic
discs have boundaries on the ellipses |z1|^2 + gamma Re(z1^2) = r, and the
conformal maps of the disc onto those ellipses are given in closed form by
elliptic functions (Szego 1950).  The resulting one-parameter family shrinks
onto the elliptic point as r -> 0.
"""

import numpy as np

from leviflat import bishop as B
from leviflat import continuation as C
from leviflat import geometry as G
from leviflat.calculus import DiscGrid
from leviflat.scenarios import make_scenario

gamma = 0.5
sc = make_scenario("model-quadric", gamma=gamma)
grid = DiscGrid(64, 32)

# the conformal map onto a single boundary ellipse
_, coeffs = B.ellipse_map(gamma, 1.0)
z1 = np.polyval(np.asarray(coeffs)[::-1], 1.0)
print(f"ellipse map (gamma = {gamma}):  z(1) = {z1:.12f}  "
      f"(exact sqrt(2/3) = {np.sqrt(2/3):.12f})")

# the disc family over r, with its diagnostics
print(f"\n{'r':>6s} {'boundary res':>14s} {'winding':>8s} {'area':>10s}")
r_values = np.linspace(0.1, 1.0, 7)
for disc in B.model_family(gamma, r_values, grid):
    mu = C.maslov_index(disc, sc.surface)
    area = G.disc_area(disc.grid, disc.f, sc.chart.omega)
    print(f"{disc.t:6.2f} {disc.diagnostics['boundary_residual']:14.2e} "
          f"{mu:8d} {area:10.6f}")

print("\nthe discs shrink onto the elliptic point as r -> 0 and the "
      "winding invariant stays 0 along the family")
