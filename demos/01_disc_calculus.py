"""Tour of the spectral calculus on the unit disc.

The library discretizes the closed unit disc with equispaced angles and
Gauss-Legendre radial nodes plus a boundary ring.  A field on the disc is the
array of its samples there, shape (radii, angles).  On that grid it provides
spectrally accurate derivatives, the dbar operator, and the Cauchy-Green
transform T, a right inverse of dbar that is the workhorse of the nonlinear
disc equation: dbar(T f) = f with T f holomorphic exactly when f = 0.
"""

import numpy as np

from leviflat.calculus import DiscGrid


def sup(values):
    return float(np.max(np.abs(values)))


grid = DiscGrid(64, 32)
z = grid.zeta
print(f"grid: {grid.n_theta} angles x {grid.n_radial} radii "
      f"(boundary ring included)")

# quadrature sanity: the area of the unit disc
area = float(np.sum(grid.area_weights))
print(f"quadrature area of the disc: {area:.15f}  (pi = {np.pi:.15f})")

# dbar annihilates holomorphic fields and sees anti-holomorphic ones exactly
print(f"dbar on a holomorphic field:  "
      f"{sup(grid.dbar_apply(z ** 3 - 0.5 * z)):.2e}")
print(f"dbar(conj z) - 1:             "
      f"{sup(grid.dbar_apply(np.conj(z)) - 1.0):.2e}")

# the Cauchy-Green transform is a right inverse of dbar...
for label, f in [("1", np.ones_like(z)),
                 ("conj(z)", np.conj(z)),
                 ("e^z conj(z)^2", np.exp(z) * np.conj(z) ** 2)]:
    res = sup(grid.dbar_apply(grid.cg_apply(f)) - f)
    print(f"|dbar(T f) - f| for f = {label:<14s}: {res:.2e}")

# ... and T(1) is the closed form conj(z)
print(f"|T(1) - conj(z)|: {sup(grid.cg_apply(np.ones_like(z)) - np.conj(z)):.2e}")
