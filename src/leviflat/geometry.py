"""Ambient differential geometry: almost complex structures, Levi forms,
plurisubharmonicity, bounded exhaustion functions, symplectic areas.

Points of the ambient chart are real 4-vectors (x1, y1, x2, y2) identified
with (z1, z2) in C^2.  An almost complex structure is given by its
deformation tensor A, a complex 2x2 matrix field; the real matrices of J are
derived from A, and A = 0 is the standard structure.  All field evaluators
are numpy-vectorized over leading axes.  Derivatives of scalar fields are
taken by central finite differences with a two-step Richardson consistency
guard; scenario fields are smooth closed-form expressions, so no symbolic
machinery is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (
    FieldDomainError,
    SingularMatrix,
    StepTooLarge,
)

DEFAULT_FD_STEP = 4e-4
RICHARDSON_RTOL = 1e-3


# the standard complex structure on R^4 in (x1, y1, x2, y2) order
J_ST = np.array([
    [0.0, -1.0, 0.0, 0.0],
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, -1.0],
    [0.0, 0.0, 1.0, 0.0],
])

STANDARD_OMEGA = np.zeros((4, 4))
STANDARD_OMEGA[0, 1] = STANDARD_OMEGA[2, 3] = 1.0
STANDARD_OMEGA[1, 0] = STANDARD_OMEGA[3, 2] = -1.0


def to_complex(v):
    """Real (..., 2n) vectors to complex (..., n)."""
    v = np.asarray(v, dtype=float)
    return v[..., 0::2] + 1j * v[..., 1::2]


def to_real(z):
    """Complex (..., n) vectors to real (..., 2n)."""
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape[:-1] + (2 * z.shape[-1],))
    out[..., 0::2] = z.real
    out[..., 1::2] = z.imag
    return out


def antilinear_to_real(A):
    """Real matrix of the anti-linear map v -> A conj(v), A complex (..., n, n)."""
    A = np.asarray(A, dtype=complex)
    n = A.shape[-1]
    U = np.empty(A.shape[:-2] + (2 * n, 2 * n))
    U[..., 0::2, 0::2] = A.real
    U[..., 0::2, 1::2] = A.imag
    U[..., 1::2, 0::2] = A.imag
    U[..., 1::2, 1::2] = -A.real
    return U


def zero_deformation(z):
    """The deformation tensor of the standard structure: A = 0 everywhere."""
    return np.zeros(np.shape(z)[:-1] + (2, 2), dtype=complex)


@dataclass
class AmbientChart:
    """Coordinate chart of the ambient almost complex 4-manifold.

    A_fn maps points (..., 4) to the deformation tensor (..., 2, 2); it
    defines the almost complex structure, and J is derived from it.  The
    default zero_deformation is the standard structure J_st.  omega is a
    constant antisymmetric matrix; defining_r is the boundary defining
    function (r < 0 inside) with optional closed-form gradient r_grad; psi an
    optional strictly plurisubharmonic weight.
    """

    A_fn: Callable[[np.ndarray], np.ndarray] = zero_deformation
    omega: np.ndarray = field(default_factory=lambda: STANDARD_OMEGA.copy())
    defining_r: Optional[Callable[[np.ndarray], np.ndarray]] = None
    psi: Optional[Callable[[np.ndarray], np.ndarray]] = None
    r_grad: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def deformation_at(self, z):
        """Deformation tensor samples at points z."""
        return self.A_fn(z)

    def J(self, z):
        """Real matrices (..., 4, 4) of J at points z (..., 4).

        Inverts u = -(J_st + J)^(-1) (J_st - J): with u(v) = A conj(v) this
        is J = J_st (I + u)(I - u)^(-1), valid while ||u|| < 1.  Where A
        vanishes at every point the result is a read-only view of J_st.
        """
        A = self.A_fn(z)
        if not A.any():
            return np.broadcast_to(J_ST, np.shape(z)[:-1] + (4, 4))
        U = antilinear_to_real(A)
        I = np.eye(4)
        return J_ST @ (I + U) @ np.linalg.inv(I - U)

    def check_invariants(self, samples):
        """J^2 = -I, taming and closedness checks at sample points."""
        samples = np.atleast_2d(samples)
        J = self.J(samples)
        jj = np.einsum("...ij,...jk->...ik", J, J)
        err = np.max(np.abs(jj + np.eye(J.shape[-1])))
        if err > 1e-10:
            raise SingularMatrix(f"J^2 + I deviates by {err:.3e}")
        v = np.random.default_rng(0).standard_normal(samples.shape)
        om = np.broadcast_to(self.omega, samples.shape[:-1] + (4, 4))
        jv = np.einsum("...ij,...j->...i", J, v)
        tame = np.einsum("...i,...ij,...j->...", v, om, jv)
        if np.min(tame) <= 0:
            raise SingularMatrix("taming condition omega(v, Jv) > 0 violated")
        return {"j_square_error": float(err), "taming_min": float(np.min(tame))}


def deformation_tensor_values(J_values):
    """Deformation tensor samples from J samples (..., 4, 4)."""
    J_values = np.asarray(J_values, dtype=float)
    S = J_ST + J_values
    det = np.linalg.det(S)
    if np.any(np.abs(det) < 1e-12):
        raise SingularMatrix("J_st + J(z) is numerically singular")
    U = -np.linalg.solve(S, np.broadcast_to(J_ST, J_values.shape) - J_values)
    return U[..., 0::2, 0::2] + 1j * U[..., 1::2, 0::2]


# --- finite-difference Levi forms ----------------------------------------------


def _apply(M, v):
    """Matrix fields (..., 4, 4) applied to vectors (..., 4)."""
    return np.einsum("...ij,...j->...i", M, v)


def _levi_form_step(chart, rho, p, t, h):
    """-d(J* d rho)(X, JX) at step h, for X = t constant and Y = J(z) t.

    Its closed expansion rho_tt + rho_yy + d rho((D_y J) t + J(p) (D_t J) t),
    y = J(p) t, takes one central difference per term: 7 calls of rho and 5
    of J.
    """
    Jp = chart.J(p)
    y = _apply(Jp, t)
    rho_p = rho(p)

    def second(d):
        return (rho(p + h * d) - 2.0 * rho_p + rho(p - h * d)) / h**2

    def jt_slope(d):
        return (_apply(chart.J(p + h * d), t)
                - _apply(chart.J(p - h * d), t)) / (2.0 * h)

    w = jt_slope(y) + _apply(Jp, jt_slope(t))
    return (second(t) + second(y)
            + (rho(p + h * w) - rho(p - h * w)) / (2.0 * h))


def levi_form(chart: AmbientChart, rho, p, t, h_fd=DEFAULT_FD_STEP,
              check=True):
    """Levi form -d(J* d rho)(X, JX) at points p in directions t (constant
    extension), both (..., 4); one value per point, shape p.shape[:-1].

    With check, steps h_fd and h_fd / 2 must agree to RICHARDSON_RTOL at
    every sample, else StepTooLarge names the worst gap.
    """
    p = np.asarray(p, dtype=float)
    t = np.asarray(t, dtype=float)
    v1 = _levi_form_step(chart, rho, p, t, h_fd)
    if not check:
        return v1[()]
    v2 = _levi_form_step(chart, rho, p, t, h_fd / 2.0)
    gap = np.abs(v1 - v2) / np.maximum(1.0, np.abs(v2))
    if np.any(gap > RICHARDSON_RTOL):
        raise StepTooLarge(
            f"Richardson disagreement {np.max(gap):.3e} at h={h_fd:g}")
    return ((4.0 * v2 - v1) / 3.0)[()]


def levi_form_via_disc(chart: AmbientChart, rho, p, t):
    """Levi form via a small J-holomorphic probe disc: Delta(rho o f)(0).

    Independent oracle for levi_form; builds the disc, of scale 1e-2, with
    the resolution operator's inverse in coordinates linearly normalized so
    J(p) = J_st.
    """
    from .bishop import probe_disc  # local import, bishop depends on geometry

    scale = 1e-2
    p = np.asarray(p, dtype=float)
    t = np.asarray(t, dtype=float)
    f_vals, grid = probe_disc(chart, p, t, scale=scale)
    # f_vals: complex (..., R, n_theta, 2) ambient samples of the disc
    pts = to_real(f_vals)
    g = rho(pts)
    lap = grid.laplacian_at_center(np.real(g))
    return float(lap) / scale**2


@dataclass
class PshReport:
    min_value: float
    passed: bool
    values: np.ndarray
    positive_fraction: float


def check_plurisubharmonic(chart: AmbientChart, rho, samples) -> PshReport:
    """Evaluate the Levi form on (point, tangent) samples; pass iff min >= -1e-8."""
    if len(samples) == 0:
        raise ValueError("samples must be nonempty")
    P, T = (np.array(a) for a in zip(*samples))
    vals = levi_form(chart, rho, P, T)
    imin = int(np.argmin(vals))
    return PshReport(
        min_value=float(vals[imin]),
        passed=bool(vals[imin] >= -1e-8),
        values=vals,
        positive_fraction=float(np.mean(vals > 0)),
    )


def df_exhaustion(chart: AmbientChart, A: float, eta: float):
    """Bounded exhaustion candidate -(-r e^(-A psi))^eta on {r < 0}."""
    if chart.psi is None:
        raise ValueError("chart has no plurisubharmonic weight psi")
    if not (A >= 0 and 0 < eta <= 1):
        raise ValueError("need A >= 0 and eta in (0, 1]")

    def field_fn(z):
        r = chart.defining_r(z)
        if np.any(r >= 0):
            raise FieldDomainError("exhaustion evaluated where r >= 0")
        return -np.power(-r * np.exp(-A * chart.psi(z)), eta)

    return field_fn


# --- symplectic areas ---------------------------------------------------------


def disc_area(grid, f, omega=STANDARD_OMEGA):
    """Integral of the pullback of omega over a disc, f the samples of
    (z1, z2) on grid, shape (2, R, n_theta)."""
    dth, drh = grid._dtheta_drho(f)
    u = to_real(np.moveaxis(drh, 0, -1))   # (R, nt, 4)
    v = to_real(np.moveaxis(dth, 0, -1))
    integrand = np.einsum("...i,...ij,...j->...", u,
                          np.broadcast_to(omega, u.shape + (4,)), v)
    # area weights carry a rho factor; the pullback integrand needs d rho d theta
    return float(np.sum(integrand / grid.rho[:, None] * grid.area_weights))


def sphere_area_bound(surface, omega=STANDARD_OMEGA):
    """Upper bound int_{S^2} |omega| by quadrature on the surface atlas."""
    total = 0.0
    for pts, du, dv, w in surface.area_elements():
        om = np.broadcast_to(omega, pts.shape[:-1] + (4, 4))
        vals = np.abs(np.einsum("...i,...ij,...j->...", du, om, dv))
        total += float(np.sum(vals * w))
    return total
