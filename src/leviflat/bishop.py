"""Elliptic-point local theory and the nonlinear Bishop disc solver.

Complex points of a real two-sphere are classified by the invariant gamma of
the normal form z2 = z1 conj(z1) + gamma Re(z1^2); near an elliptic point
(gamma < 1) the model disc family consists of conformal maps onto the
sublevel ellipses of P(z) = |z|^2 + gamma Re(z^2), given in closed form by
Szego's elliptic-function formula.  J-holomorphy is enforced through the
resolution operator Psi: f -> h = f + T(A(f) dbar(conj f)), whose inverse is
a contraction for small deformation tensors; the Bishop solver runs
Gauss-Newton on the Taylor coefficients of the holomorphic unknown h with a
three-point boundary gauge.  h is sampled by DiscGrid.taylor_values, and f at
the two gauge pins by DiscGrid.boundary_at.  The residual goes through
Psi^{-1}; the Jacobian is that of the standard structure (Psi^{-1} left
out), by the chain rule through the linear map from coefficients to boundary
values, exact where A = 0 and an O(|A|) approximation otherwise.  Psi^{-1}
is solved only as tightly as Newton needs (ETA times its residual; inexact
Newton), and once more to PSI_TOL at the converged disc.  Each Psi^{-1}
fixed point starts from the correction h - f of the solve before it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .calculus import DiscGrid
from .errors import (
    AdaptationFailure,
    ConfigError,
    DiscSolveFailed,
    MaxIterations,
    NegativeGamma,
    NewtonStalled,
    NoContraction,
    ResidualTooLarge,
    Underresolved,
    WindingChanged,
)
from .geometry import (AmbientChart, deformation_tensor_values, to_complex,
                       to_real)

DEFAULT_N_TAYLOR = 24
MAX_ELLIPSE_N = 2 ** 18     # most boundary samples ellipse_map takes
PIN_THETA = np.array([2 * np.pi / 3, -2 * np.pi / 3])   # member2, member3 pins
MEMBER_STEP = 1e-7          # central-difference step of a leaf membership
UNDERRESOLVED_FACTOR = 10.0  # a stall this close to newton_tol ...
NO_DECREASE = 1e-2           # ... with |J dx + r| >= (1 - this) |r| is a floor
PSI_TOL = 1e-12             # a Psi^{-1} solve stops when a sweep moves f less
ETA = 0.1                   # inexact Newton: Psi^{-1} to ETA |r| (forcing term)
SEED_PSI_TOL = 1e-6         # Psi^{-1} tolerance of the seed's first solve

# the parameter of each probe_disc center condition: Re, Im of c0, d0, c1, d1
PROBE_ROWS = np.array([0, 1, 4, 5, 2, 3, 6, 7])


# --- surface patches and complex-point models ---------------------------------


@dataclass
class SurfacePatch:
    """Defining data of the real two-sphere (or a local piece of it).

    rho_pair maps points (..., 4) to the two defining functions (rho1, rho2);
    the surface is {rho_pair = 0}.  to_uv gives global surface coordinates
    (angle u, height v) used for leaf bookkeeping; parametrization(phi, u)
    traces the sphere by polar angle and angle, and carries the leaves as
    graphs u(phi); area_elements gives its quadrature; poles is an (n, 4)
    array of its complex points.
    """

    rho_pair: Callable
    rho_grad: Callable
    parametrization: Optional[Callable] = None
    area_elements: Optional[Callable] = None
    to_uv: Optional[Callable] = None
    poles: np.ndarray = field(default_factory=lambda: np.empty((0, 4)))

    def tangent_basis(self, z):
        """Orthonormal basis of T S^2 = ker(d rho) at surface points (..., 4)."""
        G = self.rho_grad(z)                       # (..., 2, 4)
        _, svals, vh = np.linalg.svd(G)
        if np.min(svals[..., -1]) <= 1e-8:
            raise AdaptationFailure("defining gradients are rank deficient")
        return np.swapaxes(vh[..., 2:, :], -2, -1)  # (..., 4, 2)


@dataclass
class EllipticPointModel:
    """Adapted-coordinate model of a complex point on the sphere."""

    gamma: float
    chart: AmbientChart
    rho: Callable          # adapted defining pair, (..., 4) -> (..., 2)

    def __post_init__(self):
        if self.gamma < 0:
            raise NegativeGamma(f"gamma = {self.gamma} < 0")


def classify_point(gamma: float) -> str:
    """'elliptic' (gamma < 1), 'parabolic' (= 1) or 'hyperbolic' (> 1)."""
    if gamma < 0:
        raise NegativeGamma(f"gamma = {gamma} < 0")
    if gamma < 1.0:
        return "elliptic"
    if gamma == 1.0:
        return "parabolic"
    return "hyperbolic"


def quadric_height(gamma):
    """The normal-form quadratic P(z) = |z|^2 + gamma Re(z^2)."""
    def P(z1):
        z1 = np.asarray(z1, dtype=complex)
        return np.abs(z1) ** 2 + gamma * np.real(z1 ** 2)
    return P


def validate_adapted(model: EllipticPointModel) -> dict:
    """Check the adapted-coordinate normalization clauses at the model center.

    Verifies that the deformation tensor vanishes at the center, that its
    first column vanishes to second order along {z2 = 0}, and that the
    defining pair agrees with the normal-form quadric up to o(|z1|^2).
    """
    chart = model.chart
    origin = np.zeros(4)
    a0 = np.max(np.abs(chart.A_fn(origin)))
    if a0 > 1e-10:
        raise AdaptationFailure(
            f"deformation tensor does not vanish at the center (|A| = {a0:.3e})")

    # first column of A restricted to {z2 = 0}: value and z1-derivatives at 0
    h = 1e-4
    col = lambda z: chart.A_fn(z)[..., :, 0]
    d_first = max(np.max(np.abs((col(e) - col(-e)) / (2 * h)))
                  for e in h * np.eye(4)[:2])
    if d_first > 1e-6:
        raise AdaptationFailure(
            f"first column of A is not o(|z|) on z2 = 0 (slope {d_first:.3e})")

    # rho on the normal-form quadric graph must be o(|z1|^2)
    P = quadric_height(model.gamma)
    angles = np.exp(1j * np.linspace(0, 2 * np.pi, 8, endpoint=False))
    ratios = []
    for radius in (1e-2, 1e-3, 1e-4):
        z1 = radius * angles
        pts = to_real(np.stack([z1, P(z1).astype(complex)], axis=-1))
        ratios.append(float(np.max(np.abs(model.rho(pts))) / radius ** 2))
    if not (ratios[-1] <= 0.5 * ratios[0] + 1e-12):
        raise AdaptationFailure(
            f"defining pair does not match the quadric to o(|z1|^2): {ratios}")
    return {"a_at_center": float(a0), "first_column_slope": float(d_first),
            "quadric_ratios": ratios, "passed": True}


# --- Szego's closed-form conformal map onto the model ellipse -----------------


def _carlson_rf(x, y, z):
    """Carlson's R_F(x, y, z), complex, principal branch, by duplication
    (Numer. Algorithms 10 (1995) 13-26; DLMF 19.36.1) until every argument is
    within 2e-3 |a| of the mean a, checked after each step (a zero argument
    contracts slower than fourfold), then the fifth-order series."""
    x, y, z = (np.asarray(v, dtype=complex) for v in (x, y, z))
    while True:
        a = (x + y + z) / 3.0
        if all(np.all(abs(v - a) <= 2e-3 * abs(a)) for v in (x, y, z)):
            break
        sx, sy, sz = np.sqrt(x), np.sqrt(y), np.sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        x, y, z = (x + lam) / 4.0, (y + lam) / 4.0, (z + lam) / 4.0
    X, Y = 1.0 - x / a, 1.0 - y / a
    Z = -(X + Y)
    e2, e3 = X * Y - Z * Z, X * Y * Z
    return (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0
            - 3.0 * e2 * e3 / 44.0) / np.sqrt(a)


def ellipse_map(gamma: float, r: float):
    """Conformal map of the unit disc onto the ellipse {P < r}, P = |z|^2 + gamma Re z^2.

    Returns (phi, coeffs): the unwrapped polar angle phi of z(e^{i theta_j})
    at the n samples theta_j, and the Taylor coefficients, normalized by
    z(0) = 0, z'(0) > 0.  Szego's closed form (Amer. Math. Monthly 57 (1950)
    474-478): z(zeta) = i c sin(pi/(2K) sn^{-1}(zeta/sqrt(k); k)), where the
    semi-axes a = sqrt(r/(1+gamma)), b = sqrt(r/(1-gamma)) give c^2 = b^2 - a^2
    and the nome q = ((b-a)/(b+a))^2, k = (theta_2(q)/theta_3(q))^2 (DLMF
    22.2.2), sn^{-1}(x; k) = x R_F(1-x^2, 1-k^2 x^2, 1) (DLMF 19.25.5) and
    K = R_F(0, 1-k^2, 1) (DLMF 19.25.1), R_F by Carlson duplication.
    zeta = +-1 lie on the cut of R_F, so z is sampled at theta_j + pi/n; other
    branch jumps swap u and 2K - u, which sin(pi u/2K) does not see.  n
    doubles from 512 until the negative modes are below 1e-9 and the
    truncated boundary lies on {P = r} to 1e-8.
    """
    if not (0 <= gamma < 1):
        raise NegativeGamma(f"gamma = {gamma} outside the elliptic range [0, 1)")
    if r <= 0:
        raise ValueError("r must be positive")
    n = 512
    if gamma == 0:                        # the disc itself
        return 2.0 * np.pi * np.arange(n) / n, np.array([0.0, np.sqrt(r)])
    a, b = np.sqrt(r / (1.0 + gamma)), np.sqrt(r / (1.0 - gamma))
    q = ((b - a) / (b + a)) ** 2
    j = np.arange(30)
    k = (2.0 * q ** 0.25 * np.sum(q ** (j * (j + 1)))
         / (1.0 + 2.0 * np.sum(q ** (j[1:] ** 2)))) ** 2
    c, K = np.sqrt(b * b - a * a), _carlson_rf(0.0, 1.0 - k * k, 1.0).real
    while True:
        x = np.exp(1j * np.pi * (2 * np.arange(n) + 1) / n) / np.sqrt(k)
        z = 1j * c * np.sin(np.pi / (2.0 * K) * x
                            * _carlson_rf(1 - x * x, 1 - k * k * x * x, 1))
        F = np.fft.fft(z) / n * np.exp(-1j * np.pi * np.arange(n) / n)
        coeffs = F[:n // 2] * np.exp(-1j * np.angle(F[1]) * np.arange(n // 2))
        coeffs[0] = 0.0                   # z(0) = 0; the phase gives z'(0) > 0
        boundary = n * np.fft.ifft(coeffs, n)
        tail = np.max(np.abs(F[n // 2 + 1:]))
        residual = np.max(np.abs(quadric_height(gamma)(boundary) - r))
        if tail <= 1e-9 and residual <= 1e-8:
            break
        if n >= MAX_ELLIPSE_N:
            raise Underresolved(
                f"ellipse map (gamma {gamma}, r {r}): negative-mode mass "
                f"{tail:.3e}, boundary residual {residual:.3e} at {n} samples")
        n *= 2
    coeffs = np.real_if_close(coeffs, tol=1e3)
    ncut = max(8, int(np.max(np.nonzero(np.abs(coeffs) > 1e-15)[0])) + 1)
    return np.unwrap(np.angle(boundary)), coeffs[:ncut]


# --- Bishop discs ---------------------------------------------------------------


@dataclass
class BishopDisc:
    """A J-holomorphic disc attached to the sphere along its boundary."""

    grid: DiscGrid
    f: np.ndarray            # samples of (z1, z2), shape (2, R, n_theta)
    h_coeffs: tuple          # Taylor coefficients of the holomorphic preimage
    t: float                 # family parameter
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.f = np.asarray(self.f, dtype=complex)
        if self.f.shape != (2, self.grid.n_radial, self.grid.n_theta):
            raise ValueError("disc samples do not match the grid")
        if not np.all(np.isfinite(self.f)):
            raise ValueError("disc samples must be finite")

    def points(self):
        """Real 4-vector samples at all grid nodes, shape (R, n_theta, 4)."""
        return to_real(np.moveaxis(self.f, 0, -1))

    def boundary_points(self):
        return self.points()[-1]


def model_family(gamma: float, r_list, grid: DiscGrid) -> list:
    """The one-parameter family of model discs (z_{1,r}(zeta), r) on the quadric."""
    if classify_point(gamma) != "elliptic":
        raise NegativeGamma(
            f"model family requires an elliptic point, gamma = {gamma}")
    r_list = np.asarray(r_list, dtype=float)
    if np.any(r_list <= 0) or np.any(np.diff(r_list) <= 0):
        raise ValueError("r_list must be positive and increasing")
    P = quadric_height(gamma)
    out = []
    for r in r_list:
        _, coeffs = ellipse_map(gamma, float(r))
        f = np.stack([grid.taylor_values(coeffs),
                      grid.taylor_values([complex(r)])])
        bres = float(np.max(np.abs(P(f[0, -1]) - r)))
        out.append(BishopDisc(
            grid, f,
            h_coeffs=(coeffs, np.array([complex(r)])),
            t=float(r),
            diagnostics={"boundary_residual": bres, "cr_residual": 0.0}))
    return out


# --- the resolution operator Psi and its inverse --------------------------------


def _deformation_term(chart: AmbientChart, grid: DiscGrid, vals):
    """A(f) dbar(conj f) for stacked values vals, shape (..., 2, R, n_theta);
    None where A vanishes at every point of f (J = J_st there)."""
    A = chart.A_fn(to_real(np.moveaxis(vals, -3, -1)))
    if not A.any():
        return None
    dbar_conj = np.conj(grid.dz_apply(vals))
    q_pt = np.einsum("...ij,...j->...i", A, np.moveaxis(dbar_conj, -3, -1))
    return np.moveaxis(q_pt, -1, -3)


def _psi_rhs(chart: AmbientChart, grid: DiscGrid, vals):
    """T(A(f) dbar(conj f)); 0, with no sweep run, where A vanishes."""
    q = _deformation_term(chart, grid, vals)
    return 0.0 if q is None else grid.cg_apply(q)


def psi_inverse_values(chart: AmbientChart, grid: DiscGrid, hvals, start=None,
                       tol=PSI_TOL):
    """Fixed point f = h - T(A(f) dbar(conj f)), batched over leading axes,
    iterated from f = start (default h) until a sweep moves f by at most
    tol.  Returns f and the number of sweeps run (none where A vanishes)."""
    f = hvals if start is None else start      # never written
    prev = np.inf
    growth = sweeps = 0
    for _ in range(100):
        rhs = _psi_rhs(chart, grid, f)
        sweeps += np.ndim(rhs) > 0
        f_new = hvals - rhs
        change = float(np.max(np.abs(f_new - f)))
        f = f_new
        if change <= tol:
            return f, sweeps
        growth = growth + 1 if change > prev else 0
        if growth >= 5:
            raise NoContraction(
                f"psi inverse iteration diverging (change {change:.3e})")
        prev = change
    raise NoContraction("psi inverse: no convergence in 100 iterations")


def cr_residual_values(chart: AmbientChart, grid: DiscGrid, vals):
    """sup |dbar f + A(f) dbar(conj f)| (the J-holomorphy defect)."""
    dbar_vals = grid.dbar_apply(vals)
    q = _deformation_term(chart, grid, vals)
    return float(np.max(np.abs(dbar_vals if q is None else dbar_vals + q)))


# --- local probe discs (Levi-form oracle) ---------------------------------------


def _normalizing_frame(Jp, t):
    """Real 4x4 L with columns (t, Jt, v, Jv); L^-1 J(p) L = J_st."""
    t = np.asarray(t, dtype=float)
    cols = [t, Jp @ t]
    # the first coordinate axis farthest from span(t, Jt) completes the frame
    Q, I = np.stack(cols, axis=1), np.eye(4)
    res = [np.linalg.norm(e - Q @ np.linalg.lstsq(Q, e, rcond=None)[0])
           for e in I]
    best = I[np.argmax(res)]
    cols += [best, Jp @ best]
    L = np.stack(cols, axis=1)
    if abs(np.linalg.det(L)) < 1e-12:
        raise DiscSolveFailed("degenerate normalizing frame")
    return L


def probe_disc(chart: AmbientChart, p, t, scale=1e-2):
    """Small J-holomorphic disc f with f(0) = p and df(0) e1 = scale * t.

    Returns (ambient complex samples (R, n_theta, 2), grid).  Built by the
    resolution-operator inverse in linear coordinates normalizing J(p) to the
    standard structure, with a Newton correction of the center conditions
    by the standard-structure Jacobian (A = O(scale) in those coordinates).
    """
    p = np.asarray(p, dtype=float)
    grid = DiscGrid(32, 16)
    L = _normalizing_frame(chart.J(p), t)
    Linv = np.linalg.inv(L)

    def J_loc(zl):
        pts = p + scale * np.einsum("ij,...j->...i", L, np.asarray(zl))
        return Linv @ chart.J(pts) @ L

    loc_chart = AmbientChart(
        A_fn=lambda zl: deformation_tensor_values(J_loc(zl)))

    def solve(params, q=None):
        # params (8,): complex (c0, c1, d0, d1) packed as real pairs; the
        # fixed point starts from h - q, q the last solve's correction
        cc = params[0::2] + 1j * params[1::2]
        h = np.stack([cc[0] + cc[1] * grid.zeta, cc[2] + cc[3] * grid.zeta])
        try:
            f, _ = psi_inverse_values(loc_chart, grid, h,
                                      start=None if q is None else h - q)
        except NoContraction as exc:
            raise DiscSolveFailed(str(exc)) from exc
        return f, h - f

    def center_residual(f):
        # center value and holomorphic derivative of both components
        c = [grid.center_value(f[k]) for k in range(2)]
        d = [grid.center_dz(f[k]) for k in range(2)]
        return np.array([c[0].real, c[0].imag, c[1].real, c[1].imag,
                         (d[0] - 1.0).real, d[0].imag, d[1].real, d[1].imag])

    # where A = 0, f = h and residual row i is parameter PROBE_ROWS[i] less
    # a constant: the standard-structure Jacobian is that permutation
    x = np.array([0, 0, 0, 0, 1, 0, 0, 0], dtype=float)  # h = (zeta, 0)
    q = None
    for _ in range(8):
        f, q = solve(x, q)
        r = center_residual(f)
        if np.max(np.abs(r)) <= 1e-12:
            break
        x[PROBE_ROWS] -= r
    else:
        f, _ = solve(x, q)
        if np.max(np.abs(center_residual(f))) > 1e-9:
            raise DiscSolveFailed("probe disc center correction stalled")

    amb = p + scale * np.einsum("ij,...j->...i", L,
                                to_real(np.moveaxis(f, 0, -1)))
    return to_complex(amb), grid


# --- the Gauss-Newton Bishop solver ----------------------------------------------


@dataclass
class PinSet:
    """Gauge data for bishop_solve: f(1) pinned to `point` on a reference leaf,
    f(e^{+-2 pi i/3}) constrained to the leaves behind member2/member3."""

    point: np.ndarray
    member2: Callable
    member3: Callable
    tangent_basis: np.ndarray   # (4, 2) basis of T S^2 at the pin point


def taylor_limit(n_theta: int, n_rho: int) -> int:
    """The largest Taylor order an n_theta x n_rho grid holds.

    Mode zeta^k aliases onto k - n_theta unless k < n_theta/2, and the
    Cauchy-Green matrices drop angular modes above n_rho.
    """
    return min((n_theta - 1) // 2, n_rho)


def check_taylor_order(n_taylor: int, n_theta: int, n_rho: int):
    """Reject Taylor orders that the grid aliases or truncates."""
    limit = taylor_limit(n_theta, n_rho)
    if n_taylor > limit:
        raise ConfigError(
            f"n_taylor = {n_taylor} exceeds {limit}, the largest order a "
            f"{n_theta}x{n_rho} grid holds (n_taylor < n_theta/2 avoids "
            f"aliasing, n_taylor <= n_rho radial truncation)")


def _residual_rows(surface: SurfacePatch, pins: PinSet, grid: DiscGrid, bdry):
    """Residual of boundary values bdry (..., 2, T): the defining pair at every
    boundary sample, then the 4 pin rows of `pins`."""
    pts = to_real(np.moveaxis(bdry, -2, -1))   # (..., T, 4)
    rho = surface.rho_pair(pts)                # (..., T, 2)
    at_pins = grid.boundary_at(bdry, PIN_THETA)   # (..., 2, 2 pins)
    f1 = pts[..., 0, :]                        # theta = 0 is a grid node
    g12 = np.einsum("...i,ik->...k", f1 - pins.point, pins.tangent_basis)
    g3 = pins.member2(to_real(at_pins[..., 0]))
    g4 = pins.member3(to_real(at_pins[..., 1]))
    parts = [rho.reshape(rho.shape[:-2] + (-1,)), g12,
             g3[..., None], g4[..., None]]
    return np.concatenate(parts, axis=-1)


@functools.cache
def _boundary_basis(n_theta: int, n: int):
    """The linear map from packed coefficients x (4n,) to the real points of
    h at the n_theta boundary nodes and then at the two pins, shape
    (n_theta + 2, 4, 4n); built once per grid width and order, read-only."""
    theta = np.append(2.0 * np.pi * np.arange(n_theta) / n_theta, PIN_THETA)
    wave = np.exp(1j * np.outer(np.arange(n), theta))     # (n, T + 2)
    unit = to_complex(np.eye(4 * n)).reshape(4 * n, 2, n)
    pts = to_real(np.einsum("xcn,np->xpc", unit, wave))   # (4n, T + 2, 4)
    pts.setflags(write=False)
    return np.moveaxis(pts, 0, -1)


def _jacobian(surface: SurfacePatch, pins: PinSet, basis, x):
    """Jacobian of _residual_rows at the boundary of h (the standard-structure
    map), by the chain rule through the linear map `basis` of
    _boundary_basis: rho_grad for the defining rows, the tangent basis for the
    two gauge rows, and a central difference of each leaf membership."""
    pts = basis @ x                            # (T + 2, 4)
    T = len(pts) - 2
    rho_rows = (surface.rho_grad(pts[:T]) @ basis[:T]).reshape(2 * T, -1)
    gauge_rows = pins.tangent_basis.T @ basis[0]   # theta = 0 is a grid node
    step = MEMBER_STEP * np.concatenate([np.eye(4), -np.eye(4)])
    pin_rows = []
    for member, p, dp in zip((pins.member2, pins.member3), pts[T:], basis[T:]):
        m = member(p + step)
        pin_rows.append((m[:4] - m[4:]) / (2 * MEMBER_STEP) @ dp)
    return np.concatenate([rho_rows, gauge_rows, np.stack(pin_rows)])


def _gauss_newton_step(J, r):
    """Least-squares step dx minimizing |J dx + r| by a QR factorization;
    NewtonStalled when J is rank deficient."""
    Q, R = np.linalg.qr(J)
    diag = np.abs(np.diag(R))
    ratio = diag.min() / diag.max()
    if ratio <= 1e-12:
        raise NewtonStalled(
            f"rank-deficient Jacobian (min/max |diag R| = {ratio:.3e})")
    return np.linalg.solve(R, -(Q.T @ r))


def bishop_solve(scenario, surface: SurfacePatch, init: BishopDisc,
                 pins: PinSet, n_taylor: int = DEFAULT_N_TAYLOR,
                 newton_tol: float = 1e-10) -> BishopDisc:
    """Solve the Bishop boundary problem rho(Psi^{-1}(h)) = 0 with 4 gauge rows.

    Gauss-Newton on the truncated Taylor coefficients of the holomorphic
    unknown h; residual = the two defining functions at the boundary samples
    of f = Psi^{-1}(h), stacked with the pin rows of `pins`, with damped
    (backtracking) steps, at most 25.  The Jacobian is that of the standard
    structure, the rows at the boundary values of h itself with Psi^{-1}
    left out.  As h is linear in its coefficients, it is exact by the chain
    rule (see _jacobian), and each step is a QR least-squares solve.  It is
    exact where A = 0 and off by O(|A|) otherwise, so Newton then converges
    linearly at that rate; the residual the steps minimize stays exact, and
    so does the converged disc, whose winding mu must be 0.

    Psi^{-1} is solved inexactly (Dembo, Eisenstat and Steihaug 1982), so
    that every residual the line search compares is solved to at most
    max(PSI_TOL, ETA |r|), |r| the best residual before it: a trial step
    to that, the seed to SEED_PSI_TOL, sweeping on from its f until it
    meets ETA times its own residual.  At |r| <= newton_tol the disc is
    solved once more to PSI_TOL and its residual recomputed; if that is
    above newton_tol, Newton goes on with PSI_TOL solves.  No re-solve is
    needed where Psi^{-1} ran no sweep (A = 0).  Each solve starts from
    h - q, q = h - f the correction of the last solve; the first q is that
    of the seed `init` (its h values minus its f).  A line search that
    stalls within UNDERRESOLVED_FACTOR of newton_tol, where the step
    predicts no decrease of |r|, has reached the truncation floor of the
    Taylor ansatz: Underresolved.
    """
    chart = scenario.chart
    grid = init.grid
    check_taylor_order(n_taylor, grid.n_theta, grid.n_rho)
    n = n_taylor + 1
    basis = _boundary_basis(grid.n_theta, n)

    coeffs = np.zeros((2, n), dtype=complex)
    for c, init_c in zip(coeffs, init.h_coeffs):
        c[:min(n, len(init_c))] = init_c[:n]
    x = to_real(coeffs.reshape(-1))        # (Re, Im) of each coefficient
    q = grid.taylor_values(coeffs) - init.f
    sweeps = solves = 0
    loose = False           # the last solve swept to a tolerance above PSI_TOL

    def residual(xb, tol):
        """Residual rows and their sup norm at f = Psi^{-1}(h) solved to tol,
        and f."""
        nonlocal q, sweeps, solves, loose
        vals = grid.taylor_values(to_complex(xb).reshape(2, n))
        f, s = psi_inverse_values(chart, grid, vals, start=vals - q, tol=tol)
        q, sweeps, solves = vals - f, sweeps + s, solves + 1
        loose = s > 0 and tol > PSI_TOL
        r = _residual_rows(surface, pins, grid, f[..., -1, :])
        return r, float(np.max(np.abs(r))), f

    tol = SEED_PSI_TOL
    r0, best, f0 = residual(x, tol)
    while loose and tol > max(PSI_TOL, ETA * best):   # sweep on from f
        tol = max(PSI_TOL, ETA * best)
        r0, best, f0 = residual(x, tol)
    eta = ETA               # 0 once an exact re-solve was above newton_tol
    iters = 0
    while True:
        if best <= newton_tol:
            if not loose:
                break
            eta = 0.0
            r0, best, f0 = residual(x, PSI_TOL)
            continue
        if iters >= 25:
            raise MaxIterations(
                "no convergence in 25 Gauss-Newton iterations "
                f"(residual {best:.3e})")
        iters += 1
        J = _jacobian(surface, pins, basis, x)
        dx = _gauss_newton_step(J, r0)
        tol = max(PSI_TOL, eta * best)
        for k in range(9):
            xt = x + dx * 0.5 ** k
            rt, size, ft = residual(xt, tol)
            if size < best:
                x, r0, best, f0 = xt, rt, size, ft
                break
        else:
            predicted = np.linalg.norm(J @ dx + r0) / np.linalg.norm(r0)
            if (best <= UNDERRESOLVED_FACTOR * newton_tol
                    and predicted >= 1.0 - NO_DECREASE):
                raise Underresolved(
                    f"t = {init.t:g}: residual floor {best:.3e} of the "
                    f"{n_taylor}-term Taylor ansatz is above newton_tol "
                    f"{newton_tol:g}, and the "
                    f"Gauss-Newton step predicts no decrease (|J dx + r| / |r| "
                    f"= {predicted:.6f}); the {grid.n_theta}x{grid.n_rho} grid "
                    f"holds up to {taylor_limit(grid.n_theta, grid.n_rho)} "
                    f"terms (check_taylor_order)")
            raise NewtonStalled(
                f"no residual decrease after 8 halvings (residual {best:.3e})")

    cr = cr_residual_values(chart, grid, f0)
    if cr > 1e-8:
        raise ResidualTooLarge(f"J-holomorphy residual {cr:.3e} > 1e-8")
    bres = float(np.max(np.abs(
        surface.rho_pair(to_real(np.moveaxis(f0[..., -1, :], -2, -1))))))
    disc = BishopDisc(
        grid, f0,
        h_coeffs=tuple(to_complex(x).reshape(2, n)),
        t=init.t,
        diagnostics={"newton_iters": iters, "psi_sweeps": sweeps,
                     "psi_solves": solves, "boundary_residual": bres,
                     "cr_residual": cr})
    from .continuation import maslov_index
    mu = disc.diagnostics["mu"] = maslov_index(disc, surface)
    if mu != 0:
        raise WindingChanged(f"winding mu = {mu} differs from 0")
    return disc
