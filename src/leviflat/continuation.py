"""Continuation of the Bishop disc family and assembly of the filling.

The sphere minus its two complex points carries a characteristic line field
(directions tangent to the sphere and complex-tangent to the boundary
hypersurface); its integral leaves run from one complex point to the other
and every attached disc boundary crosses each leaf once.  Three fixed leaves
provide the pin gauge shared by the two disc families grown out of the
elliptic-point models; the families are glued at a common parameter value
and assembled into the Levi-flat filling hypersurface.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .bishop import BishopDisc, DEFAULT_N_TAYLOR, PinSet, bishop_solve
from .calculus import DiscGrid
from .errors import (
    BlowUp,
    ComplexPointProximity,
    DiscSolveFailed,
    FrameDegenerate,
    LeafStalled,
    MaxIterations,
    NewtonStalled,
    NoContraction,
    NoMatch,
    ResidualTooLarge,
    StepUnderflow,
)
from .geometry import disc_area, levi_form, to_complex, to_real

POLE_TRIM = 0.05
LEAF_ANGLES = (0.0, 2.0 * np.pi / 3.0, -2.0 * np.pi / 3.0)
LEAF_NODES = 32             # Chebyshev degree of the leaf slope
LEAF_MAX_SWEEPS = 50        # Picard sweeps before LeafStalled
LEAF_TOL = 1e-14            # the last sweep moves u by at most this
LEAF_STEPS = 256            # uniform steps of the tabulated leaf
LEAF_PHI = np.arccos(0.96)  # leaves span LEAF_PHI..pi - LEAF_PHI: t 0.02..0.98
MAX_DT = 0.025              # largest continuation step of continue_family
MIN_DT = 1e-4               # a smaller step ends the branch (StepUnderflow)
PREDICTOR_DISCS = 4         # accepted discs the continuation extrapolates

LEVI_CIVITA = np.zeros((4, 4, 4, 4))     # eps_kijl = det of the permutation
for _perm in itertools.permutations(range(4)):
    LEVI_CIVITA[_perm] = np.linalg.det(np.eye(4)[list(_perm)])


# --- characteristic line field and leaves --------------------------------------


def characteristic_field(scenario, z, trim=POLE_TRIM):
    """Unit direction spanning T S^2 intersected with the complex tangent.

    The line is the null space of the rows b = grad rho1, c = grad rho2 and
    w = J^T grad r of the 3x4 matrix R.  It is spanned by their generalized
    cross product n_k = eps_kijl w_i b_j c_l, whose length is the product
    sigma_1 sigma_2 sigma_3 of the singular values of R.  As sigma_1 sigma_2
    <= |R|_F^2 / 2, the test 2 |n| < 1e-6 |R|_F^2 holds wherever
    sigma_3 < 1e-6; ComplexPointProximity is raised there, and when z is
    within `trim` of a complex point.
    """
    z = np.asarray(z, dtype=float)
    surface, chart = scenario.surface, scenario.chart
    d2 = np.sum((z[..., None, :] - surface.poles) ** 2, axis=-1)
    if np.min(d2) < trim ** 2:
        pole = surface.poles[np.argmin(d2) % len(surface.poles)]
        raise ComplexPointProximity(
            f"point within {trim} of the complex point at {pole}")
    w = chart.r_grad(z)[..., None, :] @ chart.J(z)       # the row J^T grad r
    rows = np.concatenate([surface.rho_grad(z), w], axis=-2)
    n = np.einsum("kijl,...i,...j,...l->...k", LEVI_CIVITA, rows[..., 2, :],
                  rows[..., 0, :], rows[..., 1, :])
    norm = np.sqrt(np.einsum("...k,...k->...", n, n))
    ratio = 2.0 * norm / np.einsum("...ij,...ij->...", rows, rows)
    if np.min(ratio) < 1e-6:
        raise ComplexPointProximity(
            f"characteristic line degenerates "
            f"(2|n| / |R|_F^2 = {np.min(ratio):.3e})")
    return n / norm[..., None]


@dataclass
class CharacteristicLeaf:
    """A characteristic leaf as the graph u = U(phi) over the polar angle phi
    of the ball-type parametrization, from near pole p to near pole q.

    At LEAF_STEPS + 1 uniform angles phi: points = parametrization(phi, u);
    v = cos phi is the height and t = (1 - v) / 2 the leaf parameter (0 at
    the p pole, 1 at the q pole).  sweeps: Picard sweeps (field calls).
    """

    points: np.ndarray
    u: np.ndarray
    v: np.ndarray
    t: np.ndarray
    sweeps: int

    def point_at(self, t, surface):
        """The surface point of the leaf at parameter t."""
        return surface.parametrization(np.arccos(1.0 - 2.0 * t),
                                       np.interp(t, self.t, self.u))

    def membership(self, surface):
        """Residual function z -> wrapped angle offset from the leaf."""
        v_tab, u_tab = self.v[::-1], self.u[::-1]   # np.interp: v ascending

        def member(z):
            uv = surface.to_uv(np.asarray(z, dtype=float))
            u_leaf = np.interp(uv[..., 1], v_tab, u_tab)
            d = uv[..., 0] - u_leaf
            return (d + np.pi) % (2.0 * np.pi) - np.pi

        return member


@functools.cache
def _leaf_operators(nodes, steps):
    """Chebyshev-Lobatto angles phi_j on [LEAF_PHI, pi - LEAF_PHI] and the
    matrices taking the slope at them to its integral from LEAF_PHI, at the
    same angles and at steps + 1 uniform ones."""
    cheb = np.polynomial.chebyshev
    s = -np.cos(np.pi * np.arange(nodes + 1) / nodes)
    half = 0.5 * np.pi - LEAF_PHI
    integral = half * cheb.chebint(np.eye(nodes + 1), lbnd=-1) \
        @ np.linalg.inv(cheb.chebvander(s, nodes))
    s_out = np.linspace(-1.0, 1.0, steps + 1)
    return (0.5 * np.pi + half * s, cheb.chebvander(s, nodes + 1) @ integral,
            cheb.chebvander(s_out, nodes + 1) @ integral)


def integrate_leaf(scenario, u0) -> CharacteristicLeaf:
    """The leaf through angle u0 at t = 0.02, up to t = 0.98.

    With z = parametrization(phi, u) and n the characteristic field, the
    leaf solves du/dphi = -sin phi (x1 n_y1 - y1 n_x1) / (|z1|^2 n_x2).
    Chebyshev-Picard iteration (Clenshaw & Norton 1963): each sweep sets
    u <- u0 + Q du(phi, u) at the LEAF_NODES + 1 Chebyshev-Lobatto angles,
    with one field call for all of them, until it moves u by at most
    LEAF_TOL.  The leaf is the integral of the last slope at LEAF_STEPS + 1
    uniform angles.  A non-finite slope (n tangent to a latitude), or no
    convergence in LEAF_MAX_SWEEPS sweeps, raises LeafStalled.
    """
    param = scenario.surface.parametrization
    phi, Q, P = _leaf_operators(LEAF_NODES, LEAF_STEPS)
    u = np.full_like(phi, u0)
    for sweep in range(1, LEAF_MAX_SWEEPS + 1):
        z = param(phi, u)
        n = characteristic_field(scenario, z)
        x, y = z[..., 0], z[..., 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            du = -np.sin(phi) * (x * n[..., 1] - y * n[..., 0]) \
                / ((x ** 2 + y ** 2) * n[..., 2])
        if not np.all(np.isfinite(du)):
            raise LeafStalled("leaf slope is not finite at phi = "
                              f"{phi[~np.isfinite(du)][0]:.6g}")
        u_new = u0 + Q @ du
        change, u = np.max(np.abs(u_new - u)), u_new
        if change <= LEAF_TOL:
            break
    else:
        raise LeafStalled(f"leaf did not converge in {LEAF_MAX_SWEEPS} "
                          f"sweeps (last correction {change:.3e})")
    phi = np.linspace(LEAF_PHI, np.pi - LEAF_PHI, LEAF_STEPS + 1)
    u = u0 + P @ du
    v = np.cos(phi)
    return CharacteristicLeaf(points=param(phi, u), u=u, v=v,
                              t=0.5 * (1.0 - v), sweeps=sweep)


def reference_leaves(scenario):
    """The three pinned leaves, through the angles LEAF_ANGLES at t = 0.02
    (ball-type spheres)."""
    return [integrate_leaf(scenario, u0) for u0 in LEAF_ANGLES]


def make_pinset(scenario, leaves, t) -> PinSet:
    point = leaves[0].point_at(t, scenario.surface)
    tb = scenario.surface.tangent_basis(point)
    return PinSet(point=point,
                  member2=leaves[1].membership(scenario.surface),
                  member3=leaves[2].membership(scenario.surface),
                  tangent_basis=tb)


# --- per-disc monitor ------------------------------------------------------------


def maslov_index(disc: BishopDisc, surface) -> int:
    """Winding (in half-turns) of the sphere tangent plane around the disc.

    At each boundary sample the real tangent plane of the sphere projects to
    a real line in the complex normal of the disc; the index counts the half
    turns of that line as the boundary is traversed.  Zero for every disc of
    a regular filling family.
    """
    g = disc.grid.dz_apply(disc.f)[..., -1, :]   # (2, T) boundary d_zeta f
    g = np.moveaxis(g, 0, -1)                  # (T, 2)
    norms = np.linalg.norm(g, axis=-1)
    if np.min(norms) < 1e-12:
        raise FrameDegenerate("disc tangent vanishes on the boundary")
    n = np.stack([-np.conj(g[..., 1]), np.conj(g[..., 0])], axis=-1) \
        / norms[..., None]
    pts = disc.boundary_points()
    tb = surface.tangent_basis(pts)            # (T, 4, 2)
    tau = to_complex(np.moveaxis(tb, -1, -2).reshape(pts.shape[0], 2, 4))
    # tau: (T, 2 basis vectors, 2 complex components)
    xi = np.einsum("tbi,ti->tb", tau, np.conj(n))
    pick = np.argmax(np.abs(xi), axis=-1)
    xi = xi[np.arange(len(pick)), pick]
    if np.min(np.abs(xi)) < 1e-10:
        raise FrameDegenerate("sphere tangent projects trivially to the normal")
    # squaring removes the real-line sign ambiguity; the index is the winding
    # of xi^2 in half turns of the line
    sq = np.append(xi ** 2, xi[0] ** 2)
    total = np.sum(np.angle(sq[1:] / sq[:-1]))
    return int(np.round(total / (2.0 * np.pi)))


def hopf_coefficient(disc: BishopDisc, chart) -> float:
    """min over theta of d/d rho (r o f) at the boundary (transversality)."""
    grid = disc.grid
    r_vals = chart.defining_r(disc.points())
    return float(np.min(grid.d_rho[-1] @ r_vals))


def leaf_crossings(disc: BishopDisc, surface, leaf: CharacteristicLeaf) -> int:
    """Number of transversal crossings of the disc boundary with a leaf."""
    member = leaf.membership(surface)
    w = member(disc.boundary_points())
    s = np.where(w >= 0, 1, -1)        # zeros (exact hits) count as positive
    s_next = np.roll(s, -1)
    jumps = np.abs(np.roll(w, -1) - w)
    return int(np.sum((s != s_next) & (jumps < np.pi)))


def monitor(disc: BishopDisc, scenario, leaves) -> dict:
    """Per-disc record; mu is the winding bishop_solve already measured."""
    max_grad = float(np.max(np.abs(disc.grid.dz_apply(disc.f))))
    return {
        "mu": disc.diagnostics["mu"],
        "area": disc_area(disc.grid, disc.f, scenario.chart.omega),
        "a_min": hopf_coefficient(disc, scenario.chart),
        "max_grad": max_grad,
        "boundary_leaf_crossings": leaf_crossings(disc, scenario.surface,
                                                  leaves[0]),
    }


def collar_decay(disc: BishopDisc, chart) -> float:
    """min over the collar 0.9 <= rho <= 0.99 of |r o f| / (1 - rho)^(4/3)
    (positive = decay bound)."""
    grid = disc.grid
    mask = (grid.rho >= 0.9) & (grid.rho <= 0.99)
    if not np.any(mask):
        raise ValueError("no radial nodes in the collar range")
    r_vals = np.abs(chart.defining_r(disc.points()))[mask]
    denom = (1.0 - grid.rho[mask])[:, None] ** (4.0 / 3.0)
    return float(np.min(r_vals / denom))


# --- the family continuation -------------------------------------------------------


@dataclass
class DiscFamily:
    """Accepted discs of one branch; `rejected` holds one dict per failed step
    (the branch side, t of the disc it started from, the step dt, the error
    type and message)."""

    discs: list
    t_values: np.ndarray
    monitors: list
    rejected: list = field(default_factory=list)


def _initial_guess(scenario, leaves, t, grid, n_taylor) -> BishopDisc:
    """Flat-circle seed through the leaf-1 pin at parameter t."""
    pin = leaves[0].point_at(t, scenario.surface)
    z1 = pin[0] + 1j * pin[1]
    c1 = np.zeros(n_taylor + 1, dtype=complex)
    c1[1] = z1                     # boundary circle through the pin at zeta = 1
    c2 = np.array([pin[2] + 1j * pin[3]])
    return BishopDisc(
        grid, np.stack([grid.taylor_values(c1), grid.taylor_values(c2)]),
        h_coeffs=(c1, c2), t=float(t))


def _lagrange_seed(discs, t) -> BishopDisc:
    """Taylor coefficients extrapolated to t by the Lagrange polynomial in t
    through `discs`.  The seed's f is the last disc's f moved by the same
    holomorphic increment, so that it carries that disc's Psi correction
    h - f, from which bishop_solve starts Psi^{-1}."""
    last = discs[-1]
    ts = [d.t for d in discs]
    weights = [np.prod([(t - tk) / (tj - tk) for tk in ts[:j] + ts[j + 1:]])
               for j, tj in enumerate(ts)]
    # the weights sum to 1: extrapolate the increments from the last disc
    step = [sum(w * (d.h_coeffs[k] - c) for w, d in zip(weights, discs))
            for k, c in enumerate(last.h_coeffs)]
    return BishopDisc(
        last.grid,
        last.f + np.stack([last.grid.taylor_values(dc) for dc in step]),
        h_coeffs=tuple(c + dc for c, dc in zip(last.h_coeffs, step)), t=t)


def continue_family(scenario, leaves, t_start, t_stop, grid=None,
                    n_taylor=DEFAULT_N_TAYLOR, newton_tol=1e-10,
                    grad_cap=1000.0, side="p") -> DiscFamily:
    """March the pinned Bishop family from t_start to t_stop (snapped exactly).

    Predictor: the first solve of a branch starts from the flat-circle
    seed, later ones from the Lagrange extrapolation in t through the last
    PREDICTOR_DISCS accepted discs, or all of them while there are fewer
    (_lagrange_seed: the previous disc itself after one, the secant after
    two).  Step control: halve on solver failure (StepUnderflow below
    MIN_DT), grow gently on easy solves; each failed step is recorded in
    DiscFamily.rejected.
    Underresolved (the Taylor ansatz floor) is not a failure that a smaller
    step mends and ends the branch.
    BlowUp is raised when the disc gradient sup |d_zeta f| exceeds grad_cap.
    """
    if grid is None:
        grid = DiscGrid()
    direction = 1.0 if t_stop >= t_start else -1.0
    dt = MAX_DT
    t = float(t_start)
    guess = _initial_guess(scenario, leaves, t, grid, n_taylor)
    discs, t_values, monitors, rejected = [], [], [], []

    def solve_at(t_target, seed):
        pins = make_pinset(scenario, leaves, t_target)
        seed = BishopDisc(seed.grid, seed.f, seed.h_coeffs, float(t_target))
        return bishop_solve(scenario, scenario.surface, seed, pins,
                            n_taylor=n_taylor, newton_tol=newton_tol)

    disc = solve_at(t, guess)
    while True:
        m = monitor(disc, scenario, leaves)
        if m["max_grad"] > grad_cap:
            raise BlowUp(m["max_grad"], disc.t)
        discs.append(disc)
        t_values.append(disc.t)
        monitors.append(m)
        if disc.t == float(t_stop):
            break
        while True:
            t_next = disc.t + direction * dt
            if direction * (t_next - t_stop) >= 0:
                t_next = float(t_stop)      # snap the junction exactly
            seed = _lagrange_seed(discs[-PREDICTOR_DISCS:], t_next)
            try:
                nxt = solve_at(t_next, seed)
                break
            except (NewtonStalled, MaxIterations, NoContraction,
                    ResidualTooLarge, DiscSolveFailed) as exc:
                rejected.append({"side": side, "t": disc.t, "dt": dt,
                                 "error": type(exc).__name__,
                                 "message": str(exc)})
                dt *= 0.5
                if dt < MIN_DT:
                    raise StepUnderflow(
                        f"continuation step fell below {MIN_DT} at t = {disc.t}",
                        rejected)
        iters = nxt.diagnostics.get("newton_iters", 0)
        if iters <= 3:
            dt = min(MAX_DT, dt * 1.5)
        elif iters > 8:
            dt = max(MIN_DT, dt * 0.5)
        disc = nxt
    return DiscFamily(discs=discs, t_values=np.asarray(t_values),
                      monitors=monitors, rejected=rejected)


# --- gluing and assembly -----------------------------------------------------------


def _sample_rings(disc: BishopDisc):
    grid = disc.grid
    pts = disc.points()
    rows = [int(np.argmin(np.abs(grid.rho - r)))
            for r in (0.3, 0.5, 0.7, 0.9, 0.97, 1.0)]
    return pts[sorted(set(rows))].reshape(-1, 4)


def disc_hausdorff(d1: BishopDisc, d2: BishopDisc) -> float:
    """Symmetric Hausdorff distance between sample rings of two discs."""
    a, b = _sample_rings(d1), _sample_rings(d2)
    D = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=-1)
    return float(max(D.min(axis=1).max(), D.min(axis=0).max()))


@dataclass
class FillingResult:
    discs: list
    t_values: np.ndarray
    monitors: list
    junction_t: float
    glue_distance: float

    def cloud(self):
        """Point cloud (n, 7): columns (t, rho, theta, x1, y1, x2, y2)."""
        rows = []
        for disc, t in zip(self.discs, self.t_values):
            grid = disc.grid
            pts = disc.points()
            T, R = np.meshgrid(grid.theta, grid.rho)
            col_t = np.full(pts.shape[:2], t)
            rows.append(np.concatenate(
                [col_t[..., None], R[..., None], T[..., None], pts],
                axis=-1).reshape(-1, 7))
        return np.concatenate(rows, axis=0)

    def boundary_cloud(self):
        """Boundary trace points (n, 7), same columns as cloud()."""
        cl = self.cloud()
        return cl[np.isclose(cl[:, 1], 1.0)]


def glue(family_p: DiscFamily, family_q: DiscFamily, tol=1e-5) -> FillingResult:
    """Join the two families at their common snapped parameter value."""
    t_star_p = family_p.t_values[-1]
    t_star_q = family_q.t_values[-1]
    if abs(t_star_p - t_star_q) > 1e-12:
        raise NoMatch(
            f"families end at different parameters {t_star_p} vs {t_star_q}")
    d = disc_hausdorff(family_p.discs[-1], family_q.discs[-1])
    if d > tol:
        raise NoMatch(f"junction discs are {d:.3e} apart (tolerance {tol:g})")
    discs = list(family_p.discs) + list(family_q.discs[-2::-1])
    t_values = np.concatenate([family_p.t_values,
                               family_q.t_values[-2::-1]])
    monitors = list(family_p.monitors) + list(family_q.monitors[-2::-1])
    return FillingResult(discs=discs, t_values=t_values, monitors=monitors,
                         junction_t=float(t_star_p), glue_distance=d)


# --- Levi-flatness certificate ------------------------------------------------------


def _disc_tangents(disc: BishopDisc):
    """Real angular tangent directions of the disc at all grid nodes, (R, T, 4)."""
    dth, _ = disc.grid._dtheta_drho(disc.f)
    return to_real(np.moveaxis(dth, 0, -1))


def _quadratic_terms(x):
    """1, x_i and the products x_i x_j (i <= j) of coordinates x (..., 3)."""
    i, j = np.triu_indices(3)
    return np.concatenate([np.ones(x.shape[:-1] + (1,)), x,
                           x[..., i] * x[..., j]], axis=-1)


def levi_certificate(result: FillingResult, chart, n_samples=40):
    """Levi form of the assembled hypersurface at random interior samples.

    The hypersurface is reconstructed locally: nearest neighbors of each
    sample give a PCA normal and a quadratic graph fit, whose defining
    function feeds the ambient Levi form in the disc tangent direction (a
    complex tangent direction of the hypersurface).  Each fit uses at least
    40 neighbors; the samples are drawn with seed 0.
    """
    n_discs = len(result.discs)
    grid0 = result.discs[0].grid
    per_disc = grid0.n_radial * grid0.n_theta
    cloud = result.cloud()
    tangents = np.concatenate(
        [_disc_tangents(d).reshape(-1, 4) for d in result.discs], axis=0)
    pts = cloud[:, 3:]
    # samples away from the boundary and the caps
    interior = ((cloud[:, 1] > 0.15) & (cloud[:, 1] < 0.9)
                & (cloud[:, 0] > result.t_values.min() + 0.05)
                & (cloud[:, 0] < result.t_values.max() - 0.05))
    idx_pool = np.flatnonzero(interior)
    rng = np.random.default_rng(0)
    picks = rng.choice(idx_pool, size=min(n_samples, len(idx_pool)),
                       replace=False)
    values = []
    for i in picks:
        x0 = pts[i]
        # neighbors drawn from the sample's disc and its two family
        # neighbors, so the point set is genuinely three-dimensional
        di = int(i // per_disc)
        lo, hi = max(0, di - 1), min(n_discs, di + 2)
        block = pts[lo * per_disc:hi * per_disc]
        dist = np.linalg.norm(block - x0, axis=1)
        radius = 0.12
        nb = np.flatnonzero(dist < radius)
        while len(nb) < 40 and radius < 1.0:
            radius *= 1.5
            nb = np.flatnonzero(dist < radius)
        Q = block[nb] - x0
        # PCA: smallest principal direction is the hypersurface normal
        _, _, vh = np.linalg.svd(Q - Q.mean(axis=0))
        normal = vh[-1]
        tang = vh[:-1]
        xi = Q @ tang.T               # (k, 3) tangential coordinates
        eta = Q @ normal
        # quadratic graph fit eta = q(xi)
        coef, *_ = np.linalg.lstsq(_quadratic_terms(xi), eta, rcond=None)

        def r_loc(z):
            d = np.asarray(z, dtype=float) - x0
            x = np.einsum("...i,ji->...j", d, tang)
            return d @ normal - _quadratic_terms(x) @ coef

        X = tangents[i]
        nX = np.linalg.norm(X)
        if nX < 1e-12:
            raise FrameDegenerate("vanishing disc tangent at a sample point")
        values.append(levi_form(chart, r_loc, x0, X / nX, h_fd=1e-3,
                                check=False))
    return np.asarray(values)
