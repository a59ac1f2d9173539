"""Built-in geometric scenarios: ambient charts, spheres, and pole models.

Each scenario packages an ambient chart (deformation tensor of the almost
complex structure, symplectic form, boundary defining function,
plurisubharmonic weight), the two-sphere as a SurfacePatch in ambient
coordinates, and adapted-coordinate models of its complex (pole) points
ready for the elliptic-point theory.

Catalog:
  ball          |z1|^2 + |z2|^2 = 1 with the standard structure; the filling
                is the family of flat discs {z2 = c}.
  weak-m2       |z1|^2 + |z2|^4 = 1, standard structure; weakly Levi-convex
                along {z2 = 0}, the stress case for bounded exhaustions.
  perturbed-ball  the ball with deformation tensor eps (1 - z2^2) A0, a small
                almost complex perturbation vanishing at both poles.
  model-quadric   the non-compact local model x2 = |z1|^2 + gamma Re(z1^2),
                standard structure, one elliptic point at the origin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bishop import EllipticPointModel, SurfacePatch
from .errors import ConfigError
from .geometry import AmbientChart, zero_deformation

PERTURBATION_MATRIX = np.array([
    [0.35, 0.20 + 0.10j],
    [0.15 - 0.05j, 0.30],
])


@dataclass
class PoleInfo:
    """A complex point of the sphere with its adapted coordinate chart."""

    location: np.ndarray
    model: EllipticPointModel
    to_adapted: Callable       # ambient real 4-vectors -> adapted
    from_adapted: Callable
    gamma: float


@dataclass
class Scenario:
    name: str
    chart: AmbientChart
    surface: SurfacePatch
    poles: list


def _to_uv(z):
    """Surface coordinates (angle of z1, height x2)."""
    z = np.asarray(z, dtype=float)
    return np.stack([np.arctan2(z[..., 1], z[..., 0]), z[..., 2]], axis=-1)


def _psi(z):
    """The plurisubharmonic weight |z|^2."""
    return np.sum(np.asarray(z, dtype=float) ** 2, axis=-1)


def _ball_type(name: str, m: int, A_fn=zero_deformation) -> Scenario:
    """Sphere {|z1|^2 + |z2|^{2m} = 1, y2 = 0} in the domain r < 0."""

    def r(z):
        z = np.asarray(z, dtype=float)
        return (z[..., 0] ** 2 + z[..., 1] ** 2
                + (z[..., 2] ** 2 + z[..., 3] ** 2) ** m - 1.0)

    def r_grad(z):
        z = np.asarray(z, dtype=float)
        g = 2.0 * z
        if m != 1:
            g[..., 2:] *= (m * (z[..., 2] ** 2 + z[..., 3] ** 2)
                           ** (m - 1))[..., None]
        return g

    chart = AmbientChart(A_fn=A_fn, defining_r=r, psi=_psi, r_grad=r_grad)

    def rho_pair(z):
        z = np.asarray(z, dtype=float)
        return np.stack([z[..., 3], r(z)], axis=-1)

    def rho_grad(z):
        z = np.asarray(z, dtype=float)
        g = np.zeros(z.shape[:-1] + (2, 4))
        g[..., 0, 3] = 1.0
        g[..., 1, :] = r_grad(z)
        return g

    def parametrization(phi, alpha):
        phi = np.asarray(phi, dtype=float)
        alpha = np.asarray(alpha, dtype=float)
        g = np.sqrt(np.clip(1.0 - np.cos(phi) ** (2 * m), 0.0, None))
        pts = np.empty(np.broadcast(phi, alpha).shape + (4,))
        pts[..., 0] = g * np.cos(alpha)
        pts[..., 1] = g * np.sin(alpha)
        pts[..., 2] = np.cos(phi)
        pts[..., 3] = 0.0
        return pts

    def area_elements():
        # 64 Gauss-Legendre nodes in phi per hemisphere, 128 angles alpha
        n_alpha = 128
        nodes, weights = np.polynomial.legendre.leggauss(64)
        alpha = 2.0 * np.pi * np.arange(n_alpha) / n_alpha
        dalpha = 2.0 * np.pi / n_alpha
        panels = []
        for lo, hi in ((0.0, np.pi / 2), (np.pi / 2, np.pi)):
            phi = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
            wphi = 0.5 * (hi - lo) * weights
            P, A = np.meshgrid(phi, alpha, indexing="ij")
            pts = parametrization(P, A)
            c, s = np.cos(P), np.sin(P)
            g = np.sqrt(np.clip(1.0 - c ** (2 * m), 0.0, None))
            gp = m * c ** (2 * m - 1) * s / np.where(g > 0, g, 1.0)
            du = np.stack([gp * np.cos(A), gp * np.sin(A), -s,
                           np.zeros_like(P)], axis=-1)
            dv = np.stack([-g * np.sin(A), g * np.cos(A),
                           np.zeros_like(P), np.zeros_like(P)], axis=-1)
            w = wphi[:, None] * dalpha * np.ones_like(P)
            panels.append((pts, du, dv, w))
        return panels

    poles = [_ball_pole(chart, m, sign) for sign in (+1, -1)]
    surface = SurfacePatch(
        rho_pair=rho_pair, rho_grad=rho_grad, gamma=0.0,
        parametrization=parametrization, area_elements=area_elements,
        to_uv=_to_uv,
        poles=np.array([p.location for p in poles]))
    return Scenario(name=name, chart=chart, surface=surface, poles=poles)


def _ball_pole(chart: AmbientChart, m: int, sign: int) -> PoleInfo:
    """Adapted model at the pole (0, sign): w1 = z1, w2 = 2m (1 - sign z2)."""
    location = np.array([0.0, 0.0, float(sign), 0.0])
    scale = 2.0 * m

    def to_adapted(z):
        z = np.asarray(z, dtype=float)
        return np.stack([z[..., 0], z[..., 1], scale * (1.0 - sign * z[..., 2]),
                         -scale * sign * z[..., 3]], axis=-1)

    def from_adapted(w):
        w = np.asarray(w, dtype=float)
        return np.stack([w[..., 0], w[..., 1], sign * (1.0 - w[..., 2] / scale),
                         -sign * w[..., 3] / scale], axis=-1)

    # dw/dz = diag(1, -sign * scale) as a complex-linear map
    dc = np.array([1.0, -sign * scale])

    def A_adapted(w):
        return (dc[:, None] * chart.A_fn(from_adapted(w))) * (1.0 / dc)[None, :]

    model_chart = AmbientChart(A_fn=A_adapted)

    def rho_adapted(w):
        # normal-form pair: (-r(z), Im w2), Im w2 = -scale * sign * y2
        z = np.asarray(from_adapted(w))
        return np.stack([-chart.defining_r(z),
                         -scale * sign * z[..., 3]], axis=-1)

    model = EllipticPointModel(gamma=0.0, chart=model_chart, rho=rho_adapted)
    return PoleInfo(location=location, model=model, to_adapted=to_adapted,
                    from_adapted=from_adapted, gamma=0.0)


def _perturbation_A(eps: float):
    def A_fn(z):
        z = np.asarray(z, dtype=float)
        z2 = z[..., 2] + 1j * z[..., 3]
        return eps * (1.0 - z2 ** 2)[..., None, None] * PERTURBATION_MATRIX
    return A_fn


def _model_quadric(gamma: float) -> Scenario:
    """Non-compact local model x2 = |z1|^2 + gamma Re(z1^2), standard J."""

    def P(z):
        z = np.asarray(z, dtype=float)
        return (z[..., 0] ** 2 + z[..., 1] ** 2
                + gamma * (z[..., 0] ** 2 - z[..., 1] ** 2))

    def rho_pair(z):
        z = np.asarray(z, dtype=float)
        return np.stack([z[..., 2] - P(z), z[..., 3]], axis=-1)

    def rho_grad(z):
        z = np.asarray(z, dtype=float)
        g = np.zeros(z.shape[:-1] + (2, 4))
        g[..., 0, 0] = -2.0 * (1.0 + gamma) * z[..., 0]
        g[..., 0, 1] = -2.0 * (1.0 - gamma) * z[..., 1]
        g[..., 0, 2] = g[..., 1, 3] = 1.0
        return g

    chart = AmbientChart(
        defining_r=lambda z: P(z) - np.asarray(z, float)[..., 2], psi=_psi)
    identity = lambda z: np.asarray(z, dtype=float).copy()
    model = EllipticPointModel(gamma=gamma, chart=chart, rho=rho_pair)
    pole = PoleInfo(location=np.zeros(4), model=model, to_adapted=identity,
                    from_adapted=identity, gamma=gamma)
    surface = SurfacePatch(rho_pair=rho_pair, rho_grad=rho_grad, gamma=gamma,
                           to_uv=_to_uv, poles=pole.location[None, :])
    return Scenario(name="model-quadric", chart=chart, surface=surface,
                    poles=[pole])


def make_scenario(name: str, **params) -> Scenario:
    """Build a catalog scenario by name.  Unknown names, and any parameter
    other than eps (perturbed-ball) or gamma (model-quadric), raise
    ConfigError."""
    if name not in SCENARIO_NAMES:
        raise ConfigError(f"unknown scenario '{name}'")
    allowed = {"perturbed-ball": {"eps"}, "model-quadric": {"gamma"}}
    unknown = sorted(set(params) - allowed.get(name, set()))
    if unknown:
        raise ConfigError(f"scenario '{name}' takes no parameters {unknown}")
    if name == "ball":
        return _ball_type("ball", m=1)
    if name == "weak-m2":
        return _ball_type("weak-m2", m=2)
    if name == "perturbed-ball":
        eps = float(params.get("eps", 0.05))
        if not (0 <= eps <= 0.1):
            raise ConfigError(f"perturbed-ball needs eps in [0, 0.1], got {eps}")
        return _ball_type("perturbed-ball", m=1, A_fn=_perturbation_A(eps))
    gamma = float(params.get("gamma", 0.5))
    if not (0 <= gamma < 1):
        raise ConfigError(
            f"model-quadric needs an elliptic gamma in [0, 1), got {gamma}")
    return _model_quadric(gamma)


SCENARIO_NAMES = ("ball", "weak-m2", "perturbed-ball", "model-quadric")
