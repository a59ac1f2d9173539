r"""Spectral function calculus on the closed unit disc.

Fields live on a polar tensor grid: equispaced angles (FFT-friendly) times
Gauss-Legendre radial nodes mapped to (0,1), plus the boundary circle rho = 1
kept as a distinguished ring.  A field on the disc is its samples there, an
array (..., R, n_theta) with R = n_rho + 1; the dbar operator
(DiscGrid.dbar_apply) and the Cauchy-Green transform T (DiscGrid.cg_apply,
the area-integral right inverse of dbar) act on such arrays.  A function on
the circle is its n_theta samples at DiscGrid.theta, which the Schwarz
integral and winding numbers take.  Taylor series are sampled by one inverse
FFT (DiscGrid.taylor_values), and boundary rings are interpolated off the
nodes by one Fourier sum (DiscGrid.boundary_at).

T is applied mode-by-mode in the angular Fourier basis.  For a single mode
f_m(s) e^{i m theta} the transform has angular dependence e^{i(m-1) theta} and
an explicit radial integral:

    m >= 1 :  c_m(rho) = -2 rho^(m-1) \int_rho^1 f_m(s) s^(1-m) ds
    m <= 0 :  c_m(rho) =  2 rho^(m-1) \int_0^rho f_m(s) s^(1-m) ds

Each mode is expanded in the Zernike radial basis s^|m| P_k^(0,|m|)(2s^2 - 1)
(Jacobi polynomials, from the three-term recurrence, DLMF 18.9.1), whose
coefficients come from the exact Gauss quadrature of the orthogonality
relation -- no ill-conditioned Vandermonde solves -- and whose transforms are
themselves polynomial, evaluated once per mode by exact quadrature of the
integrals above.  The whole transform is precomputed as one small matrix per
mode.  This reproduces T(1) = conj(zeta) and the monomial closed forms to
rounding and keeps dbar o T = id at spectral accuracy; a quadrature-based
evaluation of the defining area integral is used as an independent oracle in
the test suite.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NotReal, Underresolved, ZeroOnCircle

DEFAULT_N_THETA = 64
DEFAULT_N_RHO = 32
REAL_TOL = 1e-12     # largest |Im| of samples a real circle function may carry

_MODE_DECAY_TOL = 1e-6

# read-only Cauchy-Green (mode matrices, mode shift), one per grid shape
_CG_OPERATORS = {}


def _barycentric_weights(nodes):
    n = len(nodes)
    w = np.ones(n)
    for j in range(n):
        w[j] = 1.0 / np.prod(nodes[j] - np.delete(nodes, j))
    return w


def _diff_matrix(nodes):
    """Barycentric polynomial differentiation matrix on arbitrary nodes."""
    n = len(nodes)
    w = _barycentric_weights(nodes)
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                D[i, j] = (w[j] / w[i]) / (nodes[i] - nodes[j])
        D[i, i] = -np.sum(D[i, np.arange(n) != i])
    return D


def _eval_row(nodes, x):
    """Row vector interpolating node values to the point x (barycentric)."""
    w = _barycentric_weights(nodes)
    diff = x - nodes
    exact = np.isclose(diff, 0.0, atol=1e-15)
    if exact.any():
        row = np.zeros(len(nodes))
        row[np.argmax(exact)] = 1.0
        return row
    row = w / diff
    return row / row.sum()


def check_grid(n_theta: int, n_rho: int):
    """Refuse a grid DiscGrid cannot build: n_theta must be a power of two
    >= 16 (the angular FFT grid), n_rho at least 8."""
    if n_theta < 16 or (n_theta & (n_theta - 1)) != 0:
        raise ConfigError(
            f"n_theta = {n_theta} must be a power of two, >= 16")
    if n_rho < 8:
        raise ConfigError(f"n_rho = {n_rho} must be at least 8")


def _jacobi_table(K, a, x):
    """P_0 .. P_K^(0,a)(x), stacked on a new first axis, by the three-term
    recurrence (DLMF 18.9.1)."""
    x = np.asarray(x, dtype=float)
    P = np.ones((K + 1,) + x.shape)
    P[1:2] = 0.5 * ((a + 2) * x - a)      # an empty slice when K = 0
    for n in range(2, K + 1):
        c = 2 * n + a
        P[n] = ((c - 1) * (c * (c - 2) * x - a * a) * P[n - 1]
                - 2 * (n - 1) * (n + a - 1) * c * P[n - 2]) \
            / (2 * n * (n + a) * (c - 2))
    return P


class DiscGrid:
    """Polar grid on the closed unit disc with spectral operators attached."""

    def __init__(self, n_theta=DEFAULT_N_THETA, n_rho=DEFAULT_N_RHO):
        check_grid(n_theta, n_rho)
        self.n_theta = int(n_theta)
        self.n_rho = int(n_rho)

        self.theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
        gl_nodes, gl_weights = np.polynomial.legendre.leggauss(n_rho)
        self.rho = np.concatenate([(gl_nodes + 1.0) / 2.0, [1.0]])
        self._gl_weights = gl_weights / 2.0

        self.zeta = self.rho[:, None] * np.exp(1j * self.theta[None, :])

        # area element rho drho dtheta; the boundary ring carries no area
        w_r = np.concatenate([self._gl_weights * self.rho[:-1], [0.0]])
        self.area_weights = w_r[:, None] * np.full(n_theta, 2.0 * np.pi / n_theta)

        self.modes = np.fft.fftfreq(n_theta, 1.0 / n_theta).astype(int)
        self.d_rho = _diff_matrix(self.rho)
        self._center_row = _eval_row(self.rho, 0.0)

    @property
    def n_radial(self):
        return self.n_rho + 1

    def taylor_values(self, coeffs):
        """Holomorphic fields sum_k c_k zeta^k of coefficients (..., N) at the
        nodes, shape (..., R, n_theta): c_k rho^k lands on angular mode
        k mod n_theta, then one inverse FFT."""
        coeffs = np.asarray(coeffs, dtype=complex)
        n, size = self.n_theta, coeffs.shape[-1]
        shape = coeffs.shape[:-1] + (self.n_radial, -(-size // n) * n)
        modes = np.zeros(shape, dtype=complex)
        modes[..., :size] = coeffs[..., None, :] \
            * self.rho[:, None] ** np.arange(size)
        modes = modes.reshape(shape[:-1] + (-1, n)).sum(axis=-2)
        return n * np.fft.ifft(modes, axis=-1)

    def boundary_at(self, ring, theta):
        """Trigonometric interpolation of rings (..., n_theta) at angles
        theta, shape (..., len(theta))."""
        F = np.fft.fft(ring, axis=-1) / self.n_theta
        ph = np.exp(1j * np.outer(theta, self.modes))
        # a matrix-vector product per ring: values independent of the batch
        return (ph @ F[..., None])[..., 0]

    # -- Cauchy-Green mode matrices -------------------------------------------

    def cg_operators(self):
        """The Cauchy-Green (mode matrices, mode shift) of this grid shape,
        built on first use and shared read-only by every grid of the shape."""
        key = (self.n_theta, self.n_rho)
        if key not in _CG_OPERATORS:
            _CG_OPERATORS[key] = self._build_cg()
        return _CG_OPERATORS[key]

    def _build_cg(self):
        R = self.n_radial
        s = self.rho
        deg_cap = self.n_rho  # max polynomial degree of the radial basis
        # weights of \int_0^1 f(s) s ds on the radial nodes (boundary ring: 0)
        w_rad = np.concatenate([self._gl_weights * s[:-1], [0.0]])
        n_q = max(96, 2 * deg_cap + 32)
        gq_x, gq_w = np.polynomial.legendre.leggauss(n_q)

        mats = np.zeros((self.n_theta, R, R))
        shift = np.full(self.n_theta, -1, dtype=int)
        mode_pos = {int(m): j for j, m in enumerate(self.modes)}
        for j, m in enumerate(self.modes):
            m = int(m)
            a = abs(m)
            K = (deg_cap - a) // 2
            shift[j] = mode_pos.get(m - 1, -1)
            if K < 0:
                continue  # mode beyond radial resolution maps to zero
            ks = np.arange(K + 1)
            x = 2.0 * s ** 2 - 1.0

            # analysis: Zernike coefficients by the (exact) orthogonality
            # quadrature, c_k = (2(a + 2k) + 2) \int f_m(s) s^a P_k(x) s ds
            Pv = _jacobi_table(K, a, x)
            A = (2.0 * (a + 2 * ks) + 2.0)[:, None] * (w_rad * s ** a * Pv)

            # synthesis: the transform of each basis element at the nodes
            if m >= 1:
                # -(1/2) rho^(m-1) \int_{2 rho^2 - 1}^{1} P_k^(0,m)(t) dt
                half = 0.5 * (1.0 - x)
                t = x[:, None] + half[:, None] * (gq_x[None, :] + 1.0)
                quad = (_jacobi_table(K, a, t) @ gq_w).T * half[:, None]
                Y = -0.5 * s[:, None] ** (m - 1) * quad
            else:
                # 2 rho^(a+1) \int_0^1 sigma^(2a+1) P_k^(0,a)(2 rho^2 sigma^2 - 1) dsigma
                sig = 0.5 * (gq_x + 1.0)
                wsig = 0.5 * gq_w * sig ** (2 * a + 1)
                arg = 2.0 * (s[:, None] * sig[None, :]) ** 2 - 1.0
                Y = 2.0 * s[:, None] ** (a + 1) * (_jacobi_table(K, a, arg) @ wsig).T
            mats[j] = Y @ A
        mats.setflags(write=False)
        shift.setflags(write=False)
        return mats, shift

    def cg_apply(self, values):
        """Cauchy-Green transform on sampled values, shape (..., R, n_theta)."""
        mats, shift = self.cg_operators()
        F = np.fft.fft(values, axis=-1) / self.n_theta
        # stacked per-mode matmul: (m, R, R) @ (m, R, batch) -> (m, R, batch);
        # the matrices are real, so they act on the (re, im) pairs of a view
        Fl = F.reshape((-1,) + F.shape[-2:])                    # (b, R, m)
        Fm = np.ascontiguousarray(Fl.transpose(2, 1, 0))        # (m, R, b)
        Om = (mats @ Fm.view(float)).view(complex)              # (m, R, b)
        out_modes = Om.transpose(2, 1, 0).reshape(F.shape)      # (..., R, m)
        G = np.zeros_like(F)
        keep = shift >= 0
        G[..., :, shift[keep]] = out_modes[..., :, keep]
        return np.fft.ifft(G * self.n_theta, axis=-1)

    # -- spectral derivatives --------------------------------------------------

    def _dtheta_drho(self, values, F=None):
        """Angular and radial derivatives; F is fft(values) if already taken."""
        F = np.fft.fft(values, axis=-1) if F is None else F
        dth = np.fft.ifft(1j * self.modes * F, axis=-1)
        drh = self.d_rho @ values
        return dth, drh

    def dbar_apply(self, values):
        """d/d(conj zeta) of sampled fields, shape (..., R, n_theta).
        Underresolved where the highest angular mode n_theta/2 carries more
        than _MODE_DECAY_TOL of the fields' spectral energy."""
        F = np.fft.fft(values, axis=-1)
        energy = np.abs(F) ** 2
        tail, total = np.sum(energy[..., self.n_theta // 2]), np.sum(energy)
        if tail > _MODE_DECAY_TOL * total:
            raise Underresolved("angular mode decay check failed (tail "
                                f"fraction {tail / total:.3e})")
        dth, drh = self._dtheta_drho(values, F)
        phase = np.exp(1j * self.theta)[None, :]
        inv_rho = (1.0 / self.rho)[:, None]
        return 0.5 * phase * (drh + 1j * inv_rho * dth)

    def dz_apply(self, values):
        dth, drh = self._dtheta_drho(values)
        phase = np.exp(-1j * self.theta)[None, :]
        inv_rho = (1.0 / self.rho)[:, None]
        return 0.5 * phase * (drh - 1j * inv_rho * dth)

    def center_value(self, values):
        """Value at zeta = 0 by radial extrapolation of the zero mode."""
        f0 = np.mean(values, axis=-1)
        return f0 @ self._center_row

    def center_dz(self, values):
        """Holomorphic derivative at zeta = 0 (first-mode radial slope)."""
        F = np.fft.fft(values, axis=-1) / self.n_theta
        prof = F[..., :, 1] / self.rho         # mode m = +1
        return prof @ self._center_row

    def laplacian_at_center(self, values):
        """Laplacian at zeta = 0 of a sampled (real or complex) field."""
        f0 = np.mean(values, axis=-1)
        xc = 2.0 * self.rho**2 - 1.0
        deg = min(self.n_rho // 2, 14)
        V = np.polynomial.chebyshev.chebvander(xc, deg)
        coef, *_ = np.linalg.lstsq(V, np.atleast_2d(f0).T, rcond=None)
        # d/d(rho^2) at 0 equals 2 * d/dx at x = -1; T_k'(-1) = (-1)^(k+1) k^2
        k = np.arange(deg + 1)
        tkp = ((-1.0) ** (k + 1)) * k**2
        out = 8.0 * (tkp @ coef)        # Laplacian = 4 d/d(rho^2)
        return out[0] if np.ndim(values) == 2 else out.reshape(np.shape(values)[:-2])


def require_finite(samples, what):
    """ValueError where any sample is NaN or infinite."""
    if not np.all(np.isfinite(samples)):
        raise ValueError(f"{what} must be finite")


def require_real(samples, what):
    """NotReal where any |Im| of the circle samples exceeds REAL_TOL."""
    if np.max(np.abs(np.imag(samples))) > REAL_TOL:
        raise NotReal(f"{what} is not real-valued on the circle")


def schwarz(g, grid: DiscGrid):
    """Holomorphic field whose boundary real part equals the real samples g
    at the angles grid.theta (Schwarz integral): with F = fft(g)/n the series
    F_0 + 2 sum_{0 < k < n/2} F_k zeta^k + F_{n/2} zeta^{n/2}, its free
    additive constant fixed by Im(result(0)) = 0."""
    g = np.asarray(g)
    require_finite(g, "schwarz input")
    require_real(g, "schwarz input")
    n = len(g)
    if grid.n_theta != n:
        raise ValueError("grid angular resolution does not match the samples")
    coeffs = np.fft.fft(g)[:n // 2 + 1] / n
    coeffs[1:n // 2] *= 2.0
    return grid.taylor_values(coeffs)


def winding_number(samples) -> int:
    """Winding number of a nowhere-zero complex function on the circle,
    given by its samples; ValueError where a sample is not finite."""
    samples = np.asarray(samples)
    require_finite(samples, "circle samples")
    mags = np.abs(samples)
    if mags.min() <= 1e-8:
        raise ZeroOnCircle(f"min |g| = {mags.min():.3e} on circle samples")
    ratios = np.roll(samples, -1) / samples
    jumps = np.angle(ratios)
    if np.max(np.abs(jumps)) >= np.pi * 0.999:
        raise Underresolved("phase jump >= pi between adjacent circle samples")
    total = np.sum(jumps) / (2.0 * np.pi)
    w = int(np.round(total))
    if abs(total - w) > 1e-8:
        raise Underresolved(f"winding accumulation {total} is not an integer")
    return w


def continuous_argument(samples):
    """Unwrapped argument along circle samples; returns (arg array, winding)."""
    samples = np.asarray(samples)
    require_finite(samples, "circle samples")
    if np.min(np.abs(samples)) <= 1e-8:
        raise ZeroOnCircle("cannot take argument of a (numerically) vanishing field")
    arg = np.unwrap(np.angle(samples))
    w = (arg[-1] + np.angle(samples[0] / samples[-1]) - arg[0]) / (2 * np.pi)
    return arg, int(np.round(w))
