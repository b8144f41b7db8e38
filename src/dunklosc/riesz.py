"""Riesz transforms R_j for the Z2^d Dunkl harmonic oscillator.

Three independent realizations:

* spectral multiplier on the generalized Hermite basis,
      R_j: coeff[n] -> m(n_j, a_j) / sqrt(2|n| + 2|alpha| + 2d) at n - e_j;
* the (zeta, s) double integral for each parity component,
      R_j^{alpha,eps}(x,y) = int Pi_{alpha+eps}(ds) int_0^1
          beta_{d,alpha+eps}(zeta) (delta_j psi_zeta^eps)(x,y,s) dzeta,
  evaluated with a graded composite Gauss-Legendre grid in zeta and, in
  s, one-dimensional integrals per coordinate: Gauss-Jacobi (point masses
  when the order is exactly -1/2) or exactly, by Bessel ratios.  The
  integrand factors over coordinates, so the full kernel is one product
  over coordinates instead of a sum over parities;
* a direct t-integral of the differentiated heat kernel, kept as the
  slow independent oracle for the quadrature route.

Both kernel routes refuse near-diagonal arguments (|x - y| < 1e-3); the
values there would be dominated by quadrature error.  The parity
components are additionally singular on the reflected diagonals
(|x_i| = |y_i| with sign flips), where only their sum is small; expect
cancellation-limited accuracy very close to those sets.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.special import roots_jacobi

from .hermite import AlphaParams, MultiIndex, ladder_coeff
from .quadrature import QuadratureRule, SpectralCoeffs, project
from .special import bessel_ratio_scaled, log_gamma
from .heat import (_kernel_prelude, _prepare_pairs, all_parities, psi_zeta, t_of_zeta,
                   zeta_of_t)

__all__ = [
    "SchlafliMeasure",
    "KernelConfig",
    "AnnularBump",
    "IntervalBump",
    "zeta_grid",
    "riesz_multiplier",
    "riesz_apply_spectral",
    "riesz_adjoint_spectral",
    "beta_weight",
    "psi_zeta",
    "delta_psi",
    "riesz_kernel_component",
    "riesz_kernel_components",
    "riesz_kernel",
    "riesz_kernel_direct",
    "dual_pairing_check",
    "apriori_identity_check",
    "star_identity_check",
]

NEAR_DIAGONAL = 1e-3


@dataclass(frozen=True)
class SchlafliMeasure:
    """Discretization of the measure Pi_nu in the Poisson-type formula
    I_nu(z) = z^nu int_{-1}^1 e^{-z s} Pi_nu(ds).

    For nu > -1/2 the nodes are Gauss-Jacobi points absorbing the density
    (1-s^2)^{nu-1/2} / (sqrt(pi) 2^nu Gamma(nu+1/2)); for nu = -1/2
    exactly two atoms at -+1, each of mass 1/sqrt(2 pi).
    """

    nu: float
    kind: str
    nodes: np.ndarray
    weights: np.ndarray

    @classmethod
    def from_nu(cls, nu: float, npoints: int) -> "SchlafliMeasure":
        if nu < -0.5:
            raise ValueError("nu must be >= -1/2")
        if nu == -0.5:
            c = 1.0 / math.sqrt(2.0 * math.pi)
            return cls(nu=nu, kind="atomic",
                       nodes=np.array([-1.0, 1.0]), weights=np.array([c, c]))
        s, w = roots_jacobi(npoints, nu - 0.5, nu - 0.5)
        w = w * math.exp(-0.5 * math.log(math.pi) - nu * math.log(2.0) - log_gamma(nu + 0.5))
        return cls(nu=nu, kind="density", nodes=s, weights=w)

    def laplace(self, z: float) -> float:
        """int e^{-z s} Pi_nu(ds); equals I_nu(z)/z^nu for every z."""
        return float(np.sum(self.weights * np.exp(-z * self.nodes)))

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))


@dataclass(frozen=True)
class KernelConfig:
    """Quadrature controls for the (zeta, s) double integral.

    ``s_method`` selects the s-integration, one coordinate at a time:
    "gauss-jacobi" is the rule matched to the (1-s^2)^{nu-1/2} density;
    "exact" integrates s analytically (the delta_j psi bracket is affine
    in each s_i, so the s-integrals are Bessel ratios by the Schlafli
    identity).  The exact path stays accurate arbitrarily close to the
    diagonal and the reflected diagonals, where a fixed Gauss-Jacobi grid
    cannot resolve the e^{-q_+/(4 zeta)} boundary layer; the scans use it
    for that reason.  The nu = -1/2 atoms of the Schlafli measure are
    detected by exact comparison on the user-supplied alpha.
    """

    zeta_points: int = 128
    zeta_grading: float = 3.0
    s_points_per_dim: int = 48
    s_method: str = "gauss-jacobi"

    def __post_init__(self):
        if self.zeta_points < 16:
            raise ValueError("zeta_points must be >= 16")
        if self.s_points_per_dim < 8:
            raise ValueError("s_points_per_dim must be >= 8")
        if self.zeta_grading < 1.0:
            raise ValueError("zeta_grading must be >= 1")
        if self.s_method not in ("gauss-jacobi", "exact"):
            raise ValueError("s_method must be 'gauss-jacobi' or 'exact'")

    def doubled(self) -> "KernelConfig":
        return replace(self, zeta_points=2 * self.zeta_points,
                       s_points_per_dim=2 * self.s_points_per_dim)


DEFAULT_KERNEL_CONFIG = KernelConfig()


def _graded_rule(npoints: int, g: float) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes on (0,1), npoints // 2 per half,
    clustered at both endpoints by the power map v -> v^g on each half;
    returns (nodes, weights) including the Jacobian of the map."""
    v, wv = leggauss(npoints // 2)
    v = 0.5 * (v + 1.0)
    wv = 0.5 * wv
    left = 0.5 * v**g
    wl = 0.5 * g * v ** (g - 1.0) * wv
    right = 1.0 - 0.5 * v**g
    nodes = np.concatenate([left, right[::-1]])
    weights = np.concatenate([wl, wl[::-1]])
    return nodes, weights


def zeta_grid(cfg: KernelConfig) -> tuple[np.ndarray, np.ndarray]:
    """The graded zeta rule on (0,1) of a KernelConfig: (nodes, weights)."""
    return _graded_rule(cfg.zeta_points, cfg.zeta_grading)


def riesz_multiplier(n, alpha: AlphaParams, j: int) -> float:
    """m(n_j, a_j) / sqrt(2|n| + 2|alpha| + 2d)."""
    n = tuple(n)
    lam = 2.0 * sum(n) + 2.0 * alpha.abs_sum + 2.0 * alpha.dim
    return ladder_coeff(n[j], alpha[j]) / math.sqrt(lam)


def riesz_apply_spectral(c: SpectralCoeffs, j: int) -> SpectralCoeffs:
    """R_j on coefficients: shift n -> n - e_j with the spectral multiplier;
    indices with n_j = 0 are annihilated."""
    if not 0 <= j < c.dim:
        raise ValueError("coordinate j out of range")
    out: dict[tuple[int, ...], float] = {}
    for n, v in c.coeffs.items():
        if n[j] == 0:
            continue
        m = n[:j] + (n[j] - 1,) + n[j + 1:]
        out[m] = out.get(m, 0.0) + riesz_multiplier(n, c.alpha, j) * v
    return SpectralCoeffs(out, c.alpha)


def riesz_adjoint_spectral(c: SpectralCoeffs, j: int) -> SpectralCoeffs:
    """Adjoint R^_j: shift n -> n + e_j with multiplier
    m(n_j + 1, a_j) / sqrt(2|n| + 2|alpha| + 2d + 2)."""
    if not 0 <= j < c.dim:
        raise ValueError("coordinate j out of range")
    out: dict[tuple[int, ...], float] = {}
    for n, v in c.coeffs.items():
        lam = 2.0 * sum(n) + 2.0 * c.alpha.abs_sum + 2.0 * c.dim + 2.0
        m = n[:j] + (n[j] + 1,) + n[j + 1:]
        out[m] = out.get(m, 0.0) + ladder_coeff(n[j] + 1, c.alpha[j]) / math.sqrt(lam) * v
    return SpectralCoeffs(out, c.alpha)


def beta_weight(d: int, alpha_eff: float, zeta) -> np.ndarray | float:
    """beta_{d,lambda}(zeta) for lambda with |lambda| = alpha_eff:

        sqrt(2)/(2^d sqrt(pi)) ((1-z^2)/(2z))^{d+alpha_eff} (1-z^2)^{-1}
                               (log((1+z)/(1-z)))^{-1/2}.
    """
    z = np.asarray(zeta, dtype=float)
    if np.any((z <= 0.0) | (z >= 1.0)):
        raise ValueError("zeta must lie in (0,1)")
    one_m = 1.0 - z * z
    val = (math.sqrt(2.0) / (2.0**d * math.sqrt(math.pi))
           * (one_m / (2.0 * z)) ** (d + alpha_eff) / one_m
           / np.sqrt(np.log((1.0 + z) / (1.0 - z))))
    return val if val.shape else float(val)


def delta_psi(alpha: AlphaParams, eps, j: int, zeta: float, x, y, s):
    """(delta_j psi_zeta^eps)(x,y,s): the bracket

        (xy)^eps ( x_j - (x_j + y_j s_j)/(2 zeta) - zeta (x_j - y_j s_j)/2 )
        + 1{eps_j = 1} (2 a_j + 2) y_j (xy)^{eps - e_j}

    times exp(-q_+/(4 zeta) - zeta q_-/4)."""
    if not 0.0 < zeta < 1.0:
        raise ValueError("zeta must lie in (0,1)")
    eps = tuple(int(e) for e in eps)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    s = np.asarray(s, dtype=float)
    xj, yj, sj = x[..., j], y[..., j], s[..., j]
    bracket = xj - (xj + yj * sj) / (2.0 * zeta) - zeta * (xj - yj * sj) / 2.0
    out = psi_zeta(eps, zeta, x, y, s) * bracket
    if eps[j] == 1:
        em = eps[:j] + (0,) + eps[j + 1:]
        out = out + (2.0 * alpha[j] + 2.0) * yj * psi_zeta(em, zeta, x, y, s)
    return out


def _check_pairs(alpha: AlphaParams, x, y) -> tuple[np.ndarray, np.ndarray, bool]:
    X, Y, scalar = _prepare_pairs(alpha, x, y)
    dist = np.sqrt(np.sum((X - Y) ** 2, axis=1))
    if np.any(dist < NEAR_DIAGONAL):
        raise ValueError(f"kernel evaluation refused for |x-y| < {NEAR_DIAGONAL}")
    return X, Y, scalar


# Pairs x zeta nodes x s-nodes per chunk of _zeta_batch, with s-nodes
# counted as 1 on the exact route: 512 pairs at 256 zeta nodes.
ZETA_BATCH_ELEMENTS = 2**17


def _s_integrals(measures: dict | None, w: np.ndarray):
    """m(nu, k) = e^{-|w|} int s^k e^{-w s} dPi_nu(s) for k = 0, 1 on an
    array w.  With ``measures`` None (the exact route) it uses
    int e^{-w s} dPi_nu = I_nu(w)/w^nu and its w-derivative,
    m(nu, 0) = rho_nu(w) and m(nu, 1) = -w rho_{nu+1}(w) with
    rho_nu = e^{-|w|} I_nu(|w|)/|w|^nu; otherwise it sums the Gauss-Jacobi
    rule ``measures[nu]``.  Either way each order is evaluated once."""
    if measures is None:
        rho = functools.cache(lambda nu: bessel_ratio_scaled(nu, w))
        return lambda nu, k: rho(nu) if k == 0 else -w * rho(nu + 1.0)
    # |s| <= 1 on the support, so the exponent is <= 0.
    kernel = functools.cache(
        lambda nu: np.exp(-np.abs(w)[..., None] - w[..., None] * measures[nu].nodes))
    return lambda nu, k: kernel(nu) @ (measures[nu].weights * measures[nu].nodes**k)


def _zeta_batch(alpha: AlphaParams, j: int, X: np.ndarray, Y: np.ndarray,
                cfg: KernelConfig, eps=None) -> np.ndarray:
    """The (zeta, s) quadrature of one parity component ``eps``, or with
    ``eps=None`` of the sum of all 2^d of them, as one product over
    coordinates.

    The integrand factors coordinate by coordinate, so the s-integral
    against the product measure Pi_{alpha+eps} is a product of the
    one-dimensional integrals m(nu, k) of ``_s_integrals``.  With
    w_i = x_i y_i h and h = 1/sinh 2t(zeta), coordinate i != j contributes
    m(a_i, 0) at eps_i = 0 and w_i m(a_i+1, 0) at eps_i = 1, and
    coordinate j contributes

        F_j^0 = A_0 m(a_j, 0) + B_0 m(a_j, 1),
        F_j^1 = w_j (A_0 m(a_j+1, 0) + B_0 m(a_j+1, 1)) + (2a_j+2) y_j h m(a_j+1, 0),

    with A_0 = x_j (1 - 1/(2 zeta) - zeta/2) and B_0 = -y_j h, all under
    one exponent.  The sum over eps is therefore
    prod_{i != j} (m(a_i, 0) + w_i m(a_i+1, 0)) (F_j^0 + F_j^1): on the
    exact route 2d+1 Bessel arrays per (pair, zeta) instead of (d+1) 2^d.
    """
    d = alpha.dim
    parities = [(0, 1)] * d if eps is None else [(int(e),) for e in eps]
    measures = None if cfg.s_method == "exact" else {
        nu: SchlafliMeasure.from_nu(nu, cfg.s_points_per_dim)
        for nu in {alpha[i] + e for i in range(d) for e in parities[i]}}
    zeta, zw = zeta_grid(cfg)
    s_nodes = 1 if measures is None else cfg.s_points_per_dim
    chunk = max(1, ZETA_BATCH_ELEMENTS // (zeta.size * s_nodes))
    h = (1.0 - zeta * zeta) / (2.0 * zeta)  # = 1/sinh(2 t(zeta))
    log_pow = (d + alpha.abs_sum) * np.log(h)
    beta_rest = (math.sqrt(2.0) / (2.0**d * math.sqrt(math.pi)) / (1.0 - zeta * zeta)
                 / np.sqrt(np.log((1.0 + zeta) / (1.0 - zeta))))
    zfac = zw * beta_rest
    coef = 1.0 / (4.0 * zeta) + zeta / 4.0
    a0c = 1.0 - 1.0 / (2.0 * zeta) - zeta / 2.0
    out = np.empty(X.shape[0])
    for lo in range(0, X.shape[0], chunk):
        Xc = X[lo:lo + chunk]
        Yc = Y[lo:lo + chunk]
        w = (Xc * Yc)[:, :, None] * h  # (P, d, Z)
        expo = (-(np.sum(Xc * Xc, axis=1) + np.sum(Yc * Yc, axis=1))[:, None] * coef
                + np.sum(np.abs(w), axis=1) + log_pow)
        prod = np.exp(expo)
        for i in range(d):
            a, wi, par = alpha[i], w[:, i, :], parities[i]
            m = _s_integrals(measures, wi)
            fac = 0.0
            if i != j:
                if 0 in par:
                    fac = fac + m(a, 0)
                if 1 in par:
                    fac = fac + wi * m(a + 1.0, 0)
            else:
                A0 = Xc[:, j][:, None] * a0c
                B0 = -Yc[:, j][:, None] * h
                if 0 in par:
                    fac = fac + A0 * m(a, 0) + B0 * m(a, 1)
                if 1 in par:
                    m0 = m(a + 1.0, 0)
                    fac = fac + (wi * (A0 * m0 + B0 * m(a + 1.0, 1))
                                 + (2.0 * a + 2.0) * Yc[:, j][:, None] * h * m0)
            prod *= fac
        out[lo:lo + chunk] = prod @ zfac
    return out


def riesz_kernel_component(alpha: AlphaParams, eps, j: int, x, y,
                           cfg: KernelConfig = DEFAULT_KERNEL_CONFIG):
    """R_j^{alpha,eps}(x, y) by the (zeta, s) quadrature."""
    X, Y, scalar = _check_pairs(alpha, x, y)
    vals = _zeta_batch(alpha, j, X, Y, cfg, eps)
    return float(vals[0]) if scalar else vals


def riesz_kernel_components(alpha: AlphaParams, j: int, x, y,
                            cfg: KernelConfig = DEFAULT_KERNEL_CONFIG) -> dict:
    """All parity components at once: {eps: values}."""
    X, Y, scalar = _check_pairs(alpha, x, y)
    out = {}
    for eps in all_parities(alpha.dim):
        vals = _zeta_batch(alpha, j, X, Y, cfg, eps)
        out[eps] = float(vals[0]) if scalar else vals
    return out


def riesz_kernel(alpha: AlphaParams, j: int, x, y,
                 cfg: KernelConfig = DEFAULT_KERNEL_CONFIG):
    """Full kernel R_j^alpha(x, y) = sum over the 2^d parity components,
    evaluated as one product over coordinates."""
    X, Y, scalar = _check_pairs(alpha, x, y)
    vals = _zeta_batch(alpha, j, X, Y, cfg)
    return float(vals[0]) if scalar else vals


def _delta_heat(alpha: AlphaParams, j: int, t: float, x: np.ndarray, y: np.ndarray) -> float:
    """delta_{j,x} G_t^alpha(x,y), analytically from the closed form.

    With z_i = x_i y_i / sinh 2t, b = 1/sinh 2t, c = coth 2t and
    rho_nu = I_nu(z)/z^nu (evaluated scaled), the j-th factor of the
    product kernel differentiates to

        (1-c) x rho_a + b^2 x y^2 rho_{a+1}
        + b ((1-c) x^2 + 2a + 2) y rho_{a+1} + b^3 x^2 y^3 rho_{a+2},

    all under the shared global exponent.
    """
    b, c, (z,), (expo,) = _kernel_prelude(alpha, t, x[None], y[None])
    prod_rest = 1.0
    for i, a in enumerate(alpha):
        if i == j:
            continue
        comb = bessel_ratio_scaled(a, z[i]) + z[i] * bessel_ratio_scaled(a + 1.0, z[i])
        prod_rest *= max(comb, 0.0)  # positive by Soni; clamp cancellation noise
    a = alpha[j]
    xj, yj, zj = x[j], y[j], z[j]
    r0 = bessel_ratio_scaled(a, zj)
    r1 = bessel_ratio_scaled(a + 1.0, zj)
    r2 = bessel_ratio_scaled(a + 2.0, zj)
    dj = ((1.0 - c) * xj * r0
          + b * b * xj * yj * yj * r1
          + b * ((1.0 - c) * xj * xj + 2.0 * a + 2.0) * yj * r1
          + b**3 * xj * xj * yj**3 * r2)
    return math.exp(expo) * prod_rest * dj


def riesz_kernel_direct(alpha: AlphaParams, j: int, x, y, epsrel: float = 1e-10) -> float:
    """Oracle route: pi^{-1/2} int_0^inf delta_j G_t(x,y) t^{-1/2} dt.

    Split at t = 1: the singular end runs through the zeta substitution
    t = atanh(zeta) with adaptive quadrature, the tail (where the
    integrand decays like e^{-t (2|alpha| + 2d + 2)}) directly in t.
    """
    X, Y, _ = _check_pairs(alpha, np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    xv, yv = X[0], Y[0]

    def f_zeta(zeta: float) -> float:
        t = t_of_zeta(zeta)
        return _delta_heat(alpha, j, t, xv, yv) / math.sqrt(t) / (1.0 - zeta * zeta)

    def f_t(t: float) -> float:
        return _delta_heat(alpha, j, t, xv, yv) / math.sqrt(t)

    z1 = zeta_of_t(1.0)
    v1, _ = quad(f_zeta, 0.0, z1, epsrel=epsrel, epsabs=1e-300, limit=200)
    v2, _ = quad(f_t, 1.0, 30.0, epsrel=epsrel, epsabs=1e-300, limit=200)
    return (v1 + v2) / math.sqrt(math.pi)


def _bump_profile(r: np.ndarray, lo: float, hi: float, amplitude: float) -> np.ndarray:
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    u = (r - mid) / half
    out = np.zeros_like(r)
    inside = np.abs(u) < 1.0
    out[inside] = amplitude * math.e * np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return out


@dataclass(frozen=True)
class IntervalBump:
    """Smooth bump supported on [r_lo, r_hi] with 0 < r_lo: compactly
    supported away from the reflection hyperplane, the one-dimensional
    instance of the class the dual-pairing identity is stated for."""

    r_lo: float
    r_hi: float
    amplitude: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.r_lo < self.r_hi:
            raise ValueError("need 0 < r_lo < r_hi")

    @property
    def support_intervals(self) -> tuple[tuple[float, float], ...]:
        return ((self.r_lo, self.r_hi),)

    def __call__(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return _bump_profile(pts[:, 0], self.r_lo, self.r_hi, self.amplitude)

    def overlaps(self, other) -> bool:
        return _supports_overlap(self, other)

    def separation(self, other) -> float:
        return _support_separation(self, other)


@dataclass(frozen=True)
class AnnularBump:
    """Smooth Z2^d-invariant bump supported on the annulus r_lo <= |x| <= r_hi.

    Radial (hence invariant under every coordinate sign flip) and C^inf.
    Note that R_j maps invariant functions to functions odd in x_j, so the
    dual pairing of two such bumps vanishes identically; the substantive
    two-route comparison uses IntervalBump instead.
    """

    r_lo: float
    r_hi: float
    amplitude: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.r_lo < self.r_hi:
            raise ValueError("need 0 <= r_lo < r_hi")

    @property
    def support_intervals(self) -> tuple[tuple[float, float], ...]:
        return ((-self.r_hi, -self.r_lo), (self.r_lo, self.r_hi))

    def __call__(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        r = np.sqrt(np.sum(pts * pts, axis=1))
        return _bump_profile(r, self.r_lo, self.r_hi, self.amplitude)

    def overlaps(self, other) -> bool:
        return _supports_overlap(self, other)

    def separation(self, other) -> float:
        return _support_separation(self, other)


def _supports_overlap(f, g) -> bool:
    for (a, b) in f.support_intervals:
        for (c, d) in g.support_intervals:
            if a < d and c < b:
                return True
    return False


def _support_separation(f, g) -> float:
    best = math.inf
    for (a, b) in f.support_intervals:
        for (c, d) in g.support_intervals:
            best = min(best, max(c - b, a - d))
    return best


def dual_pairing_check(f, g, j: int, alpha: AlphaParams,
                       rule: QuadratureRule, cfg: KernelConfig = DEFAULT_KERNEL_CONFIG,
                       max_degree: int = 900, leg_points: int = 48) -> tuple[float, float, float]:
    """Compare <R_j f, g>_alpha computed spectrally against the double
    integral of the kernel over the (disjoint) supports.

    One-dimensional harness; ``f`` and ``g`` are smooth compactly
    supported bumps exposing ``support_intervals`` (IntervalBump for the
    one-sided class the identity is stated for, AnnularBump for invariant
    bumps, whose pairing vanishes by parity).  The spectral series gets a
    smooth high-order cutoff (exp(-36 u^8) in u = |n|/max_degree): the
    bumps' coefficients decay only like exp(-c n^{1/4}), and a sharp
    truncation would oscillate around the limit at the 1e-3 level.
    Returns (residual, spectral, integral).
    """
    if alpha.dim != 1:
        raise NotImplementedError("the dual-pairing harness is one-dimensional")
    if _supports_overlap(f, g):
        raise ValueError("bumps must have disjoint supports")
    cf = project(f, alpha, max_degree, rule)
    cg = project(g, alpha, max_degree, rule)
    rcf = riesz_apply_spectral(cf, j)
    spectral = sum(v * cg.coeffs.get(n, 0.0) * math.exp(-36.0 * (sum(n) / max_degree) ** 8)
                   for n, v in rcf.coeffs.items())

    sx, wx = leggauss(leg_points)
    a = alpha[0]
    integral = 0.0
    for (glo, ghi) in g.support_intervals:
        xg = 0.5 * (ghi - glo) * sx + 0.5 * (ghi + glo)
        wxg = 0.5 * (ghi - glo) * wx
        for (flo, fhi) in f.support_intervals:
            yg = 0.5 * (fhi - flo) * sx + 0.5 * (fhi + flo)
            wyg = 0.5 * (fhi - flo) * wx
            XX, YY = np.meshgrid(xg, yg, indexing="ij")
            ker = riesz_kernel(alpha, j, XX.ravel()[:, None], YY.ravel()[:, None], cfg)
            ker = ker.reshape(XX.shape)
            wy_full = wyg * f(yg[:, None]) * np.abs(yg) ** (2 * a + 1)
            wx_full = wxg * g(xg[:, None]) * np.abs(xg) ** (2 * a + 1)
            integral += float(wx_full @ ker @ wy_full)
    return abs(spectral - integral), float(spectral), integral


def apriori_identity_check(n, i: int, j: int, alpha: AlphaParams) -> float:
    """Residual of delta_i^* delta_j h_n = R^_i R_j L h_n at coefficient level.

    The left side uses the ladder coefficients directly; the right side
    composes the three spectral operators on the unit vector at n.
    """
    n = MultiIndex(tuple(n))
    lhs: dict[tuple[int, ...], float] = {}
    if n[j] >= 1:
        down = n.shift(j, -1)
        coeff = ladder_coeff(n[j], alpha[j]) * ladder_coeff(down[i] + 1, alpha[i])
        lhs[down.shift(i, +1).entries] = coeff
    unit = SpectralCoeffs({n.entries: 1.0}, alpha)
    lam = 2.0 * n.total + 2.0 * alpha.abs_sum + 2.0 * alpha.dim
    scaled = SpectralCoeffs({k: lam * v for k, v in unit.coeffs.items()}, alpha)
    rhs = riesz_adjoint_spectral(riesz_apply_spectral(scaled, j), i)
    keys = set(lhs) | set(rhs.coeffs)
    return max((abs(lhs.get(k, 0.0) - rhs.coeffs.get(k, 0.0)) for k in keys), default=0.0)


def star_identity_check(f: SpectralCoeffs, n, j: int, alpha: AlphaParams) -> float:
    """Residual of <R_j f, h_{n-e_j}> = m(n_j,a_j)/sqrt(2|n|+2|alpha|+2d) <f, h_n>."""
    n = MultiIndex(tuple(n))
    rf = riesz_apply_spectral(f, j)
    if n[j] == 0:
        # h_{n-e_j} is the null function; both sides vanish by convention.
        return 0.0
    lhs = rf.coeffs.get(n.shift(j, -1).entries, 0.0)
    rhs = riesz_multiplier(n.entries, alpha, j) * f.coeffs.get(n.entries, 0.0)
    return abs(lhs - rhs)
