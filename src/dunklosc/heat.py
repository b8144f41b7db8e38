"""Heat semigroup of the Z2^d Dunkl harmonic oscillator.

Two independent representations are provided: the spectral series acting
on expansion coefficients, and the closed-form kernel

    G_t(x, y) = prod_i (2 sinh 2t)^{-1}
                exp(-coth(2t)(x_i^2+y_i^2)/2)
                [ I_{a_i}(z_i)/(x_i y_i)^{a_i} + x_i y_i I_{a_i+1}(z_i)/(x_i y_i)^{a_i+1} ],

with z_i = x_i y_i / sinh 2t.  Every Bessel factor is evaluated through
the entire ratio I_nu(z)/z^nu in exponentially scaled form, with the
global exponent assembled once:

    exp( -coth(2t) (|x|^2+|y|^2)/2 + sum_i |z_i| ) <= 1,

so the evaluation cannot overflow for small t or large arguments.  The
parity components G^{alpha,eps} (eps in {0,1}^d) and the (zeta, s)
integrand shared with the Riesz kernels live here as well.
"""

from __future__ import annotations

import math

import numpy as np

from .hermite import AlphaParams, hermite_fn_all_1d
from .quadrature import QuadratureRule, SpectralCoeffs, _evaluate
from .special import bessel_ratio_scaled

__all__ = [
    "t_of_zeta",
    "zeta_of_t",
    "q_plus_minus",
    "heat_apply_spectral",
    "heat_kernel_1d",
    "heat_kernel",
    "heat_kernel_component",
    "heat_kernel_series",
    "heat_kernel_zeta",
    "psi_zeta",
    "heat_apply_kernel",
    "maximal_empirical",
    "all_parities",
]


def t_of_zeta(zeta: float) -> float:
    """t = (1/2) log((1+zeta)/(1-zeta)) for zeta in (0,1)."""
    if not 0.0 < zeta < 1.0:
        raise ValueError(f"zeta must lie in (0,1), got {zeta}")
    return math.atanh(zeta)


def zeta_of_t(t: float) -> float:
    """Inverse map zeta = tanh t for t > 0."""
    if t <= 0.0:
        raise ValueError(f"t must be positive, got {t}")
    return math.tanh(t)


def q_plus_minus(x, y, s):
    """q_± = |x|^2 + |y|^2 ± 2 sum_i x_i y_i s_i, broadcast over leading axes."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    s = np.asarray(s, dtype=float)
    if x.shape[-1] != y.shape[-1] or x.shape[-1] != s.shape[-1]:
        raise ValueError("x, y, s must share their last (coordinate) dimension")
    base = np.sum(x * x, axis=-1) + np.sum(y * y, axis=-1)
    cross = 2.0 * np.sum(x * y * s, axis=-1)
    return base + cross, base - cross


def all_parities(d: int) -> list[tuple[int, ...]]:
    """The 2^d parity vectors eps in {0,1}^d."""
    out = [()]
    for _ in range(d):
        out = [e + (b,) for e in out for b in (0, 1)]
    return sorted(out)


def _prepare_pairs(alpha: AlphaParams, x, y) -> tuple[np.ndarray, np.ndarray, bool]:
    X = np.asarray(x, dtype=float)
    Y = np.asarray(y, dtype=float)
    scalar = X.ndim == 1
    X = np.atleast_2d(X)
    Y = np.atleast_2d(Y)
    if X.shape != Y.shape or X.shape[1] != alpha.dim:
        raise ValueError("x and y must be points (or stacks of points) in R^d")
    return X, Y, scalar


def _kernel_prelude(alpha: AlphaParams, t: float, X: np.ndarray, Y: np.ndarray):
    """b = 1/sinh 2t, c = coth 2t, z_i = x_i y_i b and the global exponent
    -c (|x|^2+|y|^2)/2 + sum_i |z_i| - d log 2 - (d+|alpha|) log sinh 2t,
    shared by every closed-form kernel on (P, d) stacks."""
    if t <= 0:
        raise ValueError("t must be positive")
    # log sinh 2t and coth 2t, stable for both tiny and large t.
    if t > 10.0:
        e = math.exp(-4.0 * t)
        ls = 2.0 * t - math.log(2.0) + math.log1p(-e)
        c = 1.0 + 2.0 * e / (1.0 - e)
    else:
        ls = math.log(math.sinh(2.0 * t))
        c = math.cosh(2.0 * t) / math.sinh(2.0 * t)
    b = math.exp(-ls)
    z = X * Y * b
    expo = (-0.5 * c * (np.sum(X * X, axis=1) + np.sum(Y * Y, axis=1)) + np.sum(np.abs(z), axis=1)
            - alpha.dim * math.log(2.0) - (alpha.dim + alpha.abs_sum) * ls)
    return b, c, z, expo


def heat_kernel(alpha: AlphaParams, t: float, x, y):
    """G_t^alpha(x, y); accepts single points or (P, d) stacks."""
    X, Y, scalar = _prepare_pairs(alpha, x, y)
    _, _, z, expo = _kernel_prelude(alpha, t, X, Y)
    factor = np.ones(X.shape[0])
    for i, a in enumerate(alpha):
        zi = z[:, i]
        comb = bessel_ratio_scaled(a, zi) + zi * bessel_ratio_scaled(a + 1.0, zi)
        # For z < 0 the two terms cancel down to e^{-2|z|}; once that is below
        # the rounding noise of the cancellation the sign is garbage, but the
        # combination is positive by Soni's inequality, so clamp at zero.
        factor *= np.maximum(comb, 0.0)
    out = np.exp(expo) * factor
    return float(out[0]) if scalar else out


def heat_kernel_1d(a: float, t: float, x: float, y: float) -> float:
    """One-dimensional closed-form kernel (the d = 1 case of heat_kernel)."""
    return heat_kernel(AlphaParams((a,)), t, np.array([x]), np.array([y]))


def heat_kernel_component(alpha: AlphaParams, eps, t: float, x, y):
    """Parity component G_t^{alpha,eps}(x, y)."""
    eps = tuple(int(e) for e in eps)
    if len(eps) != alpha.dim or any(e not in (0, 1) for e in eps):
        raise ValueError("eps must be a vector over {0,1} of matching dimension")
    X, Y, scalar = _prepare_pairs(alpha, x, y)
    _, _, z, expo = _kernel_prelude(alpha, t, X, Y)
    factor = np.ones(X.shape[0])
    for i, a in enumerate(alpha):
        factor *= z[:, i] ** eps[i] * bessel_ratio_scaled(a + eps[i], z[:, i])
    out = np.exp(expo) * factor
    return float(out[0]) if scalar else out


def heat_kernel_series(alpha: AlphaParams, t: float, x, y, max_total_degree: int):
    """Spectral-series kernel sum_{|n| <= M} e^{-t lambda_n} h_n(x) h_n(y).

    The truncation oracle for the closed form; the omitted tail is bounded
    by e^{-2 t (M+1)} relative to the lowest retained band.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    X, Y, scalar = _prepare_pairs(alpha, x, y)
    d = alpha.dim
    M = max_total_degree
    # Per-coordinate products h_n(x_i) h_n(y_i), folded by total degree.
    conv = None
    for i, a in enumerate(alpha):
        tx = hermite_fn_all_1d(M, a, X[:, i])
        ty = hermite_fn_all_1d(M, a, Y[:, i])
        e = tx * ty  # (M+1, P)
        if conv is None:
            conv = e
        else:
            new = np.zeros_like(conv)
            for m in range(M + 1):
                for k in range(m + 1):
                    new[m] += conv[k] * e[m - k]
            conv = new
    degrees = np.arange(M + 1)
    lam = 2.0 * degrees + 2.0 * alpha.abs_sum + 2.0 * d
    out = np.exp(-t * lam) @ conv
    return float(out[0]) if scalar else out


def psi_zeta(eps, zeta: float, x, y, s):
    """psi_zeta^eps(x,y,s) = (xy)^eps exp(-q_+/(4 zeta) - zeta q_-/4)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    qp, qm = q_plus_minus(x, y, s)
    xy_eps = np.prod((x * y) ** np.array(eps, dtype=float), axis=-1)
    return xy_eps * np.exp(-qp / (4.0 * zeta) - zeta * qm / 4.0)


def heat_kernel_zeta(alpha: AlphaParams, eps, zeta: float, x, y, s):
    """Integrand of the symmetric (zeta, s) representation of G^{alpha,eps}:
    2^{-d} ((1-zeta^2)/(2 zeta))^{d+|alpha|+|eps|} psi_zeta^eps(x, y, s),
    before integration against the product Schlafli measure in s.
    """
    if not 0.0 < zeta < 1.0:
        raise ValueError("zeta must lie in (0,1)")
    eps = tuple(int(e) for e in eps)
    power = alpha.dim + alpha.abs_sum + sum(eps)
    pref = 2.0**-alpha.dim * ((1.0 - zeta * zeta) / (2.0 * zeta)) ** power
    return pref * psi_zeta(eps, zeta, x, y, s)


def heat_apply_spectral(c: SpectralCoeffs, t: float) -> SpectralCoeffs:
    """Scale each coefficient by e^{-t (2|n| + 2|alpha| + 2d)}."""
    if t < 0:
        raise ValueError("t must be >= 0")
    base = 2.0 * c.alpha.abs_sum + 2.0 * c.dim
    out = {n: v * math.exp(-t * (2.0 * sum(n) + base)) for n, v in c.coeffs.items()}
    return SpectralCoeffs(out, c.alpha)


def heat_apply_kernel(f, t: float, x, rule: QuadratureRule) -> float:
    """(T_t f)(x) = sum_i w_i G_t(x, y_i) f(y_i) through the quadrature rule."""
    if t <= 0:
        raise ValueError("t must be positive")
    x = np.asarray(x, dtype=float).reshape(-1)
    X = np.broadcast_to(x, rule.nodes.shape)
    g = heat_kernel(rule.alpha, t, X, rule.nodes)
    fv = _evaluate(f, rule.nodes)
    return float(np.sum(rule.weights * g * fv))


def maximal_empirical(f, x, t_grid, rule: QuadratureRule) -> float:
    """max over the t-grid of |T_t f(x)|: a desk-scale stand-in for T_*."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0:
        raise ValueError("t_grid must be nonempty")
    if np.any(t_grid <= 0):
        raise ValueError("t_grid entries must be positive")
    return max(abs(heat_apply_kernel(f, float(t), x, rule)) for t in t_grid)
