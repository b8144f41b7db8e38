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

so the evaluation cannot overflow for small t or large arguments.  Where
z_i < 0 the bracket's two Bessel terms cancel, and it is Kummer's function
instead, summed by the same series core in ``special``.  The prelude and
this parity factor, with its derivative, are also every Riesz kernel
route's (``riesz._delta_heat``).  A kernel column on a tensor rule is an
outer product of 1-d columns (d n pairs, not n^d), with stacks of points
and times in one call per axis; ``verify``'s heat checks call it per axis
on 1-d rules.  The parity components G^{alpha,eps} (eps in {0,1}^d) and
the paper's (zeta, s) integrand, an oracle for the closed form, live here.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .hermite import AlphaParams, eigenvalue, hermite_fn_all_1d
from .quadrature import QuadratureRule, SpectralCoeffs, _evaluate
from .special import _kummer_scaled, bessel_ratio_scaled

__all__ = [
    "q_plus_minus",
    "heat_apply_spectral",
    "heat_kernel",
    "heat_kernel_column",
    "heat_kernel_component",
    "heat_kernel_series",
    "heat_kernel_zeta",
    "psi_zeta",
    "heat_apply_kernel",
    "maximal_empirical",
    "all_parities",
]


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
    """The 2^d parity vectors eps in {0,1}^d, in lexicographic order."""
    return list(itertools.product((0, 1), repeat=d))


def _prepare_pairs(alpha: AlphaParams, x, y) -> tuple[np.ndarray, np.ndarray, bool]:
    X = np.asarray(x, dtype=float)
    Y = np.asarray(y, dtype=float)
    scalar = X.ndim == 1
    X = np.atleast_2d(X)
    Y = np.atleast_2d(Y)
    if X.shape != Y.shape or X.shape[1] != alpha.dim:
        raise ValueError("x and y must be points (or stacks of points) in R^d")
    bad = ~(np.isfinite(X).all(axis=1) & np.isfinite(Y).all(axis=1))
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"pair {k} has a non-finite coordinate: x = {X[k]}, y = {Y[k]}")
    return X, Y, scalar


def _kernel_prelude(alpha: AlphaParams, t, X: np.ndarray, Y: np.ndarray):
    """b = 1/sinh 2t, z_i = x_i y_i b and the global exponent
    -coth(2t) (|x|^2+|y|^2)/2 + sum_i |z_i| - d log 2 - (d+|alpha|) log sinh 2t
    on (P, d) stacks; an array of t adds a leading axis.  The exponent is
    formed as -tanh(t) (|x|^2+|y|^2)/2 - b sum_i (|x_i| - |y_i|)^2/2 and
    b = 2e^{-2t}/(1 - e^{-4t}) with expm1, so nothing cancels or rounds away."""
    t = np.asarray(t, dtype=float)[..., None]
    ok = (t > 0) & (t < math.inf)
    if not ok.all():
        raise ValueError(f"t must be finite and positive, got {t[~ok][0]}")
    one_m_e4 = -np.expm1(-4.0 * t)
    b = 2.0 * np.exp(-2.0 * t) / one_m_e4
    z = X * Y * b[..., None]
    expo = (-0.5 * np.tanh(t) * (np.sum(X * X, axis=1) + np.sum(Y * Y, axis=1))
            - 0.5 * b * np.sum((np.abs(X) - np.abs(Y)) ** 2, axis=1) - alpha.dim * math.log(2.0)
            - (alpha.dim + alpha.abs_sum) * (2.0 * t - math.log(2.0) + np.log(one_m_e4)))
    return b, z, expo


def _parity_sum(a: float, z: np.ndarray, slope: bool = False):
    """P(z) = e^{-|z|} (rho_a(z) + z rho_{a+1}(z)), one coordinate's factor
    summed over both parities; with ``slope`` also P'(z) (from the right at
    0), for z >= 0 -(2a+1) e^{-z} rho_{a+1}(z) by the Bessel recurrence.
    For z < 0 the two terms cancel, and with k = a + 1/2, x = 2|z| it is
    e^{-x} M(k, 2k+1, x)/(Gamma(a+1) 2^a), the rank-one Dunkl kernel
    E_k(z) = e^z M(k, 2k+1, -2z) after Kummer's transformation (DLMF
    13.2.39); P' is 2(k+1)/(2k+1) times it at b = 2k+2 (DLMF 13.3.15).
    At a = -1/2 (k = 0) the kernel is e^z, so P = sqrt(2/pi) e^{2 min(z, 0)}
    and P' = 2 sqrt(2/pi) e^{2z} below 0, 0 above, with no series."""
    if a == -0.5:
        out = math.sqrt(2.0 / math.pi) * np.exp(2.0 * np.minimum(z, 0.0))
        return (out, np.where(z < 0.0, 2.0 * out, 0.0)) if slope else out
    out, neg = np.empty(z.shape), z < 0.0
    zp, x = z[~neg], -2.0 * z[neg]
    r1 = bessel_ratio_scaled(a + 1.0, zp)
    out[~neg] = bessel_ratio_scaled(a, zp) + zp * r1
    c, k = math.exp(-math.lgamma(a + 1.0) - a * math.log(2.0)), a + 0.5
    out[neg] = c * _kummer_scaled(k, 2.0 * k + 1.0, x)
    if not slope:
        return out
    der = np.empty(z.shape)
    der[~neg] = -(2.0 * a + 1.0) * r1
    der[neg] = c * 2.0 * (k + 1.0) / (2.0 * k + 1.0) * _kummer_scaled(k, 2.0 * k + 2.0, x)
    return out, der


def _heat_values(alpha: AlphaParams, t, X: np.ndarray, Y: np.ndarray, factor=_parity_sum):
    """(G_t(x, y), 1/sinh 2t) on (P, d) stacks; an array of t adds a leading
    axis.  ``factor(a, z)`` is each coordinate's parity factor: ``_parity_sum``
    or a Schlafli rule's (``riesz.SchlafliMeasure.parity_factor``)."""
    b, z, expo = _kernel_prelude(alpha, t, X, Y)
    return np.exp(expo) * np.prod([factor(a, z[..., i]) for i, a in enumerate(alpha)],
                                  axis=0), b


def heat_kernel(alpha: AlphaParams, t, x, y):
    """G_t^alpha(x, y); accepts single points or (P, d) stacks, and an array
    of t, whose shape goes in front."""
    X, Y, scalar = _prepare_pairs(alpha, x, y)
    out = _heat_values(alpha, t, X, Y)[0]
    out = out[..., 0] if scalar else out
    return out if out.ndim else float(out)


def heat_kernel_column(t, x, rule: QuadratureRule) -> np.ndarray:
    """G_t(x, y_k) at the M nodes y_k of the tensor rule ``rule``: the outer
    product of one 1-d column per axis, first axis slowest (``tensor_rule``).

    ``x`` is a point in R^d or a (P, d) stack of them and ``t`` a time or an
    array of T times: every (t, point, node) of an axis is one
    ``_heat_values`` call, and the result has shape (T, P, M), without the
    T axis for a scalar t and without the P axis for a single point."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != rule.dim:
        raise ValueError(f"x must be a point in R^{rule.dim} or a stack of them, "
                         f"got shape {x.shape}")
    X = x.reshape(-1, rule.dim)
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if bad.size:
        raise ValueError(f"point {bad[0]} has a non-finite coordinate: x = {X[bad[0]]}")
    cols = [_heat_values(AlphaParams((ax.alpha_j,)), t, np.repeat(xi, ax.nodes.size)[:, None],
                         np.tile(ax.nodes, xi.size)[:, None])[0].reshape(t.shape + (xi.size, -1))
            for xi, ax in zip(X.T, rule.axes)]
    out = functools.reduce(
        lambda u, v: (u[..., :, None] * v[..., None, :]).reshape(*u.shape[:-1], -1), cols)
    return out.reshape(t.shape + x.shape[:-1] + (-1,))


def heat_kernel_component(alpha: AlphaParams, eps, t: float, x, y):
    """Parity component G_t^{alpha,eps}(x, y)."""
    eps = tuple(int(e) for e in eps)
    if len(eps) != alpha.dim or any(e not in (0, 1) for e in eps):
        raise ValueError("eps must be a vector over {0,1} of matching dimension")
    X, Y, scalar = _prepare_pairs(alpha, x, y)
    _, z, expo = _kernel_prelude(alpha, t, X, Y)
    out = np.exp(expo) * np.prod([z[:, i] ** e * bessel_ratio_scaled(a + e, z[:, i])
                                  for i, (a, e) in enumerate(zip(alpha, eps))], axis=0)
    return float(out[0]) if scalar else out


def heat_kernel_series(alpha: AlphaParams, t: float, x, y, max_total_degree: int):
    """Spectral-series kernel sum_{|n| <= M} e^{-t lambda_n} h_n(x) h_n(y).

    The truncation oracle for the closed form; the omitted tail is bounded
    by e^{-2 t (M+1)} relative to the lowest retained band.
    """
    if not 0 < t < math.inf:
        raise ValueError(f"t must be finite and positive, got {t}")
    X, Y, scalar = _prepare_pairs(alpha, x, y)
    M = max_total_degree
    # Per-coordinate products h_n(x_i) h_n(y_i), (M+1, P), folded by total
    # degree (a truncated Cauchy product over the degree axis).
    conv, *rest = [hermite_fn_all_1d(M, a, X[:, i]) * hermite_fn_all_1d(M, a, Y[:, i])
                   for i, a in enumerate(alpha)]
    for e in rest:
        conv, prev = np.zeros_like(e), conv
        for k in range(M + 1):  # degree m adds its terms in the order of k
            conv[k:] += prev[k] * e[:M + 1 - k]
    # lambda_n depends on |n| alone: take n = (m, 0, ..., 0) at degree m.
    lam = eigenvalue(np.outer(np.arange(M + 1), np.eye(1, alpha.dim, dtype=int)), alpha)
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
    """Scale each coefficient c_n by e^{-t lambda_n}, lambda_n = ``eigenvalue``."""
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be finite and >= 0, got {t}")
    lam = eigenvalue(c.n, c.alpha).tolist()
    scaled = [v * math.exp(-t * lam_n) for v, lam_n in zip(c.values.tolist(), lam)]
    return SpectralCoeffs(c.n, scaled, c.alpha)


def heat_apply_kernel(f, t, x, rule: QuadratureRule):
    """(T_t f)(x) = sum_i w_i G_t(x, y_i) f(y_i) through the quadrature rule,
    with ``t`` and ``x`` as in ``heat_kernel_column``: an array of times and a
    stack of points are one column call, and their axes lead the result.
    For a sequence of functions ``f``, their values are its last axis."""
    wg = rule.weights * heat_kernel_column(t, x, rule)
    if callable(f):
        out = np.sum(wg * _evaluate(f, rule.nodes), axis=-1)
        return out if out.ndim else float(out)
    return np.stack([np.sum(wg * _evaluate(fk, rule.nodes), axis=-1) for fk in f], axis=-1)


def maximal_empirical(f, x, t_grid, rule: QuadratureRule) -> float:
    """max over the t-grid of |T_t f(x)|: a desk-scale stand-in for T_*, from
    one kernel column call over the whole grid."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0:
        raise ValueError("t_grid must be nonempty")
    if np.any(t_grid <= 0):
        raise ValueError("t_grid entries must be positive")
    return float(np.max(np.abs(heat_apply_kernel(f, t_grid, x, rule))))
