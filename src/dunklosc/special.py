"""Special functions: log-gamma, Laguerre polynomials, and in
overflow-safe (exponentially scaled) form the modified Bessel functions of
the first kind and Kummer's function.

Everything here is a pure function of its arguments.  Every series goes
through one core: a sum of positive terms c0 sum_n (p+1)_n/(q+1)_n u^n/n!,
term ratio (p + n)/((q + n) n), up to a cutoff of each caller's (0F1 for
Bessel with no p and q = nu, 1F1(k; b) for Kummer with p = k - 1 and
q = b - 1), and the large-argument expansion 2F0(p, q;; w), unshifted, with
optimal truncation above it, split by ``_by_regime``.  Each public
function only adds its prefactor to the two branches.

Both branches are polynomials evaluated by Horner's rule, with a term
count fixed once per call by a scalar loop at the element that needs the
most terms.  The series' coefficients are its terms at the largest
argument, scaled by a power of two, as unscaled ones underflow at large
orders.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "log_gamma",
    "laguerre",
    "laguerre_scaled",
    "laguerre_deriv",
    "bessel_i_scaled",
    "bessel_ratio",
    "bessel_ratio_scaled",
]


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if x <= 0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def laguerre_scaled(n: int, a: float, y):
    """(c, k) with L_n^a(y) = c 2^k, by the upward three-term recurrence
    rescaled by exact powers of two, so neither part overflows at any
    degree.  Stable in the regime needed here (n up to a few thousand,
    a > -1).  Elementwise on an array y, each element rescaled on its own
    (c and k then arrays, bit for bit the scalar values); a scalar y gives
    (float, int).
    """
    if n < 0:
        raise ValueError("degree n must be >= 0")
    if a <= -1:
        raise ValueError("order a must be > -1")
    y = np.asarray(y, dtype=float)
    u = y.reshape(-1)
    cur, k = np.ones(u.shape), np.zeros(u.shape, dtype=int)
    if n:
        prev, cur = cur, 1.0 + a - u
    for m in range(1, n):
        prev, cur = cur, ((2 * m + a + 1 - u) * cur - (m + a) * prev) / (m + 1)
        big = np.abs(cur) > 2.0**500
        if big.any():
            prev[big], cur[big] = np.ldexp(prev[big], -500), np.ldexp(cur[big], -500)
            k[big] += 500
    if y.ndim == 0:
        return float(cur[0]), int(k[0])
    return cur.reshape(y.shape), k.reshape(y.shape)


def laguerre(n: int, a: float, y):
    """Laguerre polynomial L_n^a(y), elementwise on arrays; a scalar y
    raises OverflowError beyond the double range, an array element is inf
    there (see :func:`laguerre_scaled`)."""
    c, k = laguerre_scaled(n, a, y)
    return np.ldexp(c, k) if np.ndim(c) else math.ldexp(c, k)


def laguerre_deriv(n: int, a: float, y):
    """d/dy L_n^a(y), via d/dy L_n^a = -L_{n-1}^{a+1}; zero for n = 0."""
    if n == 0:
        return np.zeros(np.shape(y)) if np.ndim(y) else 0.0
    return -laguerre(n - 1, a + 1.0, y)


def _horner(coefs: list[float], u: np.ndarray) -> np.ndarray:
    # sum_k coefs[k] u^k, in place
    out = np.full(u.shape, coefs[-1])
    for c in reversed(coefs[:-1]):
        out *= u
        out += c
    return out


def _positive_series(c0: float, p: float | None, q: float, u: np.ndarray) -> np.ndarray:
    # c0 sum_n (p+1)_n / (q+1)_n u^n / n! for u >= 0, all terms positive: the
    # term ratio is (p + n) / ((q + n) n), so Bessel's order enters exactly,
    # and no p is 0F1, (p+1)_n = n!.  The terms t_n at u_max = max u, up to
    # the first t_n <= 1e-18 sum, fix the length; u / 2^e, 2^e <= u_max <
    # 2^{e+1}, is exact and keeps the coefficients <= t_n, which underflow
    # unscaled at large orders.
    u_max = float(u.max(initial=0.0))
    scale = math.ldexp(1.0, math.frexp(u_max)[1] - 1)
    t = total = c0
    coefs = [c0]
    while t > 1e-18 * total:
        n = len(coefs)
        r = (1.0 if p is None else p + n) / ((q + n) * n)
        t *= r * u_max
        total += t
        coefs.append(coefs[-1] * r * scale)
    return _horner(coefs, u * (1.0 / scale))


def _expansion_2f0(p: float, q: float, w: np.ndarray) -> np.ndarray:
    # The asymptotic series 2F0(p, q;; w) = sum_n (p)_n (q)_n w^n / n!, w > 0.
    # Its terms t_n at w_max = max w fix the length: up to |t_n| <= 1e-18 or
    # before the first that does not decrease (optimal truncation where it
    # binds; every smaller w is short of its optimum).  Exact where p or q
    # is a nonpositive integer.
    w_max = float(np.fmax.reduce(w))  # skips NaN, which must not spoil the batch
    coefs, t = [1.0], 1.0
    while abs(t) > 1e-18:
        n = len(coefs)
        step = (p + n - 1) * (q + n - 1) / n
        if abs(step) * w_max >= 1.0:  # |t_n| >= |t_{n-1}|
            break
        t *= step * w_max
        coefs.append(coefs[-1] * step)
    return _horner(coefs, w)


def _by_regime(z: np.ndarray, cutoff: float, series, asymptotic):
    # series(z) where z <= cutoff, asymptotic(z) elsewhere (NaN included)
    small = z <= cutoff
    if small.all():
        out = series(z)
    elif not small.any():
        out = asymptotic(z)
    else:
        out = np.empty(z.shape)
        out[small] = series(z[small])
        out[~small] = asymptotic(z[~small])
    return out if out.shape else float(out)


def _bessel(nu: float, z: np.ndarray, series_factor, asymptotic_factor):
    # e^{-z} I_nu(z) is series_factor(z) 0F1(; nu+1; z^2/4) / Gamma(nu+1)
    # (DLMF 10.25.2) up to z = max(30, 4 nu^2), below which the expansion has
    # not started to converge, and asymptotic_factor(z) (2 pi z)^{-1/2}
    # 2F0(1/2+nu, 1/2-nu;; 1/(2z)) above (DLMF 10.40.1), exact at nu = +-1/2.
    if nu < -0.5:
        raise ValueError("order nu must be >= -1/2")
    c0 = math.exp(-math.lgamma(nu + 1.0))
    return _by_regime(
        z, max(30.0, 4.0 * nu * nu),
        lambda a: series_factor(a) * _positive_series(c0, None, nu, 0.25 * a * a),
        lambda a: asymptotic_factor(a) * _expansion_2f0(0.5 + nu, 0.5 - nu, 0.5 / a)
        / np.sqrt(2.0 * math.pi * a))


def _kummer_scaled(k: float, b: float, x: np.ndarray) -> np.ndarray:
    """e^{-x} M(k, b, x) for k > 0, x >= 0 and b > k: the series sum_n
    (k)_n/(b)_n x^n/n! of positive terms (DLMF 13.2.2; ``_positive_series``
    at k - 1, b - 1) up to x = max(50, 2(k+2)^2) (at most 600), and beyond
    it Gamma(b)/Gamma(k) x^{k-b} 2F0(b-k, 1-k;; 1/x) (DLMF 13.7.2).  At
    k = 0 it is e^{-x}, which ``heat._parity_sum`` uses in closed form."""
    c = math.exp(math.lgamma(b) - math.lgamma(k))
    return _by_regime(x, min(max(50.0, 2.0 * (k + 2.0) ** 2), 600.0),
                      lambda u: np.exp(-u) * _positive_series(1.0, k - 1.0, b - 1.0, u),
                      lambda u: c * u ** (k - b) * _expansion_2f0(b - k, 1.0 - k, 1.0 / u))


def bessel_i_scaled(nu: float, z):
    """Exponentially scaled modified Bessel function e^{-z} I_nu(z) for
    z >= 0, elementwise on arrays; at z = 0 it is 1, 0 or inf as nu is
    0, positive or negative.  Relative accuracy ~1e-13 for nu up to ~10.
    """
    z = np.asarray(z, dtype=float)
    if np.any(z < 0):
        raise ValueError("argument z must be >= 0")
    # (z/2)^nu e^{-z} as one exponential: at nu = -1/2 and 1/2 the two
    # values must round alike where their true gap 2e^{-2z} is below
    # double resolution (Soni's inequality I_{nu+1} <= I_nu).
    # nu log(z/2) is 0 at nu = 0, also at z = 0, and -+inf at z = 0 otherwise.
    with np.errstate(divide="ignore"):
        return _bessel(nu, z, lambda a: np.exp((nu * np.log(0.5 * a) if nu else 0.0) - a),
                       lambda a: 1.0)


def bessel_ratio_scaled(nu: float, z):
    """e^{-|z|} I_nu(|z|) / |z|^nu, elementwise on arrays.

    This is the bounded building block of every kernel evaluation: the
    e^{|z|} growth is re-absorbed into the kernel's global exponent.
    """
    return _bessel(nu, np.abs(np.asarray(z, dtype=float)),
                   lambda a: np.exp(-nu * math.log(2.0) - a), lambda a: np.exp(-nu * np.log(a)))


def bessel_ratio(nu: float, z):
    """The entire function I_nu(z) / z^nu, finite and positive at z = 0.

    Even in z, so defined for negative arguments as well.  Grows like
    e^{|z|}; overflows for |z| beyond ~700 (kernel code uses
    :func:`bessel_ratio_scaled` instead).
    """
    out = np.exp(np.abs(z)) * bessel_ratio_scaled(nu, z)
    return out if np.ndim(out) else float(out)
