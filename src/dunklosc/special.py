"""Special functions: log-gamma, Laguerre polynomials and modified
Bessel functions of the first kind in overflow-safe (exponentially scaled)
form.

Everything here is a pure function of its arguments.  The three Bessel
functions share one vectorized core with two regimes: the ascending series
sum_k (z/2)^{2k} / (k! Gamma(k+nu+1)) (DLMF 10.25.2) for
z <= max(30, 4 nu^2), and above that the large-argument expansion of
e^{-z} I_nu(z) with optimal truncation (DLMF 10.40.1).  Each public
function only adds its prefactor to these two branches.

Both branches are polynomials evaluated by Horner's rule, with a term
count fixed once per call by a scalar loop at the element that needs the
most terms.  The series' coefficients are its terms at the largest
argument, scaled by a power of two, as unscaled ones underflow at large nu.
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


# The series serves z <= max(SERIES_CUTOFF, 4 nu^2), below which the
# asymptotic expansion has not started to converge.
SERIES_CUTOFF = 30.0


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if x <= 0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def laguerre_scaled(n: int, a: float, y: float) -> tuple[float, int]:
    """(c, k) with L_n^a(y) = c 2^k, by the upward three-term recurrence
    rescaled by exact powers of two, so neither part overflows at any
    degree.  Stable in the regime needed here (n up to a few thousand,
    a > -1).
    """
    if n < 0:
        raise ValueError("degree n must be >= 0")
    if a <= -1:
        raise ValueError("order a must be > -1")
    if n == 0:
        return 1.0, 0
    prev = 1.0
    cur = 1.0 + a - y
    k = 0
    for m in range(1, n):
        prev, cur = cur, ((2 * m + a + 1 - y) * cur - (m + a) * prev) / (m + 1)
        if abs(cur) > 2.0**500:
            prev, cur, k = math.ldexp(prev, -500), math.ldexp(cur, -500), k + 500
    return cur, k


def laguerre(n: int, a: float, y: float) -> float:
    """Laguerre polynomial L_n^a(y); raises OverflowError beyond the
    double range (see :func:`laguerre_scaled`)."""
    c, k = laguerre_scaled(n, a, y)
    return math.ldexp(c, k)


def laguerre_deriv(n: int, a: float, y: float) -> float:
    """d/dy L_n^a(y), via d/dy L_n^a = -L_{n-1}^{a+1}; zero for n = 0."""
    if n == 0:
        return 0.0
    return -laguerre(n - 1, a + 1.0, y)


def _horner(coefs: list[float], u: np.ndarray) -> np.ndarray:
    # sum_k coefs[k] u^k, in place
    out = np.full(u.shape, coefs[-1])
    for c in reversed(coefs[:-1]):
        out *= u
        out += c
    return out


def _series(nu: float, a: np.ndarray) -> np.ndarray:
    # sum_k q^k / (k! Gamma(k+nu+1)), q = (a/2)^2, all terms positive.  The
    # terms t_k at q_max = max q, up to the first t_k <= 1e-18 sum, fix the
    # length; u = q / 2^e, 2^e <= q_max < 2^{e+1}, is exact and keeps coefs <= t_k.
    q = 0.25 * a * a
    q_max = float(q.max(initial=0.0))
    scale = math.ldexp(1.0, math.frexp(q_max)[1] - 1)
    t = total = c = math.exp(-math.lgamma(nu + 1.0))
    coefs = [c]
    while t > 1e-18 * total:
        k = len(coefs)
        t *= q_max / (k * (k + nu))
        total += t
        c *= scale / (k * (k + nu))
        coefs.append(c)
    return _horner(coefs, q * (1.0 / scale))


def _asymptotic(nu: float, a: np.ndarray) -> np.ndarray:
    # e^{-a} I_nu(a) ~ (2 pi a)^{-1/2} sum_k (-1)^k a_k(nu) / a^k with
    # a_k = prod_{j=1..k} (4 nu^2 - (2j-1)^2) / (k! 8^k), a polynomial in 1/a.
    # Its terms t_k at a_min = min a fix the length: up to |t_k| <= 1e-18 or
    # before the first that does not decrease (optimal truncation where it
    # binds; every larger a is short of its optimum).  Exact at nu = +-1/2.
    mu = 4.0 * nu * nu
    a_min = float(np.fmin.reduce(a))  # skips NaN, which must not spoil the batch
    coefs, t = [1.0], 1.0
    while abs(t) > 1e-18:
        step = -(mu - (2 * len(coefs) - 1) ** 2) / (8.0 * len(coefs))
        if abs(step) >= a_min:  # |t_k| >= |t_{k-1}|
            break
        t *= step / a_min
        coefs.append(coefs[-1] * step)
    return _horner(coefs, 1.0 / a) / np.sqrt(2.0 * math.pi * a)


def _by_regime(nu: float, z: np.ndarray, series, asymptotic):
    # series(a) for a <= max(SERIES_CUTOFF, 4 nu^2), asymptotic(a) above
    if nu < -0.5:
        raise ValueError("order nu must be >= -1/2")
    small = z <= max(SERIES_CUTOFF, 4.0 * nu * nu)
    if small.all():
        out = series(z)
    elif not small.any():
        out = asymptotic(z)
    else:
        out = np.empty(z.shape)
        out[small] = series(z[small])
        out[~small] = asymptotic(z[~small])
    return out if out.shape else float(out)


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
        return _by_regime(nu, z, lambda a: np.exp((nu * np.log(0.5 * a) if nu else 0.0) - a)
                          * _series(nu, a), lambda a: _asymptotic(nu, a))


def bessel_ratio_scaled(nu: float, z):
    """e^{-|z|} I_nu(|z|) / |z|^nu, elementwise on arrays.

    This is the bounded building block of every kernel evaluation: the
    e^{|z|} growth is re-absorbed into the kernel's global exponent.
    """
    return _by_regime(nu, np.abs(np.asarray(z, dtype=float)),
                      lambda a: np.exp(-nu * math.log(2.0) - a) * _series(nu, a),
                      lambda a: _asymptotic(nu, a) * np.exp(-nu * np.log(a)))


def bessel_ratio(nu: float, z):
    """The entire function I_nu(z) / z^nu, finite and positive at z = 0.

    Even in z, so defined for negative arguments as well.  Grows like
    e^{|z|}; overflows for |z| beyond ~700 (kernel code uses
    :func:`bessel_ratio_scaled` instead).
    """
    out = np.exp(np.abs(z)) * bessel_ratio_scaled(nu, z)
    return out if np.ndim(out) else float(out)
