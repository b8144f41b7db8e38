"""Special functions: log-gamma, Laguerre polynomials and modified
Bessel functions of the first kind in overflow-safe (exponentially scaled)
form.

Everything here is a pure function of its arguments.  The three Bessel
functions share one vectorized core with two regimes: the ascending series
sum_k (z/2)^{2k} / (k! Gamma(k+nu+1)) (DLMF 10.25.2) for
z <= max(30, 4 nu^2), and above that the large-argument expansion of
e^{-z} I_nu(z) with optimal truncation (DLMF 10.40.1).  Each public
function only adds its prefactor to these two branches.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import xlogy

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
SERIES_TERMS = 120      # least series length; more as the cutoff grows
ASYMPTOTIC_TERMS = 8    # terms before optimal truncation may stop the sum


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


def _cutoff(nu: float) -> float:
    return max(SERIES_CUTOFF, 4.0 * nu * nu)


def _series(nu: float, a: np.ndarray) -> np.ndarray:
    # sum_k (a/2)^{2k} / (k! Gamma(k+nu+1)): all terms positive, so the
    # sum is relative-accurate; z/2 + O(sqrt z) terms dominate.
    term = np.full(a.shape, math.exp(-math.lgamma(nu + 1.0)))
    total = term.copy()
    q = 0.25 * a * a
    cutoff = _cutoff(nu)
    for k in range(1, max(SERIES_TERMS, int(cutoff / 2 + 9 * math.sqrt(cutoff + 1) + 60))):
        term = term * (q / (k * (k + nu)))
        total += term
        if np.all(term <= 1e-18 * total):
            break
    return total


def _asymptotic(nu: float, a: np.ndarray) -> np.ndarray:
    # e^{-a} I_nu(a) ~ (2 pi a)^{-1/2} sum_k (-1)^k a_k(nu) / a^k with
    # a_k = prod_{j=1..k} (4 nu^2 - (2j-1)^2) / (k! 8^k), truncated per
    # element before the first term that does not decrease.  Exact after
    # one term at nu = +-1/2.
    mu = 4.0 * nu * nu
    term = np.ones(a.shape)
    total = np.ones(a.shape)
    active = np.ones(a.shape, dtype=bool)
    for k in range(1, 30):
        tnew = term * (-(mu - (2 * k - 1) ** 2) / (8.0 * k)) / a
        if k > ASYMPTOTIC_TERMS:
            active &= np.abs(tnew) < np.abs(term)
            if not active.any():
                break
        total = np.where(active, total + tnew, total)
        term = tnew
    return total / np.sqrt(2.0 * math.pi * a)


def bessel_i_scaled(nu: float, z):
    """Exponentially scaled modified Bessel function e^{-z} I_nu(z) for
    z >= 0, elementwise on arrays; at z = 0 it is 1, 0 or inf as nu is
    0, positive or negative.  Relative accuracy ~1e-13 for nu up to ~10.
    """
    if nu < -0.5:
        raise ValueError("order nu must be >= -1/2")
    z = np.asarray(z, dtype=float)
    if np.any(z < 0):
        raise ValueError("argument z must be >= 0")
    out = np.empty(z.shape)
    small = z <= _cutoff(nu)
    if small.any():
        # (z/2)^nu e^{-z} as one exponential: at nu = -1/2 and 1/2 the two
        # values must round alike where their true gap 2e^{-2z} is below
        # double resolution (Soni's inequality I_{nu+1} <= I_nu).
        a = z[small]
        out[small] = np.exp(xlogy(nu, 0.5 * a) - a) * _series(nu, a)
    if not small.all():
        out[~small] = _asymptotic(nu, z[~small])
    return out if out.shape else float(out)


def bessel_ratio_scaled(nu: float, z):
    """e^{-|z|} I_nu(|z|) / |z|^nu, elementwise on arrays.

    This is the bounded building block of every kernel evaluation: the
    e^{|z|} growth is re-absorbed into the kernel's global exponent.
    """
    if nu < -0.5:
        raise ValueError("order nu must be >= -1/2")
    az = np.abs(np.asarray(z, dtype=float))
    out = np.empty(az.shape)
    small = az <= _cutoff(nu)
    if small.any():
        a = az[small]
        out[small] = np.exp(-nu * math.log(2.0) - a) * _series(nu, a)
    if not small.all():
        a = az[~small]
        out[~small] = _asymptotic(nu, a) * np.exp(-nu * np.log(a))
    return out if out.shape else float(out)


def bessel_ratio(nu: float, z):
    """The entire function I_nu(z) / z^nu, finite and positive at z = 0.

    Even in z, so defined for negative arguments as well.  Grows like
    e^{|z|}; overflows for |z| beyond ~700 (kernel code uses
    :func:`bessel_ratio_scaled` instead).
    """
    out = np.exp(np.abs(z)) * bessel_ratio_scaled(nu, z)
    return out if np.ndim(out) else float(out)
