"""Generalized Hermite functions for the Z2^d reflection group.

The one-dimensional system, for parameter a >= -1/2, is

    h_{2m}(x)   = d_{2m}   e^{-x^2/2} L_m^a(x^2),
    h_{2m+1}(x) = d_{2m+1} e^{-x^2/2} x L_m^{a+1}(x^2),

with d_{2m} = (-1)^m sqrt(m! / Gamma(m+a+1)) and
d_{2m+1} = (-1)^m sqrt(m! / Gamma(m+a+2)).  The d-dimensional functions
are coordinate products, orthonormal in L^2(R^d, w_alpha) with
w_alpha(x) = prod |x_i|^{2 a_i + 1}, and eigenfunctions of the Dunkl
harmonic oscillator with eigenvalue 2|n| + 2|alpha| + 2d.

At a = -1/2 the system reduces to the classical Hermite functions,
signs included.

The d-dimensional functions and ``eigenvalue`` also take a (K, d) integer
stack of multi-indices; its products come from one 1-d table per axis.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .special import laguerre, laguerre_deriv, laguerre_scaled, log_gamma

__all__ = [
    "AlphaParams",
    "a_coeff",
    "hermite_fn_1d",
    "hermite_fn_all_1d",
    "hermite_fn",
    "ladder_coeff",
    "eigenvalue",
    "delta_hermite_1d",
    "delta_star_hermite_1d",
    "delta_hermite",
    "delta_star_hermite",
]


@dataclass(frozen=True)
class AlphaParams:
    """Multiplicity parameters alpha in [-1/2, inf)^d, d >= 1; every entry point's
    check of alpha, refusing a bool or non-real entry and naming it alpha[i]."""

    alpha: tuple[float, ...]

    def __post_init__(self):
        if not len(self.alpha):
            raise ValueError("alpha: must be nonempty, one alpha_j per coordinate")
        for i, a in enumerate(self.alpha):
            if isinstance(a, bool) or not isinstance(a, numbers.Real) or not -0.5 <= a < math.inf:
                raise ValueError(f"alpha[{i}] = {a!r}: every alpha_j must be a finite real >= -0.5")
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))

    @property
    def dim(self) -> int:
        return len(self.alpha)

    @property
    def abs_sum(self) -> float:
        """|alpha| = sum alpha_j (may be negative)."""
        return sum(self.alpha)

    def __getitem__(self, j: int) -> float:
        return self.alpha[j]

    def __iter__(self):
        return iter(self.alpha)


def a_coeff(n: int, a: float) -> float:
    """Squared Fischer norm of the monomial x^n: the recurrence
    a_0 = 1, a_n = n a_{n-1} (n even), a_n = (n + 2a + 1) a_{n-1} (n odd)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    val = 1.0
    for k in range(1, n + 1):
        val *= k if k % 2 == 0 else k + 2 * a + 1
    return val


def _norm_const(n: int, a: float) -> float:
    """Normalization d_{n,a}, sign (-1)^{n//2}, computed in log space."""
    m = n // 2
    shift = 1.0 if n % 2 == 0 else 2.0
    mag = math.exp(0.5 * (log_gamma(m + 1.0) - log_gamma(m + a + shift)))
    return mag if m % 2 == 0 else -mag


def hermite_fn_1d(n: int, a: float, x: float) -> float:
    """One-dimensional generalized Hermite function h_n^a(x).

    Evaluated from the Laguerre closed form: the normalization, e^{-x^2/2}
    and the power-of-two scale of L_m are combined as one logarithm, so
    the value stays finite where e^{-x^2/2} underflows and L_m overflows
    (high degree, |x| beyond ~38).  Independent of ``hermite_fn_all_1d``,
    which tests compare against it.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    m = n // 2
    if n % 2 == 0:
        lag, k = laguerre_scaled(m, a, x * x)
        log_x = 0.0
    elif x == 0.0:
        # Odd orders vanish identically at the origin through the factor x.
        return 0.0
    else:
        lag, k = laguerre_scaled(m, a + 1.0, x * x)
        lag = lag if x > 0.0 else -lag
        log_x = math.log(abs(x))
    norm = _norm_const(n, a)
    log_mag = math.log(abs(norm)) - 0.5 * x * x + k * math.log(2.0) + log_x
    return math.copysign(1.0, norm) * lag * math.exp(log_mag)


def hermite_fn_all_1d(nmax: int, a: float, x) -> np.ndarray:
    """Table h_n^a(x) for n = 0..nmax, vectorized over x.

    Runs the Laguerre recurrence directly on the normalized functions so
    no intermediate overflows even for degrees in the hundreds.  It carries
    e^{-x^2/4} and multiplies the finished table by e^{-x^2/4}: e^{-x^2/2}
    is subnormal beyond |x| ~ 38.4, inside the 512-node rule.
    Returns an array of shape (nmax+1, len(x)).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    g = np.exp(-0.25 * x * x)
    out = np.zeros((nmax + 1, x.size))
    y = x * x
    # Two chains of one recurrence, (previous, current): h_{2m} with order
    # b = a and h_{2m+1} = x times its even partner of order b = a + 1.
    chains = [(np.zeros_like(x), g * math.exp(-0.5 * log_gamma(a + 1.0))),
              (np.zeros_like(x), x * g * math.exp(-0.5 * log_gamma(a + 2.0)))]
    for n in range(nmax + 1):
        m, p = divmod(n, 2)
        if m:
            b, (prev, cur) = a + p, chains[p]
            c1 = (2 * (m - 1) + b + 1 - y) / math.sqrt(m * (m + b))
            c2 = math.sqrt((m - 1) * (m - 1 + b) / (m * (m + b)))
            chains[p] = (cur, -c1 * cur - c2 * prev)
        out[n] = chains[p][1]
    return out * g


def _stack(n, alpha: AlphaParams) -> tuple[np.ndarray, bool]:
    """``n`` as a (K, d) integer stack, and whether it was one index (a
    sequence of d integers) rather than a stack; every multi-index is checked here."""
    ent = np.asarray(n)
    if ent.ndim not in (1, 2) or ent.shape[-1] != alpha.dim:
        raise ValueError(f"dimension mismatch: n has shape {ent.shape}, alpha has {alpha.dim}")
    if ent.size and (ent.dtype.kind not in "iu" or ent.min() < 0):
        raise ValueError(f"multi-index entries must be integers >= 0, got {ent.tolist()}")
    return ent.reshape(-1, alpha.dim), ent.ndim == 1


def _check_j(j: int, alpha: AlphaParams) -> None:
    if not 0 <= j < alpha.dim:  # the one check of j; a negative j would wrap round
        raise ValueError(f"coordinate j must be in 0..{alpha.dim - 1}, got {j}")


def _product(n, alpha: AlphaParams, x, j: int | None = None, op_1d=None) -> np.ndarray:
    """Products over coordinates at P points: (K, P) for a stack, (P,) for one index.

    Slot j, the first factor, is op_1d(n_j, a_j, x_j), one call per
    distinct n_j.  Each other coordinate i follows in order with
    h_{n_i}^{a_i}(x_i) from one ``hermite_fn_all_1d`` table up to its
    largest degree, on the distinct x_i only (a tensor rule repeats them).
    """
    stack, single = _stack(n, alpha)
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != alpha.dim:
        raise ValueError(f"points have dimension {pts.shape[-1]}, expected {alpha.dim}")
    val = None
    if j is not None:
        _check_j(j, alpha)
        degs, inv = np.unique(stack[:, j], return_inverse=True)
        rows = [op_1d(int(k), alpha[j], pts[:, j]) for k in degs]
        val = np.reshape(rows, (degs.size, pts.shape[0]))[inv]
    for i in range(alpha.dim):
        if i != j:
            deg = stack[:, i]
            xs, at = np.unique(pts[:, i], return_inverse=True)
            factor = np.take(hermite_fn_all_1d(int(deg.max(initial=0)), alpha[i], xs)[deg], at, 1)
            val = factor if val is None else np.multiply(val, factor, out=val)
    return val[0] if single else val


def hermite_fn(n, alpha: AlphaParams, x) -> float | np.ndarray:
    """d-dimensional h_n^alpha(x) = prod_i h_{n_i}^{a_i}(x_i).

    ``x`` may be a single point (length-d sequence) or an array of shape
    (P, d).  ``n`` is one multi-index (d integers), giving a float at a
    single point and a (P,) array otherwise, or a (K, d) integer stack
    such as ``np.array(multi_indices_upto(d, N))``, giving a (K, P) array.
    """
    val = _product(n, alpha, x)
    return float(val[0]) if val.ndim == 1 and np.ndim(x) == 1 else val


def ladder_coeff(n_j, a_j: float):
    """m(n_j, a_j): sqrt(2 n_j) for even n_j, sqrt(2 n_j + 4 a_j + 2) for odd;
    a float for an integer n_j, elementwise on an integer array."""
    n_j = np.asarray(n_j)
    if (n_j < 0).any():
        raise ValueError("n_j must be >= 0")
    out = np.sqrt(np.where(n_j % 2 == 0, 2.0 * n_j, 2.0 * n_j + 4.0 * a_j + 2.0))
    return float(out) if out.ndim == 0 else out


def eigenvalue(n, alpha: AlphaParams):
    """Oscillator eigenvalue lambda_n = 2|n| + 2|alpha| + 2d: a float for one
    multi-index, a (K,) array for a (K, d) stack."""
    stack, single = _stack(n, alpha)
    lam = 2.0 * stack.sum(axis=1) + 2.0 * alpha.abs_sum + 2.0 * alpha.dim
    return float(lam[0]) if single else lam


def delta_hermite_1d(n: int, a: float, x) -> np.ndarray:
    """(delta h_n^a)(x) computed analytically from the Laguerre forms.

    delta = T^a + x.  On the even functions h_{2m} this is d/dx + x; on
    the odd h_{2m+1} it is d/dx + x + (2a+1)/x, with the 1/x factor
    cancelled symbolically so x = 0 is regular.  Uses only the Laguerre
    derivative identity, not the ladder relation, so it serves as an
    independent route when testing the latter.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = x * x
    g = np.exp(-0.5 * y)
    m = n // 2
    d = _norm_const(n, a)
    if n % 2 == 0:
        # (d/dx + x) [d g L_m^a(y)] = d g * 2x dL/dy = -2x d g L_{m-1}^{a+1}(y)
        return d * g * 2.0 * x * laguerre_deriv(m, a, y)
    # (d/dx + x + (2a+1)/x) [d g x L_m^{a+1}(y)]
    #   = d g [ (2a+2) L_m^{a+1}(y) + 2 y dL^{a+1}/dy ]
    return d * g * ((2.0 * a + 2.0) * laguerre(m, a + 1.0, y)
                    + 2.0 * y * laguerre_deriv(m, a + 1.0, y))


def delta_star_hermite_1d(n: int, a: float, x) -> np.ndarray:
    """(delta* h_n^a)(x) via delta* = -delta + 2x."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    base = hermite_fn_all_1d(n, a, x)[n]
    return -delta_hermite_1d(n, a, x) + 2.0 * x * base


def delta_hermite(n, alpha: AlphaParams, j: int, x) -> np.ndarray:
    """(delta_j h_n^alpha)(x) at a (P, d) array of points: (P,) for one
    multi-index, (K, P) for a (K, d) stack of them."""
    return _product(n, alpha, x, j, delta_hermite_1d)


def delta_star_hermite(n, alpha: AlphaParams, j: int, x) -> np.ndarray:
    """(delta_j^* h_n^alpha)(x), shaped as for ``delta_hermite``."""
    return _product(n, alpha, x, j, delta_star_hermite_1d)
