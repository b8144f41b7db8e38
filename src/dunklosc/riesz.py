"""Riesz transforms R_j for the Z2^d Dunkl harmonic oscillator.

Three realizations, the last two of one integrand:

* spectral multiplier on the generalized Hermite basis, on one multi-index
  or a (K, d) stack of them, with lambda_n = ``hermite.eigenvalue``:
      R_j: coeff[n] -> m(n_j, a_j) / sqrt(lambda_n) at n - e_j;
* the kernel pi^{-1/2} int_0^inf delta_j G_t(x, y) t^{-1/2} dt on a graded
  composite Gauss-Legendre zeta rule read as t = artanh zeta.  The
  integrand delta_j G_t = (y_j - e^{-2t} x_j) G_t / sinh 2t is ``heat``'s
  prelude times one parity factor per coordinate, P(z) = e^{-|z|}
  (rho_a(z) + z rho_{a+1}(z)), and the s-route only chooses P: its
  Bessel/Kummer closed form (exact s) or the Gauss-Jacobi rule of the
  Schlafli measure Pi_a weighted by 1 + s, Rosler's positive integral for
  the rank-one Dunkl kernel.  The parity components are the Walsh-Hadamard
  transform of the kernel at the 2^d reflections of y, and the gradient in
  (x, y) is the same integrand differentiated analytically, formed with the
  kernel in one pass by ``riesz_kernel_with_gradient`` (central differences
  of the kernel are the test oracle).  The paper's pointwise
  (zeta, s) integrand of each parity component, beta_{d,alpha+eps}(zeta)
  (delta_j psi_zeta^eps)(x,y,s) against Pi_{alpha+eps}(ds) (``beta_weight``,
  ``delta_psi``), is kept as an oracle for this route;
* a trapezoid rule in log t for the same t-integral, the oracle for the
  zeta rule: over a batch of pairs, refined until each pair converges,
  else it raises.

Every kernel route refuses a pair with |x - y| < 1e-3, where quadrature
error would dominate, and, when a_j > -1/2, a pair on the reflected
diagonal y = sigma_j x (x_j negated), where R_j is infinite.  The parity
components come from the passes (x, sigma y), each refused likewise; near
the other reflected diagonals only their sum is small, so expect
cancellation-limited accuracy there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.legendre import leggauss

from .hermite import AlphaParams, _check_j, _stack, eigenvalue, ladder_coeff
from .quadrature import (QuadratureRule, SpectralCoeffs, _gauss_nodes_logweights, _graded_rule,
                         project)
from .special import log_gamma
from .heat import _heat_values, _kernel_prelude, _parity_sum, _prepare_pairs, all_parities, psi_zeta

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
    "riesz_kernel_components",
    "riesz_kernel",
    "riesz_kernel_with_gradient",
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

    For nu > -1/2 the Gauss-Jacobi rule of the density
    (1-s^2)^{nu-1/2} / (sqrt(pi) 2^nu Gamma(nu+1/2)), of mass
    1/(2^nu Gamma(nu+1)), from the Gegenbauer recurrence (off-diagonal
    sqrt(k (k+2l) / (4 (k+l)^2 - 1)), l = nu - 1/2) by the helper of
    ``quadrature``; for nu = -1/2 two atoms at -+1 of mass 1/sqrt(2 pi).
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
        lam = nu - 0.5
        k = np.arange(1.0, npoints)
        with np.errstate(invalid="ignore"):  # 0/0 at k = 1, l = -1/2; the limit is 1/2
            off2 = np.where(k + 2.0 * lam == 0.0, 0.5,
                            k * (k + 2.0 * lam) / (4.0 * (k + lam) ** 2 - 1.0))
        s, logw = _gauss_nodes_logweights(np.zeros(npoints), np.sqrt(off2),
                                          -nu * math.log(2.0) - log_gamma(nu + 1.0), polish=True)
        return cls(nu=nu, kind="density", nodes=s, weights=np.exp(logw))

    def laplace(self, z: float) -> float:
        """int e^{-z s} Pi_nu(ds); equals I_nu(z)/z^nu for every z."""
        return float(np.sum(self.weights * np.exp(-z * self.nodes)))

    def parity_factor(self, z: np.ndarray, slope: bool = False):
        """The parity factor int (1 + s) e^{z s - |z|} Pi_nu(ds) = e^{-|z|}
        (rho_nu(z) + z rho_{nu+1}(z)) as sum_k w_k (1 + s_k) e^{z s_k - |z|}:
        (1 - s^2)^{nu-1/2} (1 + s) is Rosler's density of the rank-one Dunkl
        kernel, so every term is positive.  With ``slope`` also P'(z), sum_k
        w_k (1 + s_k) (s_k - sgn z) e^{z s_k - |z|} (sgn 0 = 1), of one sign."""
        e = np.exp(z[..., None] * self.nodes - np.abs(z)[..., None])
        w = self.weights * (1.0 + self.nodes)
        if not slope:
            return e @ w
        p, right, left = np.moveaxis(
            e @ np.stack([w, w * (self.nodes - 1.0), w * (self.nodes + 1.0)], axis=1), -1, 0)
        return p, np.where(z < 0.0, left, right)


@dataclass(frozen=True)
class KernelConfig:
    """Quadrature controls for the zeta rule of the kernel; the defaults
    are those of a ``verify`` config.

    ``zeta_points`` is even, as the zeta rule has zeta_points // 2 nodes on
    each half of (0, 1).

    ``s_method`` selects each coordinate's parity factor P(z) (see the
    module docstring): "exact" is its Bessel/Kummer closed form,
    "gauss-jacobi" the sum of positive terms over the ``s_points_per_dim``
    nodes of the Schlafli rule.  At 48 nodes that sum is within 1e-14 of
    the closed form up to |z| = 100, 1e-7 at 200 and 1e-3 at 400, and
    |z_i| = |x_i y_i| / sinh 2t grows without bound as t -> 0.  So only the
    exact route stays accurate arbitrarily close to the diagonal and the
    reflected diagonals, where the integrand's mass sits at small t; it is
    the default for that reason, and the scans force it.  The nu = -1/2
    atoms of the Schlafli measure are detected by exact comparison on the
    user-supplied alpha.
    """

    zeta_points: int = 96
    zeta_grading: float = 3.0
    s_points_per_dim: int = 48
    s_method: str = "exact"

    def __post_init__(self):
        for name, least in (("zeta_points", 16), ("s_points_per_dim", 8)):
            n = getattr(self, name)
            if not isinstance(n, (int, np.integer)) or n < least:
                raise ValueError(f"{name} must be an integer >= {least}")
        if self.zeta_points % 2:
            raise ValueError(f"zeta_points must be even, got {self.zeta_points}")
        if not 1.0 <= self.zeta_grading < math.inf:
            raise ValueError("zeta_grading must be finite and >= 1")
        if _graded_rule(self.zeta_points, self.zeta_grading)[0][0] == 0.0:
            raise ValueError(f"zeta_grading {self.zeta_grading} is too steep for zeta_points "
                             f"{self.zeta_points}: the node next to 0 underflows to 0")
        if self.s_method not in ("gauss-jacobi", "exact"):
            raise ValueError("s_method must be 'gauss-jacobi' or 'exact'")

    def doubled(self) -> "KernelConfig":
        """Twice the zeta and s points: a scan's refinement rerun."""
        return replace(self, zeta_points=2 * self.zeta_points,
                       s_points_per_dim=2 * self.s_points_per_dim)


def zeta_grid(cfg: KernelConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The graded zeta rule on (0,1) of a KernelConfig: (nodes, 1 - nodes, weights)."""
    return _graded_rule(cfg.zeta_points, cfg.zeta_grading)


def riesz_multiplier(n, alpha: AlphaParams, j: int):
    """m(n_j, a_j) / sqrt(lambda_n): a float for one multi-index, a (K,)
    array for a (K, d) stack, 0 where n_j = 0."""
    _check_j(j, alpha)
    lam = eigenvalue(n, alpha)
    out = ladder_coeff(np.asarray(n)[..., j], alpha[j]) / np.sqrt(lam)
    return float(out) if np.ndim(out) == 0 else out


def _shifted(c: SpectralCoeffs, j: int, step: int, multiplier) -> SpectralCoeffs:
    """c_n multiplier(n) moved to n + step e_j where n_j + step >= 0; the
    0.0 + turns a -0.0 into 0.0, as a sum into an empty slot does; rows keep order."""
    _check_j(j, c.alpha)
    keep = c.n[:, j] + step >= 0
    n = c.n[keep]
    return SpectralCoeffs(n + step * np.eye(c.dim, dtype=int)[j],
                          0.0 + multiplier(n) * c.values[keep], c.alpha)


def riesz_apply_spectral(c: SpectralCoeffs, j: int) -> SpectralCoeffs:
    """R_j on coefficients: shift n -> n - e_j with the spectral multiplier;
    indices with n_j = 0 are annihilated."""
    return _shifted(c, j, -1, lambda n: riesz_multiplier(n, c.alpha, j))


def riesz_adjoint_spectral(c: SpectralCoeffs, j: int) -> SpectralCoeffs:
    """Adjoint R^_j: shift n -> n + e_j with multiplier
    m(n_j + 1, a_j) / sqrt(lambda_n + 2)."""
    return _shifted(c, j, +1, lambda n: ladder_coeff(n[:, j] + 1, c.alpha[j])
                    / np.sqrt(eigenvalue(n, c.alpha) + 2.0))


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


def _check_pairs(alpha: AlphaParams, j: int, x, y, where="") -> tuple[np.ndarray, np.ndarray, bool]:
    """The (P, d) stacks of a kernel call, refused near the diagonal and, where
    a_j > -1/2, on the reflected diagonal y = sigma_j x (x with x_j negated),
    where R_j is infinite and every rule returns a resolution-dependent number;
    the refusal names the pair, and ``where`` the pass it belongs to."""
    _check_j(j, alpha)
    X, Y, scalar = _prepare_pairs(alpha, x, y)
    near = np.sqrt(np.sum((X - Y) ** 2, axis=1)) < NEAR_DIAGONAL
    on = ((alpha[j] > -0.5) & (Y[:, j] == -X[:, j])
          & np.all((Y == X) | (np.arange(alpha.dim) == j), axis=1))
    if (near | on).any():
        k = int(np.argmax(near | on))
        why = (f"|x-y| < {NEAR_DIAGONAL}" if near[k] else f"y is x with coordinate {j + 1} "
               f"negated, where R_j is singular (a_j = {alpha[j]} > -1/2)")
        raise ValueError(f"kernel evaluation refused at pair {k}{where}: x = {X[k]}, "
                         f"y = {Y[k]}, {why}")
    return X, Y, scalar


# Pairs x zeta nodes x s-nodes per chunk of _zeta_sum, with s-nodes
# counted as 1 on the exact route: 512 pairs at 256 zeta nodes.
ZETA_BATCH_ELEMENTS = 2**17


def _delta_heat(alpha: AlphaParams, j: int, t: np.ndarray, X: np.ndarray, Y: np.ndarray,
                factor=_parity_sum) -> np.ndarray:
    """delta_{j,x} G_t(x, y) for each t of the array ``t`` (rows) and each
    pair of the (P, d) stacks (columns).  delta_j = T_j + x_j, and the Dunkl
    operator takes the kernel E_k(b x y) in G_t to b y_j E_k(b x y), so
    delta_j G_t = ((1 - coth 2t) x_j + y_j/sinh 2t) G_t = (y_j - e^{-2t} x_j) b G_t,
    with y_j - e^{-2t} x_j from expm1 where e^{-2t} is near 1: ``heat``'s
    prelude times one parity factor P(a, z) per coordinate, ``factor``."""
    G, b = _heat_values(alpha, t, X, Y, factor)
    return G * b * _j_factor(t[:, None], X[:, j], Y[:, j])


def _j_factor(t: np.ndarray, xj: np.ndarray, yj: np.ndarray) -> np.ndarray:
    # y_j - e^{-2t} x_j
    return np.where(t < 0.35, (yj - xj) - np.expm1(-2.0 * t) * xj, yj - np.exp(-2.0 * t) * xj)


def _delta_heat_gradient(alpha: AlphaParams, j: int, t: np.ndarray, X: np.ndarray,
                         Y: np.ndarray, factor, weights: np.ndarray):
    """(sum_k weights_k delta_j G_{t_k}(x, y), the same sum of its gradient
    [d/dx_1..d, d/dy_1..d], shape (P, 2d)) over the array ``t``, the first in
    ``_delta_heat``'s order.  Three parts are differentiated
    analytically: the prelude's exponent (d/dx_i = -tanh(t) x_i -
    b (x_i - sgn(z_i) y_i)), the j-factor (y_j - e^{-2t} x_j) b, and each
    parity factor, P_i'(z_i) b y_i, with the sign convention of P' (sgn 0 = 1).
    The other coordinates' factors come from prefix and suffix products,
    never from dividing by a factor (it can underflow to 0)."""
    b, z, expo = _kernel_prelude(alpha, t, X, Y)
    t = t[:, None]
    kj = b * (jf := _j_factor(t, X[:, j], Y[:, j]))
    facs, slopes = zip(*(factor(a, z[..., i], slope=True) for i, a in enumerate(alpha)))
    pre = [np.exp(expo)]  # pre[i] = e^{expo} prod_{k < i} P_k
    for f in facs:
        pre.append(pre[-1] * f)
    kg, tanh, d = kj * pre[-1], np.tanh(t), alpha.dim
    out, rest = np.empty((X.shape[0], 2 * d)), 1.0  # rest = prod_{k > i} P_k
    for i in reversed(range(d)):
        xi, yi, sgn = X[:, i], Y[:, i], np.where(z[..., i] < 0.0, -1.0, 1.0)
        dz = kj * pre[i] * rest * slopes[i] * b
        out[:, i] = weights @ (dz * yi - kg * (tanh * xi + b * (xi - sgn * yi)))
        out[:, d + i] = weights @ (dz * xi - kg * (tanh * yi + b * (yi - sgn * xi)))
        rest = rest * facs[i]
    out[:, j] -= weights @ (np.exp(-2.0 * t) * b * pre[-1])
    out[:, d + j] += weights @ (b * pre[-1])
    return weights @ (pre[0] * np.prod(facs, axis=0) * b * jf), out


def _zeta_sum(alpha: AlphaParams, j: int, X: np.ndarray, Y: np.ndarray, cfg: KernelConfig,
              grad: bool = False):
    """pi^{-1/2} int_0^inf delta_j G_t t^{-1/2} dt on the zeta rule of ``cfg``
    read as t = artanh zeta: sum_k w_k delta_j G_{t_k} / ((1 - zeta_k)(1 + zeta_k)
    sqrt(pi t_k)), with 2 t_k = log1p(2 zeta_k / (1 - zeta_k)) from the rule's
    complements.  The s-route only chooses the parity factor P(a, z[, slope]).
    With ``grad`` also the partials [d/dx_1..d, d/dy_1..d], shape (P, 2d)."""
    factor = _parity_sum
    if cfg.s_method == "gauss-jacobi":
        rules = {a: SchlafliMeasure.from_nu(a, cfg.s_points_per_dim) for a in set(alpha)}
        factor = lambda a, z, slope=False: rules[a].parity_factor(z, slope)
    zeta, comp, zw = zeta_grid(cfg)
    t = 0.5 * np.log1p(2.0 * zeta / comp)
    weights = zw / (comp * (1.0 + zeta) * np.sqrt(math.pi * t))
    s_nodes = 1 if cfg.s_method == "exact" else cfg.s_points_per_dim
    chunk = max(1, ZETA_BATCH_ELEMENTS // (zeta.size * s_nodes))
    vals, grads = np.empty(X.shape[0]), np.empty((X.shape[0], 2 * alpha.dim))
    for c in (slice(lo, lo + chunk) for lo in range(0, X.shape[0], chunk)):
        if grad:
            vals[c], grads[c] = _delta_heat_gradient(alpha, j, t, X[c], Y[c], factor, weights)
        else:
            vals[c] = weights @ _delta_heat(alpha, j, t, X[c], Y[c], factor)
    return (vals, grads) if grad else vals


def riesz_kernel_components(alpha: AlphaParams, j: int, x, y, cfg: KernelConfig):
    """(R_j(x, y), {eps: R_j^{alpha,eps}(x, y)}): the full kernel and its
    parity components, the Walsh-Hadamard transform 2^{-d} sum_sigma
    (prod_i sigma_i^{eps_i}) R_j(x, sigma y) of 2^d full-kernel passes, one
    per sign vector sigma.  The kernel is the sigma = 1 pass itself, not
    the sum of the components, which near a reflected diagonal differs
    from it by the rounding of the larger R_j(x, sigma y).  Each pass is
    refused as a kernel call would be, naming sigma."""
    X, Y, scalar = _check_pairs(alpha, j, x, y)
    parities = np.array(all_parities(alpha.dim))
    for sigma in 1 - 2 * parities[1:]:
        _check_pairs(alpha, j, X, sigma * Y, f" in the pass (x, sigma y), sigma = {sigma.tolist()}")
    passes = np.array([_zeta_sum(alpha, j, X, (1 - 2 * p) * Y, cfg) for p in parities])
    comps = (-1.0) ** (parities @ parities.T) @ passes / 2**alpha.dim
    value = (lambda v: float(v[0])) if scalar else (lambda v: v)
    return value(passes[0]), {tuple(int(e) for e in eps): value(v)
                              for eps, v in zip(parities, comps)}


def riesz_kernel(alpha: AlphaParams, j: int, x, y, cfg: KernelConfig):
    """Full kernel R_j^alpha(x, y): delta_j G_t summed on the zeta rule."""
    X, Y, scalar = _check_pairs(alpha, j, x, y)
    vals = _zeta_sum(alpha, j, X, Y, cfg)
    return float(vals[0]) if scalar else vals


def riesz_kernel_with_gradient(alpha: AlphaParams, j: int, x, y, cfg: KernelConfig):
    """(R_j, [dR_j/dx_1..d, dR_j/dy_1..d]) of the full kernel from one zeta-rule
    pass, each parity factor evaluated once: (P,) and (P, 2d) arrays, or a
    float and a (2d,) array for a point pair.  The gradient is ``riesz_kernel``'s
    integrand differentiated analytically (``_delta_heat_gradient``) on the
    same zeta rule and s-route, so as accurate as the kernel on either route
    (near the diagonal that takes exact s, see ``KernelConfig``); on the exact
    route the value is ``riesz_kernel`` bit for bit."""
    X, Y, scalar = _check_pairs(alpha, j, x, y)
    vals, grads = _zeta_sum(alpha, j, X, Y, cfg, grad=True)
    return (float(vals[0]), grads[0]) if scalar else (vals, grads)


def riesz_kernel_direct(alpha: AlphaParams, j: int, x, y):
    """Oracle route: pi^{-1/2} int_0^inf delta_j G_t(x,y) t^{-1/2} dt,
    for a point pair (a float) or a (P, d) stack of pairs (an array).

    A trapezoid rule in u = log t on t in [s^2/400, 40], s^2 the batch's
    smallest squared orbit distance (x_i - y_i for |x_i| - |y_i| where
    a_i = -1/2) floored at 1e-12, converges exponentially: the integrand
    decays double-exponentially at both ends (Trefethen and Weideman 2014).
    The step is halved, each level evaluating every pair at every new node
    in one call, until each pair's sum moves by at most 1e-10 of its own
    h sum |f|.  RuntimeError, naming the batch, if it has not converged
    after 10 halvings or its integrand does not vanish at the ends."""
    X, Y, scalar = _check_pairs(alpha, j, x, y)
    gap = np.where(np.array(alpha.alpha) > -0.5, np.abs(X) - np.abs(Y), X - Y)
    t_lo = min(max(float(np.min(np.sum(gap * gap, axis=1))) / 400.0, 1e-12), 1.0)
    n = math.ceil(math.log(40.0 / t_lo))  # the first step is at most 1
    u, h = np.linspace(math.log(t_lo), math.log(40.0), n + 1, retstep=True)
    f = lambda u: _delta_heat(alpha, j, np.exp(u), X, Y) * np.exp(0.5 * u)[:, None]
    vals = f(u)
    total = vals.sum(axis=0) - 0.5 * (vals[0] + vals[-1])
    size = np.abs(vals).sum(axis=0)
    why = "its integrand does not vanish at the ends"
    if np.all(np.maximum(np.abs(vals[0]), np.abs(vals[-1])) <= 1e-10 * h * size):
        why = "10 halvings of the step"
        for _ in range(10):
            new = f(u[0] + h * (np.arange(n) + 0.5))
            old, total, size = h * total, total + new.sum(axis=0), size + np.abs(new).sum(axis=0)
            n, h = 2 * n, 0.5 * h
            if np.all(np.abs(h * total - old) <= 1e-10 * h * size):
                vals = h * total / math.sqrt(math.pi)
                return float(vals[0]) if scalar else vals
    raise RuntimeError(f"direct t-integral did not converge on t in ({t_lo:.6g}, 40) ({why}) "
                       f"for alpha = {alpha.alpha}, j = {j} and the {X.shape[0]} pairs "
                       f"x = {X.tolist()}, y = {Y.tolist()}")


def _bump_profile(r: np.ndarray, lo: float, hi: float, amplitude: float) -> np.ndarray:
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    u = (r - mid) / half
    out = np.zeros_like(r)
    inside = np.abs(u) < 1.0
    out[inside] = amplitude * math.e * np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return out


@dataclass(frozen=True)
class _Bump:
    """Smooth bump of height ``amplitude`` on [r_lo, r_hi] in a radial
    variable; a subclass maps its support onto ``support_intervals``."""

    r_lo: float
    r_hi: float
    amplitude: float = 1.0

    def separation(self, other) -> float:
        """Smallest gap between the two supports, negative if they overlap."""
        return min(max(c - b, a - d) for a, b in self.support_intervals
                   for c, d in other.support_intervals)

    def overlaps(self, other) -> bool:
        return self.separation(other) < 0.0


@dataclass(frozen=True)
class IntervalBump(_Bump):
    """Smooth bump supported on [r_lo, r_hi] with 0 < r_lo: compactly
    supported away from the reflection hyperplane, the one-dimensional
    instance of the class the dual-pairing identity is stated for."""

    def __post_init__(self):
        if not 0.0 < self.r_lo < self.r_hi:
            raise ValueError("need 0 < r_lo < r_hi")

    @property
    def support_intervals(self) -> tuple[tuple[float, float], ...]:
        return ((self.r_lo, self.r_hi),)

    def __call__(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return _bump_profile(pts[:, 0], self.r_lo, self.r_hi, self.amplitude)


@dataclass(frozen=True)
class AnnularBump(_Bump):
    """Smooth Z2^d-invariant bump supported on the annulus r_lo <= |x| <= r_hi.

    Radial (hence invariant under every coordinate sign flip) and C^inf.
    Note that R_j maps invariant functions to functions odd in x_j, so the
    dual pairing of two such bumps vanishes identically; the substantive
    two-route comparison uses IntervalBump instead.
    """

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

def dual_pairing_check(f, g, j: int, alpha: AlphaParams,
                       rule: QuadratureRule, cfg: KernelConfig,
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
    if f.overlaps(g):
        raise ValueError("bumps must have disjoint supports")
    rcf = riesz_apply_spectral(project(f, alpha, max_degree, rule), j)
    cg = project(g, alpha, max_degree, rule)
    spectral = sum(v * cg[n] * math.exp(-36.0 * (sum(n) / max_degree) ** 8)
                   for n, v in zip(rcf.n.tolist(), rcf.values.tolist()))

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


def apriori_identity_check(n, i: int, j: int, alpha: AlphaParams):
    """Residual of delta_i^* delta_j h_n = R^_i R_j L h_n at coefficient level:
    a float for one multi-index, a (K,) array for each row of a (K, d) stack.
    The left side is the ladder coefficients; the right side composes the
    spectral operators on lambda_n at n, on all rows at once (they keep the
    rows' order).  A coefficient at another index than the left side's counts
    in full."""
    stack, single = _stack(n, alpha)
    rhs = riesz_adjoint_spectral(riesz_apply_spectral(
        SpectralCoeffs(stack, eigenvalue(stack, alpha), alpha), j), i)
    keep, e = stack[:, j] >= 1, np.eye(alpha.dim, dtype=int)
    down = stack[keep] - e[j]
    lhs = ladder_coeff(stack[keep, j], alpha[j]) * ladder_coeff(down[:, i] + 1, alpha[i])
    out = np.zeros(stack.shape[0])
    out[keep] = np.where(np.all(rhs.n == down + e[i], axis=1), np.abs(lhs - rhs.values),
                         np.maximum(np.abs(lhs), np.abs(rhs.values)))
    return float(out[0]) if single else out


def star_identity_check(f: SpectralCoeffs, n, j: int, alpha: AlphaParams):
    """Residual of <R_j f, h_{n-e_j}> = m(n_j,a_j)/sqrt(lambda_n) <f, h_n>: a
    float for one multi-index, a (B,) array for a (B, d) stack, row b against
    block b of f, which stacks B copies of one index stack (one R_j call)."""
    stack, single = _stack(n, alpha)
    B = len(stack)
    if B == 0 or len(f.n) % B or not (f.n.reshape(B, -1, alpha.dim) == f.n[:len(f.n) // B]).all():
        raise ValueError(f"f must stack {B} copies of one index stack, got {len(f.n)} rows")
    rf = riesz_apply_spectral(f, j)
    down = stack - np.eye(alpha.dim, dtype=int)[j]
    at = lambda c, m: np.sum(c.values.reshape(B, -1), axis=1,
                             where=(c.n.reshape(B, -1, alpha.dim) == m[:, None]).all(axis=2))
    # h_{n-e_j} is the null function where n_j = 0; both sides vanish by convention.
    out = np.where(stack[:, j] == 0, 0.0,
                   np.abs(at(rf, down) - riesz_multiplier(stack, alpha, j) * at(f, stack)))
    return float(out[0]) if single else out
