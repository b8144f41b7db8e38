"""Empirical verification of the Calderon-Zygmund standard estimates for
the Riesz kernels, ball measures for w_alpha, the power-weight A_p
criterion, and Soni-inequality scans.

The growth/smoothness constants are existential, so the scans report the
fitted constant (the max of |R| w(B) resp. |grad R| |x-y| w(B) over a
seeded sample) together with a refinement drift: the relative change of
that constant when the kernel quadrature resolution is doubled (a scan
passes at DRIFT_TOL = 5% or less), and where the maximum sits (|x-y| and
``reflection_distance`` of the argmax pair).  ``cz_scans`` runs both on one
sample, with R and its analytic gradient (central differences are its test
oracle) from one kernel pass; ``smoothness_scan`` is its second report, and
``growth_scan`` alone runs the value-only kernel.  Every report is
reproducible bit-for-bit from its seed.

Ball measures w_alpha(B(x, r)) are deterministic: a closed form in d = 1
and, since w_alpha is a product over coordinates, a nested
one-dimensional quadrature in d >= 2, batched over balls.  Randomly shifted
Kronecker quasi-Monte Carlo (``ball_measure_qmc``) is their independent oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .hermite import AlphaParams
from .quadrature import _graded_rule
from .riesz import KernelConfig, riesz_kernel, riesz_kernel_with_gradient
from .special import bessel_i_scaled

__all__ = [
    "ScanReport",
    "ball_measure",
    "ball_measure_qmc",
    "pair_sample",
    "reflection_distance",
    "growth_scan",
    "smoothness_scan",
    "cz_scans",
    "ap_power_weight",
    "soni_scan",
]

DRIFT_TOL = 0.05  # a scan's largest relative change under the doubled quadrature

# Nested ball quadrature (d >= 2): graded Gauss-Legendre nodes per theta
# piece and the grading exponent (as in the zeta rule: plain Gauss-Legendre
# converges only algebraically at the |u|^{2a+1} endpoints for a in
# (-1/2, 0)), and the innermost evaluations per chunk of balls, which
# bounds the working memory.
BALL_NODES = 32
BALL_GRADING = 3.0
BALL_CHUNK = 1 << 16
_BALL_T, _, _BALL_W = _graded_rule(BALL_NODES, BALL_GRADING)


@dataclass(frozen=True)
class ScanReport:
    """Outcome of a max-over-samples scan."""

    max_ratio: float
    argmax_pair: tuple[tuple[float, ...], tuple[float, ...]]
    sample_count: int
    refinement_drift: float
    seed: int
    passed: bool
    extra: dict = field(default_factory=dict)


def _antiderivative(a: float, v: np.ndarray, positive_orthant: bool) -> np.ndarray:
    """F with F' = |v|^{2a+1}: sgn(v) |v|^{2a+2} / (2a+2), or
    max(v, 0)^{2a+2} / (2a+2) on the half-line."""
    p = 2.0 * a + 2.0
    if positive_orthant:
        return np.maximum(v, 0.0) ** p / p
    return np.sign(v) * np.abs(v) ** p / p


def _ball_quadrature(alpha: tuple[float, ...], X: np.ndarray, R: np.ndarray,
                     positive_orthant: bool) -> np.ndarray:
    """w_alpha(B(x, r)) for rows x of X (B, k) and radii R (B,), nested over
    coordinates.  With u_+- = x_1 +- r sin(theta) and h = r cos(theta), the
    inner measure is even in theta, so each level runs over [0, pi/2]:

        w_k(x, r) = int_0^{pi/2} (|u_+|^{2a_1+1} + |u_-|^{2a_1+1}) w_{k-1}(x', h) h dtheta,

    each term kept where u_+- > 0 on the positive orthant, down to the closed
    form w_1(v, h) = F(v + h) - F(v - h).  The kinks arcsin(min(|x_1|/r, 1))
    and arccos(min(|x'_S|/r, 1)), for each nonempty subset S of the remaining
    coordinates, split [0, pi/2] into at most 2^{k-1} + 1 pieces; every piece
    of positive length gets the graded rule.  A coordinate with a = -1/2 has
    the weight 1, so off the positive orthant there is no arcsin cut at
    a_1 = -1/2 and no arccos cut for an S holding such a coordinate."""
    a = alpha[0]
    x1 = X[:, 0]
    if X.shape[1] == 1:
        return (_antiderivative(a, x1 + R, positive_orthant)
                - _antiderivative(a, x1 - R, positive_orthant))
    rest = X[:, 1:]
    cuts = [np.zeros(R.shape), np.full(R.shape, 0.5 * math.pi)]
    if a > -0.5 or positive_orthant:
        cuts.append(np.arcsin(np.minimum(np.abs(x1) / R, 1.0)))
    for mask in itertools.product((False, True), repeat=rest.shape[1]):
        if any(mask) and (positive_orthant or all(b > -0.5 for b, m in zip(alpha[1:], mask) if m)):
            cuts.append(np.arccos(np.minimum(np.linalg.norm(rest[:, mask], axis=1) / R, 1.0)))
    cuts = np.sort(np.stack(cuts, axis=1), axis=1)
    width = np.diff(cuts, axis=1)
    ball, piece = np.nonzero(width > 0.0)
    theta = cuts[ball, piece, None] + width[ball, piece, None] * _BALL_T
    dtheta = width[ball, piece, None] * _BALL_W
    rs = R[ball, None] * np.sin(theta)
    h = R[ball, None] * np.cos(theta)
    wu = sum(np.abs(u) ** (2.0 * a + 1.0) * ((u > 0.0) if positive_orthant else 1.0)
             for u in (x1[ball, None] + rs, x1[ball, None] - rs))
    inner = _ball_quadrature(alpha[1:], np.repeat(rest[ball], _BALL_T.size, axis=0),
                             h.ravel(), positive_orthant).reshape(h.shape)
    # Pieces of one ball are summed in order, so a ball's value does not
    # depend on the other balls of the batch.
    return np.bincount(ball, weights=np.sum(dtheta * wu * h * inner, axis=1),
                       minlength=R.size)


def _balls(alpha: AlphaParams, x, r) -> tuple[np.ndarray, np.ndarray, bool]:
    """Centres (P, d), radii (P,) and whether the call was for one ball."""
    R = np.asarray(r, dtype=float)
    scalar = R.ndim == 0
    X = np.asarray(x, dtype=float)
    X = X.reshape(1, -1) if scalar else X
    R = R.reshape(-1)
    if X.shape != (R.size, alpha.dim):
        raise ValueError("center dimension mismatch")
    for bad, what in ((~(np.isfinite(X).all(axis=1) & np.isfinite(R)), "is not finite"),
                      (~(R > 0), "has a non-positive radius")):
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(f"ball {k} {what}: centre {X[k].tolist()}, radius {R[k]}")
    return X, R, scalar


def ball_measure(alpha: AlphaParams, x, r, positive_orthant: bool = False):
    """w_alpha(B(x, r)).

    d = 1 uses the closed-form antiderivative sgn(u) |u|^{2a+2}/(2a+2);
    d >= 2 nests one-dimensional integrals over the coordinates (see
    ``_ball_quadrature``), split at the integrand's kinks (none from a
    coordinate with alpha_i = -1/2 off the positive orthant), with
    BALL_NODES graded Gauss-Legendre nodes per piece (relative error
    below 1e-8 for alpha_i in [-1/2, 5/2]).  ``ball_measure_qmc`` is the
    independent oracle for both.

    ``x`` of shape (P, d) with ``r`` of shape (P,) is a batch of balls,
    and the result is then an array of shape (P,); each entry equals the
    single-ball call bit for bit.

    ``positive_orthant`` restricts to B^+ = B intersect R^d_+ with the
    restricted weight (the half-space variant used in the kernel-estimate
    reduction).
    """
    X, R, scalar = _balls(alpha, x, r)
    # Level k of the nesting has at most 2^{k-1} + 1 theta pieces (fewer
    # with -1/2 entries; the bound is the worst case).
    per_ball = math.prod(BALL_NODES * (2 ** (k - 1) + 1) for k in range(2, alpha.dim + 1))
    step = max(BALL_CHUNK // per_ball, 1)
    vals = np.concatenate([
        _ball_quadrature(alpha.alpha, X[lo:lo + step], R[lo:lo + step], positive_orthant)
        for lo in range(0, R.size, step)])
    return float(vals[0]) if scalar else vals


def ball_measure_qmc(alpha: AlphaParams, x, r, npoints: int, seed: int,
                     positive_orthant: bool = False):
    """w_alpha(B(x, r)) and its standard error by randomly shifted
    quasi-Monte Carlo: the weight times the indicator, averaged over
    ``npoints`` points of the bounding box, with the standard error taken
    across 8 replicates, each the Kronecker points frac(n g^-(1..d) + shift),
    g^(d+1) = g + 1, under its own uniform shift from ``default_rng(seed)``
    (Sloan and Joe 1994).  Balls and ``positive_orthant`` as in
    ``ball_measure``, of which it is the independent oracle."""
    X, R, scalar = _balls(alpha, x, r)
    d, reps = alpha.dim, 8
    g = 2.0
    for _ in range(64):  # a contraction: converged to rounding long before 64 steps
        g = (1.0 + g) ** (1.0 / (d + 1))
    # The points are the columns of (d, n) arrays, so reductions over coordinates run on whole rows.
    steps = g ** -np.arange(1.0, d + 1)[:, None] * np.arange(1, max(npoints // reps, 1) + 1)
    ex = np.array(list(alpha))[:, None]
    means = np.empty((R.size, reps))
    for k, shift in enumerate(np.random.default_rng(seed).random((reps, d, 1))):
        v = 2.0 * np.modf(steps + shift)[0] - 1.0  # mapped to [-1, 1)^d
        inside = np.einsum("dn,dn->n", v, v) < 1.0
        for i, (x, r) in enumerate(zip(X, R)):
            pts = x[:, None] + v * r
            keep = inside & np.all(pts > 0.0, axis=0) if positive_orthant else inside
            vals = np.prod(np.abs(pts) ** (2.0 * ex + 1.0), axis=0) * keep
            means[i, k] = np.mean(vals) * (2.0 * r) ** d
    vals, ses = np.mean(means, axis=1), np.std(means, axis=1, ddof=1) / math.sqrt(reps)
    return (float(vals[0]), float(ses[0])) if scalar else (vals, ses)


def pair_sample(d: int, n_pairs: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded pair sampler: base point uniform in [-3, 3]^d, offset
    log-uniform in |x - y| over [1e-2, 10] with uniform direction."""
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be at least 1, got {n_pairs}")
    if seed < 0:
        raise ValueError(f"seed must be at least 0, got {seed}")
    rng = np.random.default_rng(seed)
    X = rng.uniform(-3.0, 3.0, size=(n_pairs, d))
    dist = np.exp(rng.uniform(math.log(1e-2), math.log(10.0), size=n_pairs))
    direc = rng.normal(size=(n_pairs, d))
    direc /= np.linalg.norm(direc, axis=1, keepdims=True)
    Y = X + dist[:, None] * direc
    return X, Y


def reflection_distance(x, y):
    """min over the nontrivial sign flips sigma of |sigma x - y|: the
    distance to the nearest reflected diagonal, for a point pair (a float)
    or for each row of (P, d) stacks (an array)."""
    X = np.asarray(x, dtype=float)
    Y = np.asarray(y, dtype=float)
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=X.shape[-1]))[1:])
    dist = np.min(np.linalg.norm(X[..., None, :] * signs - Y[..., None, :], axis=-1), axis=-1)
    return float(dist) if dist.ndim == 0 else dist


def _scan(kernel, alpha: AlphaParams, j: int, n_pairs: int, seed: int, cfg: KernelConfig,
          positive_orthant: bool) -> tuple[ScanReport, ...]:
    """The max over sampled pairs of |R_j(x,y)| ("growth") and, where ``kernel``
    returns (R_j, grad R_j) and not (R_j,), of |grad R_j| |x-y| ("smoothness"),
    times w_alpha(B(x, |x-y|)), from one ``kernel`` call per resolution.

    PASS requires every value finite and the max stable (<= DRIFT_TOL)
    under a doubled-resolution rerun of the kernel quadrature.
    """
    fine = cfg.doubled()  # built first: a rule it refuses is refused before any work
    X, Y = pair_sample(alpha.dim, n_pairs, seed)
    dist = np.linalg.norm(X - Y, axis=1)
    balls = ball_measure(alpha, X, dist, positive_orthant=positive_orthant)
    measures = {"growth": np.abs, "smoothness": lambda g: np.linalg.norm(g, axis=1) * dist}
    passes = [kernel(alpha, j, X, Y, c) for c in (cfg, fine)]
    reports = []
    for (check, measure), *outs in zip(measures.items(), *passes):
        coarse, refined = (measure(out) * balls for out in outs)
        imax = int(np.argmax(coarse))
        m1, m2 = float(coarse[imax]), float(np.max(refined))
        drift = abs(m1 - m2) / m2 if m2 > 0 else math.inf
        reports.append(ScanReport(
            max_ratio=m1, argmax_pair=(tuple(X[imax]), tuple(Y[imax])), sample_count=n_pairs,
            refinement_drift=drift, seed=seed,
            passed=bool(np.all(np.isfinite(coarse))) and drift <= DRIFT_TOL,
            extra={"check": check, "alpha": list(alpha.alpha), "j": j,
                   "argmax_distance": float(dist[imax]),
                   "argmax_reflection_distance": reflection_distance(X[imax], Y[imax])}))
    return tuple(reports)


def growth_scan(alpha: AlphaParams, j: int, n_pairs: int = 1000, seed: int = 1234, *,
                cfg: KernelConfig, positive_orthant: bool = False) -> ScanReport:
    """max over sampled pairs of |R_j(x,y)| w_alpha(B(x, |x-y|)) from the
    value-only ``riesz_kernel``; see ``_scan``."""
    return _scan(lambda *args: (riesz_kernel(*args),), alpha, j, n_pairs, seed, cfg,
                 positive_orthant)[0]


def smoothness_scan(alpha: AlphaParams, j: int, n_pairs: int = 1000, seed: int = 1234, *,
                    cfg: KernelConfig, positive_orthant: bool = False) -> ScanReport:
    """max over sampled pairs of |grad R_j| |x-y| w_alpha(B(x, |x-y|)), with
    the analytic gradient over (x, y): the second report of ``cz_scans``."""
    return cz_scans(alpha, j, n_pairs, seed, cfg=cfg, positive_orthant=positive_orthant)[1]


def cz_scans(alpha: AlphaParams, j: int, n_pairs: int = 1000, seed: int = 1234, *,
             cfg: KernelConfig, positive_orthant: bool = False) -> tuple[ScanReport, ScanReport]:
    """(``growth_scan``, ``smoothness_scan``) from one sample, one ball batch and
    one ``riesz_kernel_with_gradient`` pass per resolution; the growth report
    equals ``growth_scan``'s."""
    return _scan(riesz_kernel_with_gradient, alpha, j, n_pairs, seed, cfg, positive_orthant)


def ap_power_weight(alpha_j: float, p: float, r: float) -> bool:
    """Membership of |x|^r in the one-dimensional Muckenhoupt class A_p^alpha:
    for p > 1, -(2a+2) < r < (2a+2)(p-1); for p = 1, -(2a+2) < r <= 0."""
    if p < 1:
        raise ValueError("p must be >= 1")
    lo = -(2.0 * alpha_j + 2.0)
    if p == 1:
        return lo < r <= 0.0
    return lo < r < (2.0 * alpha_j + 2.0) * (p - 1.0)


def soni_scan() -> ScanReport:
    """Strict monotonicity in the order: I_{nu+1}(z) < I_nu(z) on a grid of
    20 orders nu in [-1/2, 7.5] by 30 arguments z in [1e-3, 1e3].

    Uses the exponentially scaled values (the common e^{-z} factor
    cancels).  max_ratio is the largest I_{nu+1}/I_nu observed; the
    report also carries the smallest relative gap."""
    nu_grid = np.concatenate([[-0.5], -0.5 + np.geomspace(0.05, 8.0, 19)])
    z_grid = np.geomspace(1e-3, 1e3, 30)
    worst = -math.inf
    min_gap = math.inf
    arg = ((0.0,), (0.0,))
    for nu in nu_grid:
        if nu == -0.5:
            # I_{1/2}/I_{-1/2} = tanh z; the gap 1 - tanh z = 2/(e^{2z}+1)
            # is below machine resolution as a difference for z > ~18,
            # so use the stable closed form.
            gap = 2.0 / (np.exp(np.minimum(2.0 * z_grid, 700.0)) + 1.0)
            ratio = 1.0 - gap
        else:
            lo = bessel_i_scaled(nu + 1.0, z_grid)
            hi = bessel_i_scaled(nu, z_grid)
            ratio = lo / hi
            gap = (hi - lo) / hi
        k = int(np.argmax(ratio))
        if ratio[k] > worst:
            worst = float(ratio[k])
            arg = ((float(nu),), (float(z_grid[k]),))
        min_gap = min(min_gap, float(np.min(gap)))
    return ScanReport(
        max_ratio=worst,
        argmax_pair=arg,
        sample_count=len(nu_grid) * len(z_grid),
        refinement_drift=0.0,
        seed=0,
        passed=min_gap > 0.0,
        extra={"check": "soni", "min_relative_gap": min_gap},
    )
