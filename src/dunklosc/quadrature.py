"""Gaussian quadrature for the reflection-invariant measures
w_alpha(x) dx = prod |x_i|^{2 a_i + 1} dx and spectral analysis/synthesis
in the generalized Hermite basis.

A one-dimensional rule is built from the generalized Gauss-Laguerre rule
for the weight u^a e^{-u} through the substitution u = x^2, which yields
a sign-symmetric node set {+-sqrt(u_i)}.  The stored weights carry the
e^{+x^2} compensation factor, so

    sum_i w_i f(x_i)  ~  integral f(x) w_alpha(x) dx

holds for integrands of Gaussian-times-polynomial type (in particular
for all products of generalized Hermite functions up to the exactness
degree).  Moment certificates are therefore phrased for the test
functions |x|^k e^{-x^2}, whose exact integrals are
Gamma((k + 2a + 2)/2).

Both Gauss rules of the package, this one and ``riesz.SchlafliMeasure``,
come from ``_gauss_nodes_logweights`` (Golub-Welsch, on numpy alone).  The
graded Gauss-Legendre rule on (0, 1) behind the kernel's zeta rule and
the ball quadrature of ``estimates`` is ``_graded_rule``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .hermite import AlphaParams, _stack, hermite_fn, hermite_fn_all_1d
from .special import log_gamma

__all__ = [
    "Rule1D",
    "QuadratureRule",
    "SpectralCoeffs",
    "gauss_rule_1d",
    "tensor_rule",
    "inner_product",
    "project",
    "synthesize",
    "multi_indices_upto",
]

MAX_POINTS = 512


@dataclass(frozen=True)
class Rule1D:
    """Symmetric rule for one coordinate: nodes +-sqrt(u_i), compensated weights."""

    alpha_j: float
    nodes: np.ndarray
    weights: np.ndarray
    exactness_degree: int


@dataclass(frozen=True)
class QuadratureRule:
    """Tensor rule on R^d with flattened nodes (M, d) and weights (M,)."""

    axes: tuple[Rule1D, ...]
    nodes: np.ndarray
    weights: np.ndarray
    exactness_degree: int
    alpha: AlphaParams

    @property
    def dim(self) -> int:
        return len(self.axes)


def _gauss_nodes_logweights(diag: np.ndarray, off: np.ndarray, log_mass: float,
                            polish: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule of the measure with Jacobi matrix (``diag``, ``off``) and
    mass e^{log_mass} (Golub and Welsch 1969, Math. Comp. 23): the nodes,
    ascending, and the logs of the weights 1 / sum_{k<m} p_k(x_i)^2.

    The nodes are the eigenvalues of the dense Jacobi matrix.  The weights
    come from the orthonormal recurrence, not from eigenvectors, whose
    squared first components are only absolutely accurate (~1e-16); the
    sum of squares is relative-accurate at every node.  A running
    log-scale keeps p_k finite at the far nodes of a wide rule.

    ``polish`` adds one Newton step on the zero of p_m from the same
    recurrence, moving each log-weight to first order with its node: on the
    Gegenbauer matrix the eigenvalues can be 7 ulps off near +-1, while the
    Laguerre recurrence is no more accurate than its eigenvalues.
    """
    m = diag.size
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    b = np.concatenate([[0.0], off, [1.0]])
    # The true p_j(x) is p * e^{logscale}; every step rescales so that the
    # stored partial sum of squares over k <= j is 1.  dp is p_j'(x) on the
    # same scale, pdp the partial sum of p_k p_k' (half that sum's slope).
    logscale = np.full(m, -0.5 * log_mass)
    p_prev, p, dp_prev, dp, pdp = np.zeros(m), np.ones(m), np.zeros(m), np.zeros(m), np.zeros(m)
    for j in range(1, m + 1):
        p_prev, p, dp_prev, dp = (p, ((x - diag[j - 1]) * p - b[j - 1] * p_prev) / b[j],
                                  dp, ((x - diag[j - 1]) * dp + p - b[j - 1] * dp_prev) / b[j])
        if j == m:
            break
        pdp += p * dp
        r = np.hypot(1.0, p)
        for a in (p_prev, p, dp_prev, dp):
            a /= r
        pdp /= r * r
        logscale += np.log(r)
    # p is p_m, unnormalized (b[m] = 1)
    step = -p / dp if polish else 0.0
    return x + step, -2.0 * logscale - 2.0 * pdp * step


@functools.cache
def _graded_rule(npoints: int, g: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes on (0,1), npoints // 2 per half,
    clustered at both endpoints by the power map v -> v^g on each half;
    returns (nodes, complements 1 - node, weights), the weights including
    the Jacobian of the map.  The right half's complements are 0.5 v^g
    exactly, so they stay positive where the node itself rounds to 1.0.
    Cached per (npoints, g), so the arrays are read-only."""
    v, wv = leggauss(npoints // 2)
    v = 0.5 * (v + 1.0)
    wv = 0.5 * wv
    left = 0.5 * v**g
    wl = 0.5 * g * v ** (g - 1.0) * wv
    nodes = np.concatenate([left, (1.0 - left)[::-1]])
    complements = np.concatenate([1.0 - left, left[::-1]])
    weights = np.concatenate([wl, wl[::-1]])
    for a in (nodes, complements, weights):
        a.flags.writeable = False
    return nodes, complements, weights


def gauss_rule_1d(alpha_j: float, npoints: int) -> Rule1D:
    """Rule with nodes {+-sqrt(u_i)} exact for p(x) |x|^{2a+1} e^{-x^2}
    up to degree 4*npoints - 1 (>= 2*npoints - 1 as required).

    ``npoints`` counts nodes per half-axis; the stored weights include
    the e^{+x^2} factor.  They are the inverse Christoffel function of
    the Laguerre rule (see ``_gauss_nodes_logweights``), formed in
    log space, so every weight is finite up to ``MAX_POINTS`` and even
    moments of |x|^k e^{-x^2} are reproduced to about 1e-13 relative.
    """
    if npoints < 1:
        raise ValueError("npoints must be >= 1")
    if npoints > MAX_POINTS:
        raise ValueError(f"npoints > {MAX_POINTS} rejected: orthogonal-polynomial recursion unstable")
    if alpha_j < -0.5:
        raise ValueError("alpha_j must be >= -1/2")
    # The rule for u^a e^{-u}, u = x^2, has mass Gamma(a+1); the e^{u}
    # compensation goes in log space, as e^{-u/2} underflows for u > ~1490.
    k = np.arange(npoints)
    u, logw = _gauss_nodes_logweights(2.0 * k + alpha_j + 1.0,
                                      np.sqrt(k[1:] * (k[1:] + alpha_j)), log_gamma(alpha_j + 1.0))
    x = np.sqrt(u)
    # Halve the mass and mirror to -x.
    w_half = 0.5 * np.exp(logw + u)
    nodes = np.concatenate([-x[::-1], x])
    weights = np.concatenate([w_half[::-1], w_half])
    return Rule1D(alpha_j=float(alpha_j), nodes=nodes, weights=weights,
                  exactness_degree=4 * npoints - 1)


def tensor_rule(rules: list[Rule1D] | tuple[Rule1D, ...]) -> QuadratureRule:
    """Product rule; exactness degree is the minimum over coordinates."""
    if not rules:
        raise ValueError("need at least one 1-d rule")
    axes = tuple(rules)
    grids = np.meshgrid(*[r.nodes for r in axes], indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=-1)
    weights = functools.reduce(np.multiply, np.meshgrid(*[r.weights for r in axes], indexing="ij"))
    alpha = AlphaParams(tuple(r.alpha_j for r in axes))
    return QuadratureRule(
        axes=axes,
        nodes=nodes,
        weights=weights.ravel(),
        exactness_degree=min(r.exactness_degree for r in axes),
        alpha=alpha,
    )


def default_rule(alpha: AlphaParams, npoints: int = 80) -> QuadratureRule:
    """Tensor rule with ``npoints`` per half-axis in every coordinate."""
    return tensor_rule([gauss_rule_1d(a, npoints) for a in alpha])


def _evaluate(f, nodes: np.ndarray, name: str = "f") -> np.ndarray:
    """The M values of ``f`` at the (M, d) nodes; a non-finite value
    raises, naming the offending node."""
    vals = np.asarray(f(nodes), dtype=float).reshape(nodes.shape[0])
    bad = ~np.isfinite(vals)
    if bad.any():
        raise ValueError(f"{name} returned non-finite value at node {nodes[int(np.argmax(bad))]}")
    return vals


def inner_product(f, g, rule: QuadratureRule) -> float:
    """<f, g>_alpha = sum w_i f(x_i) g(x_i).

    ``f`` and ``g`` take an (M, d) array of points and return M values.
    Non-finite function values raise, naming the offending node.
    """
    fv = _evaluate(f, rule.nodes)
    gv = _evaluate(g, rule.nodes, "g")
    return float(np.sum(rule.weights * fv * gv))


@dataclass
class SpectralCoeffs:
    """Truncated expansion f = sum_k values[k] h_{n[k]}^alpha on a (K, d) stack
    ``n`` of multi-indices, checked by ``_stack``; a repeated index adds up."""

    n: np.ndarray
    values: np.ndarray
    alpha: AlphaParams

    def __post_init__(self):
        n, single = _stack(self.n, self.alpha)
        values = np.asarray(self.values, dtype=float)
        if single or values.shape != (len(n),):
            raise ValueError(f"need a (K, {self.dim}) stack of sequences of {self.dim} integers "
                             f"and K values, got shapes {np.shape(self.n)} and {values.shape}")
        self.n, self.values = n.astype(int), values

    def __getitem__(self, n):
        """The coefficient of h_n, the sum of the values stored at n (0.0 if
        none): a float for one multi-index, a (B,) array for a (B, d) stack."""
        stack, single = _stack(n, self.alpha)
        keys, at = np.unique(np.concatenate([self.n, stack]), axis=0, return_inverse=True)
        at, K = at.ravel(), len(self.n)  # each key's values summed in their order, once
        out = np.bincount(at[:K], self.values, len(keys))[at[K:]]
        return float(out[0]) if single else out

    @property
    def dim(self) -> int:
        return self.alpha.dim

    def norm(self) -> float:
        return math.sqrt(sum(c * c for c in self.values.tolist()))


def multi_indices_upto(dim: int, max_degree: int) -> list[tuple[int, ...]]:
    """All n in N^dim with |n| <= max_degree, in lexicographic order."""
    return [n for n in itertools.product(range(max_degree + 1), repeat=dim)
            if sum(n) <= max_degree]


def project(f, alpha: AlphaParams, max_degree: int, rule: QuadratureRule) -> SpectralCoeffs:
    """Coefficients <f, h_n>_alpha for all |n| <= max_degree.

    Contracts the weighted function values against per-axis basis tables,
    so the cost is one tensor contraction per coordinate rather than one
    quadrature per index.
    """
    if rule.alpha.alpha != alpha.alpha:
        raise ValueError("rule was built for a different alpha")
    if rule.exactness_degree < 2 * max_degree + 2:
        raise ValueError(
            f"rule exactness {rule.exactness_degree} insufficient for degree {max_degree}"
        )
    fv = _evaluate(f, rule.nodes)
    shape = tuple(ax.nodes.size for ax in rule.axes)
    tensor = fv.reshape(shape)
    for ax in rule.axes:
        table = hermite_fn_all_1d(max_degree, ax.alpha_j, ax.nodes) * ax.weights
        # Contract the leading point axis; cycle the new index axis to the back
        # so the next coordinate's point axis is leading again.
        tensor = np.tensordot(table, tensor, axes=([1], [0]))
        tensor = np.moveaxis(tensor, 0, len(shape) - 1)
    n = np.array(multi_indices_upto(rule.dim, max_degree))
    return SpectralCoeffs(n, tensor[tuple(n.T)], alpha)


def synthesize(c: SpectralCoeffs, points) -> np.ndarray:
    """Evaluate sum_k values[k] h_{n[k]}^alpha at an (npoints, d) array."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != c.dim:
        raise ValueError("point dimension mismatch")
    return c.values @ hermite_fn(c.n, c.alpha, pts)
