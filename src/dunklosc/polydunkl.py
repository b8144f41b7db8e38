"""Exact polynomial calculus for the Z2^d Dunkl operators.

On monomials the Dunkl derivative acts by the parity rule

    T_j x^n = n_j x^{n - e_j}            (n_j even)
    T_j x^n = (n_j + 2 a_j + 1) x^{n-e_j} (n_j odd)

extended linearly; everything else (Laplacian, the terminating series
exp(-Delta/4), the Fischer pairing [p, q] = (p(T) q)(0)) is built by
composition.  Coefficients are plain floats: the identities verified at
the degrees used here are numerically benign, and all checks are phrased
as residual <= tolerance rather than exact equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hermite import AlphaParams, a_coeff
from .quadrature import QuadratureRule, multi_indices_upto
from .special import log_gamma

__all__ = [
    "Polynomial",
    "monomial",
    "dunkl_T",
    "dunkl_laplacian",
    "exp_neg_lap_quarter",
    "fischer_product",
    "EldwaReport",
    "verify_eldwa",
    "fund_identity_check",
]


@dataclass(frozen=True)
class Polynomial:
    """Sparse polynomial: multi-index exponent -> coefficient."""

    terms: dict[tuple[int, ...], float]
    dimension: int

    def __post_init__(self):
        clean = {}
        for n, c in self.terms.items():
            if len(n) != self.dimension:
                raise ValueError(f"exponent {n} does not match dimension {self.dimension}")
            if c != 0.0:
                clean[tuple(int(e) for e in n)] = float(c)
        object.__setattr__(self, "terms", clean)

    @property
    def degree(self) -> int:
        """Total degree; -1 for the null polynomial."""
        return max((sum(n) for n in self.terms), default=-1)

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self) -> bool:
        degs = {sum(n) for n in self.terms}
        return len(degs) <= 1

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if other.dimension != self.dimension:
            raise ValueError("dimension mismatch")
        terms = dict(self.terms)
        for n, c in other.terms.items():
            terms[n] = terms.get(n, 0.0) + c
        return Polynomial(terms, self.dimension)

    def scale(self, c: float) -> "Polynomial":
        return Polynomial({n: c * v for n, v in self.terms.items()}, self.dimension)

    def __call__(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros(pts.shape[0])
        powers = {(i, e): pts[:, i] ** e for n in self.terms for i, e in enumerate(n) if e}
        for n, c in self.terms.items():
            out += c * math.prod((powers[i, e] for i, e in enumerate(n) if e),
                                 start=np.ones(pts.shape[0]))
        return out

    def constant_term(self) -> float:
        return self.terms.get((0,) * self.dimension, 0.0)


def monomial(n: tuple[int, ...], coeff: float = 1.0) -> Polynomial:
    return Polynomial({tuple(n): coeff}, len(n))


def dunkl_T(j: int, alpha: AlphaParams, p: Polynomial) -> Polynomial:
    """Dunkl derivative T_j^alpha on polynomials (0-based j)."""
    if not 0 <= j < p.dimension:
        raise ValueError(f"coordinate {j} out of range for dimension {p.dimension}")
    if p.dimension != alpha.dim:
        raise ValueError("alpha dimension mismatch")
    terms: dict[tuple[int, ...], float] = {}
    for n, c in p.terms.items():
        nj = n[j]
        if nj == 0:
            continue
        factor = nj if nj % 2 == 0 else nj + 2.0 * alpha[j] + 1.0
        m = n[:j] + (nj - 1,) + n[j + 1:]
        terms[m] = terms.get(m, 0.0) + c * factor
    return Polynomial(terms, p.dimension)


def dunkl_laplacian(alpha: AlphaParams, p: Polynomial) -> Polynomial:
    """Delta_alpha p = sum_j T_j(T_j p)."""
    out = Polynomial({}, p.dimension)
    for j in range(p.dimension):
        out = out + dunkl_T(j, alpha, dunkl_T(j, alpha, p))
    return out


def exp_neg_lap_quarter(alpha: AlphaParams, p: Polynomial) -> Polynomial:
    """exp(-Delta_alpha/4) p; the series terminates after ~deg/2 steps."""
    out = p
    term = p
    i = 0
    while not term.is_zero():
        i += 1
        term = dunkl_laplacian(alpha, term).scale(-0.25 / i)
        out = out + term
    return out


def fischer_product(p: Polynomial, q: Polynomial, alpha: AlphaParams) -> float:
    """[p, q]_alpha = (p(T) q)(0): substitute T_j for x_j in p, apply to q."""
    if p.dimension != q.dimension:
        raise ValueError("dimension mismatch")
    total = 0.0
    for n, c in p.terms.items():
        r = q
        for j, e in enumerate(n):
            for _ in range(e):
                if r.is_zero():
                    break
                r = dunkl_T(j, alpha, r)
        total += c * r.constant_term()
    return total


@dataclass(frozen=True)
class EldwaReport:
    """Outcome of the orthogonality/norm-growth hypothesis check."""

    passed: bool
    max_norm_ratio: float
    max_cross_product: float
    pairs_checked: int


def _phi_basis(alpha: AlphaParams, max_degree: int) -> list[tuple[tuple[int, ...], Polynomial]]:
    basis = []
    for n in multi_indices_upto(alpha.dim, max_degree):
        norm = math.prod(a_coeff(ni, alpha[i]) for i, ni in enumerate(n))
        basis.append((n, monomial(n, 1.0 / math.sqrt(norm))))
    return basis


def verify_eldwa(alpha: AlphaParams, max_degree: int) -> EldwaReport:
    """Check, for phi_n = a_n^{-1/2} x^n with |n| <= max_degree, that the
    nonvanishing T_j phi_n are pairwise Fischer-orthogonal and that their
    Fischer norms grow no faster than sqrt(|n| + 1).

    Null functions are excluded by the exact structural test (empty term
    map); the reported ratio is max ||T_j phi_n|| / sqrt(|n| + 1).
    """
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    basis = _phi_basis(alpha, max_degree)
    max_ratio = 0.0
    max_cross = 0.0
    pairs = 0
    ok = True
    for j in range(alpha.dim):
        images = []
        for n, phi in basis:
            tphi = dunkl_T(j, alpha, phi)
            if tphi.is_zero():
                continue
            norm2 = fischer_product(tphi, tphi, alpha)
            if norm2 <= 0:
                ok = False
                continue
            max_ratio = max(max_ratio, math.sqrt(norm2) / math.sqrt(sum(n) + 1.0))
            images.append((tphi, math.sqrt(norm2)))
        for i in range(len(images)):
            for k in range(i + 1, len(images)):
                u, nu = images[i]
                v, nv = images[k]
                cross = abs(fischer_product(u, v, alpha)) / (nu * nv)
                max_cross = max(max_cross, cross)
                pairs += 1
                if cross > 1e-10:
                    ok = False
    return EldwaReport(passed=ok, max_norm_ratio=max_ratio,
                       max_cross_product=max_cross, pairs_checked=pairs)


def fund_identity_check(p, q, alpha: AlphaParams, rule: QuadratureRule):
    """Residual of the Fischer-vs-integral identity

        [p, q]_alpha = c_alpha^{-1} 2^{(m1+m2)/2}
                       int exp(-Delta/4)p exp(-Delta/4)q e^{-|x|^2} w_alpha dx

    for homogeneous p, q of degrees m1, m2.  The integral side runs
    through the quadrature rule (exactness >= m1 + m2 + 2 required).

    ``p`` and ``q`` may also be sequences of polynomials; the result is
    then the (len(p), len(q)) array of residuals of every pair, and each
    exp(-Delta/4) polynomial is evaluated at the nodes once.
    """
    ps = [p] if isinstance(p, Polynomial) else list(p)
    qs = [q] if isinstance(q, Polynomial) else list(q)
    if not all(r.is_homogeneous() for r in ps + qs):
        raise ValueError("fund_identity_check requires homogeneous polynomials")
    degree = lambda r: max(r.degree, 0)
    if rule.exactness_degree < max(map(degree, ps)) + max(map(degree, qs)) + 2:
        raise ValueError("rule exactness insufficient")
    c_alpha = math.exp(sum(log_gamma(a + 1.0) for a in alpha))
    gauss = np.exp(-np.sum(rule.nodes**2, axis=1))
    vals = {key: exp_neg_lap_quarter(alpha, r)(rule.nodes)
            for key, r in {id(r): r for r in ps + qs}.items()}
    out = np.empty((len(ps), len(qs)))
    for k, pk in enumerate(ps):
        weighted = rule.weights * vals[id(pk)]
        for m, qm in enumerate(qs):
            integral = float(np.sum(weighted * vals[id(qm)] * gauss))
            rhs = 2.0 ** ((degree(pk) + degree(qm)) / 2.0) * integral / c_alpha
            out[k, m] = abs(fischer_product(pk, qm, alpha) - rhs)
    return float(out[0, 0]) if isinstance(p, Polynomial) and isinstance(q, Polynomial) else out
