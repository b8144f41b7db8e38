"""Named verification suites driven by a RunConfig.

Each check runs one module-level identity or estimate at desk scale and
returns a record (name, passed, tolerance, residual, seed).  The CLI
``verify`` subcommand serializes the full report as JSON and exits
nonzero when any check fails.  Wall times are collected in a separate
``timings`` map so the remainder of the report is byte-deterministic for
a fixed config and seed.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .estimates import (DRIFT_TOL, ap_power_weight, ball_measure, ball_measure_qmc, cz_scans,
                        reflection_distance, soni_scan)
from .heat import heat_apply_kernel, heat_kernel, heat_kernel_column, heat_kernel_series
from .hermite import (AlphaParams, delta_hermite, delta_star_hermite, eigenvalue,
                      hermite_fn, ladder_coeff)
from .polydunkl import fund_identity_check, monomial, verify_eldwa
from .quadrature import SpectralCoeffs, default_rule, multi_indices_upto
from .riesz import (KernelConfig, SchlafliMeasure, apriori_identity_check,
                    riesz_kernel, riesz_kernel_direct, riesz_multiplier,
                    star_identity_check)
from .special import bessel_ratio

__all__ = ["RunConfig", "parse_config", "serialize_config", "run_suite", "worst_of", "SUITES"]

SUITES = ("basis", "heat", "riesz", "estimates", "all")


@dataclass(frozen=True)
class RunConfig:
    """Validated experiment configuration; its fields and defaults are a
    config document's (parse_config)."""

    alpha: tuple[float, ...]
    max_degree: int = 40
    quad_points: int = 80
    kernel: KernelConfig = field(default_factory=KernelConfig)
    seed: int = 1234
    output: str | None = None

    @property
    def dimension(self) -> int:
        return len(self.alpha)

    @property
    def alpha_params(self) -> AlphaParams:
        return AlphaParams(self.alpha)

    @functools.cached_property
    def rule(self):
        """orthonormality's and the heat checks' rule, built on first use (4.1M nodes at d = 3)."""
        return default_rule(self.alpha_params, self.quad_points)

    @functools.cached_property
    def route_kernel(self) -> KernelConfig:
        """riesz_route_agreement's rule: at least 256 zeta and 64 s-nodes."""
        return replace(self.kernel, zeta_points=max(self.kernel.zeta_points, 256),
                       s_points_per_dim=max(self.kernel.s_points_per_dim, 64))

    @functools.cached_property
    def scan_kernel(self) -> KernelConfig:
        """cz_scans' rule: exact s on at least 192 zeta nodes, rerun doubled."""
        return replace(self.kernel, zeta_points=max(self.kernel.zeta_points, 192),
                       s_method="exact")

    def __post_init__(self):
        for i, a in enumerate(self.alpha):
            if not a >= -0.5:
                _fail(f"alpha[{i}]", f"must be >= -0.5, got {a}")
        if self.max_degree < 1:
            _fail("max_degree", "must be a positive integer")
        if not 1 <= self.quad_points <= 512:
            _fail("quad_points", "must be an integer in [1, 512]")
        try:  # refuse a grading too steep for a check's rule before any check
            self.route_kernel, self.scan_kernel.doubled()
        except ValueError as e:
            _fail("kernel.zeta_grading", f"{e} (a verify check runs that many zeta points)")


def _fail(path: str, msg: str):
    raise ValueError(f"config error at {path}: {msg}")


def _number(path: str, value, integer: bool = False):
    """``value`` if it is a finite JSON number (an integer if asked for),
    else a config error at ``path``; true and false are not numbers."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        _fail(path, "must be an integer" if integer else "must be a number")
    if not (integer or math.isfinite(value)):
        _fail(path, f"must be finite, got {value}")
    return value


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config document.

    Required: "alpha" (list of finite reals >= -1/2).  Optional: the other
    fields of RunConfig, with its defaults (max_degree 40, quad_points 80,
    seed 1234, output null), and "kernel", an object with the fields of
    KernelConfig, each defaulting to its value in KernelConfig().  Any
    other field, a value of the wrong type (true is not a number), a NaN
    or an infinity raises an error that names its path (e.g. kernel.bogus);
    RunConfig and KernelConfig check the ranges.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"config error: not valid JSON ({e})") from e
    if not isinstance(doc, dict):
        _fail("$", "top-level value must be an object")
    known = {f.name: f.default for f in fields(RunConfig)}
    for key in doc:
        if key not in known:
            _fail(key, "unknown field")
    if "alpha" not in doc:
        _fail("alpha", "required field missing")
    alpha = doc["alpha"]
    if not isinstance(alpha, list) or not alpha:
        _fail("alpha", "must be a nonempty list")
    for i, a in enumerate(alpha):
        _number(f"alpha[{i}]", a)
    ints = {key: _number(key, doc.get(key, known[key]), integer=True)
            for key in ("max_degree", "quad_points", "seed")}
    kdoc = doc.get("kernel", {})
    if not isinstance(kdoc, dict):
        _fail("kernel", "must be an object")
    kinds = {f.name: type(f.default) for f in fields(KernelConfig)}
    for key, value in kdoc.items():
        if key not in kinds:
            _fail(f"kernel.{key}", "unknown field")
        if kinds[key] is not str:
            _number(f"kernel.{key}", value, integer=kinds[key] is int)
    try:
        kernel = KernelConfig(**{key: float(value) if kinds[key] is float else value
                                 for key, value in kdoc.items()})
    except ValueError as e:
        _fail("kernel", str(e))
    output = doc.get("output")
    if output is not None and not isinstance(output, str):
        _fail("output", "must be a string path")
    return RunConfig(alpha=tuple(float(a) for a in alpha), kernel=kernel, output=output, **ints)


def serialize_config(cfg: RunConfig) -> str:
    return json.dumps(asdict(cfg), sort_keys=True, indent=2)


def worst_of(worst: float, value) -> float:
    """Running maximum of a check's residual that fails on non-finite input.

    ``value`` is a number or an array.  A NaN or infinity in it, or a NaN
    ``worst``, gives NaN, so ``worst <= tolerance`` is then false; plain
    ``max(worst, nan)`` would keep the old value and pass.
    """
    v = float(np.max(value))
    if math.isnan(worst) or not math.isfinite(v):
        return math.nan
    return max(worst, v)


def _record(name, passed, tolerance, residual, seed=None, **extra):
    rec = {"name": name, "passed": bool(passed), "tolerance": tolerance,
           "residual": float(residual)}
    if seed is not None:
        rec["seed"] = seed
    rec.update(extra)
    return rec


# --- basis suite -----------------------------------------------------------

def _check_orthonormality(cfg: RunConfig):
    al, rule = cfg.alpha_params, cfg.rule
    B = hermite_fn(np.array(multi_indices_upto(al.dim, min(cfg.max_degree, 8))), al, rule.nodes)
    G = (B * rule.weights) @ B.T
    resid = float(np.max(np.abs(G - np.eye(len(B)))))
    return _record("orthonormality", resid <= 1e-8, 1e-8, resid, basis_size=len(B))


def _grid_points(dim: int, lo=-4.0, hi=4.0, npts=21) -> np.ndarray:
    axes = [np.linspace(lo, hi, npts)] * dim
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def _check_ladder(cfg: RunConfig, npts: int | None = None):
    # delta_j h_n = m(n_j) h_{n - e_j} and delta_j^* h_n = m(n_j + 1) h_{n + e_j}
    # on the stack of all n; m(0) = 0, so n - e_j is clamped at 0.
    al = cfg.alpha_params
    n = np.array(multi_indices_upto(al.dim, min(cfg.max_degree, 10)))
    pts = _grid_points(al.dim, npts=npts or (21 if al.dim == 1 else 9))
    worst = 0.0
    for j, e_j in enumerate(np.eye(al.dim, dtype=int)):
        lower = ladder_coeff(n[:, j], al[j])[:, None] * hermite_fn(np.maximum(n - e_j, 0), al, pts)
        upper = ladder_coeff(n[:, j] + 1, al[j])[:, None] * hermite_fn(n + e_j, al, pts)
        worst = worst_of(worst, np.abs(delta_hermite(n, al, j, pts) - lower))
        worst = worst_of(worst, np.abs(delta_star_hermite(n, al, j, pts) - upper))
    return _record("ladder_identities", worst <= 1e-9, 1e-9, worst)


def _check_eigen_relation(cfg: RunConfig):
    # (1/2) sum_j (delta_j* delta_j + delta_j delta_j*) h_n = lambda_n h_n,
    # composed through the verified ladder coefficients; m(0) = 0 drops the
    # first term where n_j = 0.
    al = cfg.alpha_params
    n = np.array(multi_indices_upto(al.dim, min(cfg.max_degree, 6)))
    pts = _grid_points(al.dim, npts=13 if al.dim == 1 else 7)
    acc = np.zeros((len(n), pts.shape[0]))
    for j, e_j in enumerate(np.eye(al.dim, dtype=int)):
        down, up = 0.5 * ladder_coeff(n[:, j], al[j]), 0.5 * ladder_coeff(n[:, j] + 1, al[j])
        acc += down[:, None] * delta_star_hermite(np.maximum(n - e_j, 0), al, j, pts)
        acc += up[:, None] * delta_hermite(n + e_j, al, j, pts)
    worst = worst_of(0.0, np.abs(acc - eigenvalue(n, al)[:, None] * hermite_fn(n, al, pts)))
    return _record("eigen_relation", worst <= 1e-9, 1e-9, worst)


def _check_fischer(cfg: RunConfig):
    al = cfg.alpha_params
    rep = verify_eldwa(al, min(cfg.max_degree, 6))
    rule = default_rule(al, 3)  # exact to degree 11 >= 4 + 4 + 2, the check's need
    monomials = [monomial(n) for n in multi_indices_upto(al.dim, 4)]
    worst = worst_of(0.0, fund_identity_check(monomials, monomials, al, rule))
    passed = rep.passed and worst <= 1e-8
    return _record("fischer_layer", passed, 1e-8, worst,
                   eldwa_max_ratio=rep.max_norm_ratio)


# --- heat suite ------------------------------------------------------------

def _check_series_vs_kernel(cfg: RunConfig):
    al = cfg.alpha_params
    pts = _grid_points(al.dim, 0.0, 2.0, 9 if al.dim == 1 else 4)
    ii, jj = np.meshgrid(np.arange(pts.shape[0]), np.arange(pts.shape[0]), indexing="ij")
    X, Y = pts[ii.ravel()], pts[jj.ravel()]
    worst = 0.0
    for t in (0.3, 0.7, 1.5):
        closed = heat_kernel(al, t, X, Y)
        series = heat_kernel_series(al, t, X, Y, 60)
        worst = worst_of(worst, np.abs(closed - series) / np.abs(closed))
    return _record("heat_series_vs_kernel", worst <= 1e-6, 1e-6, worst)


def _check_semigroup(cfg: RunConfig):
    al, rule = cfg.alpha_params, cfg.rule
    rng = np.random.default_rng(cfg.seed)
    X = rng.uniform(-2, 2, size=(25, al.dim))
    Y = rng.uniform(-2, 2, size=(25, al.dim))
    taus = np.array([0.3, 0.7])
    lhs = heat_kernel(al, taus[:, None] + taus, X, Y)
    # sum_k w_k G_t(x_p, y_k) G_s(y_k, y_p) at every (t, s, p), from one column
    # call per point stack: G_s(., y) is the column at y, the kernel being
    # symmetric in (x, y).  einsum forms no (t, s, p, k) temporary.
    rhs = np.einsum("k,tpk,spk->tsp", rule.weights, heat_kernel_column(taus, X, rule),
                    heat_kernel_column(taus, Y, rule))
    worst = worst_of(0.0, np.abs(lhs - rhs) / np.abs(lhs))
    return _record("heat_semigroup", worst <= 1e-6, 1e-6, worst, seed=cfg.seed)


def _check_contraction(cfg: RunConfig):
    al, rule = cfg.alpha_params, cfg.rule
    rng = np.random.default_rng(cfg.seed)
    freqs = rng.uniform(0.3, 2.0, size=(10, al.dim))
    xs = rng.uniform(-2, 2, size=(5, al.dim))
    fs = [lambda pts, w=w: np.cos(pts @ w) for w in freqs]
    vals = heat_apply_kernel(fs, np.array([0.1, 1.0]), xs, rule)  # every (t, x, f) at once
    worst = worst_of(-math.inf, np.abs(vals) - 1.0)
    return _record("heat_contraction", worst <= 1e-10, 1e-10, worst_of(worst, 0.0),
                   seed=cfg.seed)


# --- riesz suite -----------------------------------------------------------

def _check_schlafli(cfg: RunConfig):
    worst = 0.0
    for nu in (-0.5, 0.0, 0.7, 2.0):
        m = SchlafliMeasure.from_nu(nu, 32)
        for z in (0.1, 1.0, 10.0):
            ref = bessel_ratio(nu, z)
            worst = worst_of(worst, abs(m.laplace(z) - ref) / abs(ref))
    return _record("schlafli_normalization", worst <= 1e-8, 1e-8, worst)


def _check_star(cfg: RunConfig):
    al = cfg.alpha_params
    rng = np.random.default_rng(cfg.seed)
    N = min(cfg.max_degree, 10)
    idx = np.array(multi_indices_upto(al.dim, N))
    values, n = zip(*[(rng.normal(size=len(idx)), idx[rng.integers(len(idx))]) for _ in range(100)])
    f = SpectralCoeffs(np.tile(idx, (len(n), 1)), np.concatenate(values), al)  # a block a draw
    worst = 0.0
    for j in range(al.dim):
        worst = worst_of(worst, star_identity_check(f, n, j, al))
    return _record("star_identity", worst <= 1e-9, 1e-9, worst, seed=cfg.seed)


def _check_apriori(cfg: RunConfig, max_index: int = 8):
    al = cfg.alpha_params
    rng = np.random.default_rng(cfg.seed + 1)
    draws = [(rng.integers(0, max_index + 1, size=al.dim), int(rng.integers(al.dim)),
              int(rng.integers(al.dim))) for _ in range(100)]
    worst = 0.0
    for i, j in dict.fromkeys((i, j) for _, i, j in draws):  # one call per (i, j)
        stack = np.array([n for n, *ij in draws if ij == [i, j]])
        worst = worst_of(worst, apriori_identity_check(stack, i, j, al))
    return _record("apriori_identity", worst <= 1e-12, 1e-12, worst, seed=cfg.seed + 1)


def _check_multiplier_norm(cfg: RunConfig):
    # On the truncation the L2 operator norm of R_j equals the largest
    # multiplier (diagonal-after-shift structure); confirm with a power
    # iteration on R^T R run to convergence of the Rayleigh quotient.  The
    # shift n -> n - e_j maps the indices with n_j > 0 onto those with |n| < N,
    # row for row in the lexicographic order; each j checks that (else NaN).
    al = cfg.alpha_params
    N = min(cfg.max_degree, 12)
    idx = np.array(multi_indices_upto(al.dim, N))
    dst = idx.sum(axis=1) < N
    worst = 0.0
    for j, e_j in enumerate(np.eye(al.dim, dtype=int)):
        src = idx[:, j] > 0
        if not np.array_equal(idx[src] - e_j, idx[dst]):
            worst = math.nan
            break
        mul = riesz_multiplier(idx[src], al, j)
        exact = float(np.max(mul)) if mul.size else 0.0
        rng = np.random.default_rng(cfg.seed + 2)
        v = np.abs(rng.normal(size=len(idx))) + 0.1
        v /= math.sqrt(v @ v)
        est = prev = 0.0
        for _ in range(50000):
            w = np.zeros(len(idx))
            w[dst] = mul * v[src]
            est = math.sqrt(w @ w)  # Rayleigh: |R v| for unit v
            u = np.zeros(len(idx))
            u[src] = mul * w[dst]
            nrm = math.sqrt(u @ u)
            if nrm == 0:
                break
            v = u / nrm
            if abs(est - prev) <= 1e-15 * max(est, 1.0):
                break
            prev = est
        worst = worst_of(worst, abs(est - exact))
    return _record("multiplier_norm", worst <= 1e-12, 1e-12, worst, seed=cfg.seed + 2)


def _check_route_agreement(cfg: RunConfig, n_pairs: int = 8):
    al = cfg.alpha_params
    rng = np.random.default_rng(cfg.seed + 3)
    pairs = []
    while len(pairs) < n_pairs:
        x = rng.uniform(-2.5, 2.5, size=al.dim)
        y = rng.uniform(-2.5, 2.5, size=al.dim)
        if not 0.5 <= np.linalg.norm(x - y) <= 5.0:
            continue
        if reflection_distance(x, y) < 0.4:
            continue
        pairs.append((x, y, int(rng.integers(al.dim))))
    X, Y, J = (np.array(v) for v in zip(*pairs))
    worst, refused = 0.0, []
    for j in np.unique(J):
        Xj, Yj = X[J == j], Y[J == j]
        try:
            dr = riesz_kernel_direct(al, int(j), Xj, Yj)
        except RuntimeError:  # no convergence: fail this check, not the whole report
            worst, refused = math.nan, refused + [int(j)]
            continue
        zt = riesz_kernel(al, int(j), Xj, Yj, cfg.route_kernel)
        worst = worst_of(worst, np.abs(zt - dr) / np.maximum(np.abs(dr), 1e-290))
    return _record("riesz_route_agreement", worst <= 1e-4, 1e-4, worst, seed=cfg.seed + 3,
                   pairs=n_pairs, **({"refused_j": refused} if refused else {}))


# --- estimates suite -------------------------------------------------------

def _check_soni(cfg: RunConfig):
    rep = soni_scan()
    return _record("soni_scan", rep.passed, 0.0, -rep.extra["min_relative_gap"],
                   min_gap=rep.extra["min_relative_gap"])


def _check_ap(cfg: RunConfig):
    # |x|^r is in A_p^alpha iff -(2a+2) < r < (2a+2)(p-1), or -(2a+2) < r <= 0
    # at p = 1: cases at each end, 1e-9 to either side of it, and at r = 0.
    cases = []
    for a in (-0.5, 0.0, 0.4, 1.3, 2.0):
        lo = -(2 * a + 2)
        for p in (1.0, 1.5, 2.0, 3.0, 4.0):
            hi = 0.0 if p == 1.0 else (2 * a + 2) * (p - 1)
            cases += [(a, p, lo, False), (a, p, lo + 1e-9, True), (a, p, lo - 1e-9, False),
                      (a, p, hi, p == 1.0), (a, p, hi - 1e-9, True), (a, p, hi + 1e-9, False),
                      (a, p, 0.0, True)]
    bad = sum(1 for a, p, r, e in cases if ap_power_weight(a, p, r) != e)
    return _record("ap_power_weight", bad == 0, 0.0, float(bad), cases=len(cases))


def _check_scans(cfg: RunConfig, n_pairs: int = 200):
    al = cfg.alpha_params
    g, s = cz_scans(al, 0, n_pairs=n_pairs, seed=cfg.seed, cfg=cfg.scan_kernel)
    passed = g.passed and s.passed
    return _record("cz_scans", passed, DRIFT_TOL, max(g.refinement_drift, s.refinement_drift),
                   seed=cfg.seed, growth_constant=g.max_ratio, smoothness_constant=s.max_ratio)


def _check_ball(cfg: RunConfig):
    al = cfg.alpha_params
    if al.dim == 1:
        p = 2 * al[0] + 2
        F = lambda u: math.copysign(abs(u) ** p, u) / p
        resid = abs(ball_measure(al, [0.3], 0.9) - (F(1.2) - F(-0.6)))
        return _record("ball_measure", resid <= 1e-12, 1e-12, resid)
    # The nested quadrature against the quasi-Monte Carlo oracle.  Its
    # standard error comes from 8 replicates (ddof 1), so the error over
    # the standard error is a Student t with 7 degrees of freedom: the
    # gate at its 0.9995 quantile, 5.408 SE, fails 0.1% of seeds on exact
    # values.
    rng = np.random.default_rng(cfg.seed)
    x = rng.uniform(-1, 1, size=al.dim)
    v = ball_measure(al, x, 0.9)
    v_mc, se_mc = ball_measure_qmc(al, x, 0.9, npoints=1 << 18, seed=cfg.seed + 9)
    resid = abs(v - v_mc)
    tol = 5.408 * se_mc
    return _record("ball_measure", resid <= tol, tol, resid, seed=cfg.seed)


_SUITE_CHECKS = {
    "basis": [_check_orthonormality, _check_ladder, _check_eigen_relation, _check_fischer],
    "heat": [_check_series_vs_kernel, _check_semigroup, _check_contraction],
    "riesz": [_check_schlafli, _check_star, _check_apriori, _check_multiplier_norm,
              _check_route_agreement],
    "estimates": [_check_soni, _check_ap, _check_ball, _check_scans],
}


def run_suite(cfg: RunConfig, suite: str = "all") -> tuple[int, dict]:
    """Run the named check suite; returns (exit_status, report)."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    names = ["basis", "heat", "riesz", "estimates"] if suite == "all" else [suite]
    checks = []
    timings = {}
    for sname in names:
        for fn in _SUITE_CHECKS[sname]:
            t0 = time.perf_counter()
            rec = fn(cfg)
            timings[rec["name"]] = round(time.perf_counter() - t0, 3)
            rec["suite"] = sname
            checks.append(rec)
    all_passed = all(c["passed"] for c in checks)
    report = {
        "config": json.loads(serialize_config(cfg)),
        "suite": suite,
        "checks": checks,
        "all_passed": all_passed,
        "timings": timings,
    }
    return (0 if all_passed else 1), report
