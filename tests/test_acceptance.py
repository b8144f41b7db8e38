"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here, not configurable.
"""

import math
import time

import numpy as np

from dunklosc.estimates import soni_scan
from dunklosc.heat import maximal_empirical
from dunklosc.hermite import AlphaParams
from dunklosc.quadrature import gauss_rule_1d, tensor_rule
from dunklosc.riesz import (AnnularBump, IntervalBump, KernelConfig, SchlafliMeasure,
                            dual_pairing_check)
from dunklosc.suite import (RunConfig, _check_ap, _check_apriori, _check_contraction,
                            _check_fischer, _check_ladder, _check_orthonormality,
                            _check_route_agreement, _check_scans, _check_schlafli,
                            _check_semigroup, _check_series_vs_kernel, _check_star, worst_of)

from conftest import ALPHA_MATRIX

KERNEL_CFG = KernelConfig(zeta_points=256, zeta_grading=3.0, s_points_per_dim=64,
                          s_method="gauss-jacobi")


def report(num, name, passed, detail):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {num} ({name}): {detail}"


def test_01_orthonormality():
    t0 = time.time()
    worst = 0.0
    for alpha in ALPHA_MATRIX:
        worst = worst_of(worst, _check_orthonormality(RunConfig(alpha))["residual"])
    elapsed = time.time() - t0
    report(1, "orthonormality", worst <= 1e-8 and elapsed <= 30.0,
           f"max |<h_n,h_m> - delta| = {worst:.3g} <= 1e-8, {elapsed:.1f} s <= 30 s")


def test_02_ladder_identities():
    worst = 0.0
    for alpha in ALPHA_MATRIX:
        worst = worst_of(worst, _check_ladder(RunConfig(alpha), npts=41)["residual"])
    report(2, "ladder_identities", worst <= 1e-9,
           f"max pointwise residual = {worst:.3g} <= 1e-9")


def test_03_heat_kernel_equivalence():
    worst = 0.0
    for alpha in ALPHA_MATRIX:
        worst = worst_of(worst, _check_series_vs_kernel(RunConfig(alpha))["residual"])
    report(3, "heat_kernel_equivalence", worst <= 1e-6,
           f"max relative gap (series deg 60 vs closed form) = {worst:.3g} <= 1e-6")


def test_04_semigroup_property():
    worst = 0.0
    for alpha in ALPHA_MATRIX:
        worst = worst_of(worst, _check_semigroup(RunConfig(alpha, seed=40))["residual"])
    report(4, "semigroup_property", worst <= 1e-6,
           f"max relative defect of G_(t+s) = int G_t G_s dw = {worst:.3g} <= 1e-6")


def test_05_schlafli_layer():
    worst = _check_schlafli(RunConfig((0.0,)))["residual"]
    atom = SchlafliMeasure.from_nu(-0.5, 2)
    assert atom.kind == "atomic" and atom.nodes.size == 2
    for z in (0.1, 1.0, 10.0):
        ref = math.sqrt(2 / math.pi) * math.cosh(z)
        worst = worst_of(worst, abs(atom.laplace(z) - ref) / ref)
    report(5, "schlafli_layer", worst <= 1e-8,
           f"max relative gap of int e^(-zs) dPi vs I_nu(z)/z^nu = {worst:.3g} <= 1e-8")


def test_06_riesz_route_agreement():
    t0 = time.time()
    worst = 0.0
    for alpha in ALPHA_MATRIX:
        # the check draws its pairs from default_rng(seed + 3), here 60
        rec = _check_route_agreement(RunConfig(alpha, seed=57), n_pairs=50)
        worst = worst_of(worst, rec["residual"])
    elapsed = time.time() - t0
    report(6, "riesz_route_agreement", worst <= 1e-4 and elapsed <= 300.0,
           f"max relative gap over 50 pairs x {len(ALPHA_MATRIX)} configs = "
           f"{worst:.3g} <= 1e-4, {elapsed:.0f} s <= 300 s")


def test_07_dual_pairing():
    worst = 0.0
    parity_worst = 0.0
    f = IntervalBump(0.4, 2.0)
    g = IntervalBump(3.0, 5.0)
    assert f.separation(g) >= 1.0
    for alpha in [(-0.5,), (0.0,), (1.3,)]:
        al = AlphaParams(alpha)
        rule = tensor_rule([gauss_rule_1d(alpha[0], 512)])
        resid, spectral, integral = dual_pairing_check(f, g, 0, al, rule, KERNEL_CFG)
        worst = worst_of(worst, resid / abs(spectral))
        # the literal invariant-bump configuration: both routes vanish by parity
        fa, ga = AnnularBump(0.4, 2.0), AnnularBump(3.0, 5.0)
        _, sp0, in0 = dual_pairing_check(fa, ga, 0, al, rule, KERNEL_CFG, max_degree=200)
        parity_worst = worst_of(parity_worst, [abs(sp0), abs(in0)])
    report(7, "dual_pairing", worst <= 1e-3 and parity_worst <= 1e-12,
           f"max relative residual = {worst:.3g} <= 1e-3 (one-sided bumps, separation 1); "
           f"invariant bumps annihilate to {parity_worst:.1g}")


def test_08_star_identity():
    worst = 0.0
    for alpha in ALPHA_MATRIX:
        worst = worst_of(worst, _check_star(RunConfig(alpha, seed=80))["residual"])
    report(8, "star_identity", worst <= 1e-9,
           f"max residual over 100 random spectral f per config = {worst:.3g} <= 1e-9")


def test_09_apriori_identity():
    worst = 0.0
    for alpha in ALPHA_MATRIX:
        # the check draws from default_rng(seed + 1), here 90, with n_i <= 10
        rec = _check_apriori(RunConfig(alpha, seed=89), max_index=10)
        worst = worst_of(worst, rec["residual"])
    report(9, "apriori_identity", worst <= 1e-12,
           f"max coefficient residual over 100 cases per config = {worst:.3g} <= 1e-12")


def test_10_fischer_layer():
    passed = True
    worst = 0.0
    for alpha in ALPHA_MATRIX:
        # verify_eldwa to degree 6, and every pair of monomials of degree <= 4
        # on the 3-point rule, exact to degree 11 >= 4 + 4 + 2
        rec = _check_fischer(RunConfig(alpha))
        passed = passed and rec["passed"]
        worst = worst_of(worst, rec["residual"])
    report(10, "fischer_layer", passed and worst <= 1e-8,
           f"eldwa degrees <= 6 pass; max fund-identity residual = {worst:.3g} <= 1e-8")


def test_11_cz_estimate_scans():
    t0 = time.time()
    ok = True
    constants = []
    for a in (-0.5, 0.0, 1.3):
        for d in (1, 2):
            # exact s on 256 zeta nodes, rerun on 512
            rec = _check_scans(RunConfig((a,) * d, seed=110, kernel=KernelConfig(zeta_points=256)),
                               n_pairs=1000)
            ok = ok and rec["passed"]
            constants.append((a, d, round(rec["growth_constant"], 4),
                              round(rec["smoothness_constant"], 4), f"{rec['residual']:.2g}"))
    elapsed = time.time() - t0
    report(11, "cz_estimate_scans", ok,
           f"growth/smoothness finite, drift <= 5% over 1000 pairs per config; "
           f"fitted constants (alpha, d, C_growth, C_smooth, drift): {constants}; {elapsed:.0f} s")


def test_12_soni_scan():
    rep = soni_scan()
    report(12, "soni_scan", rep.passed and rep.sample_count == 600,
           f"strict inequality at all {rep.sample_count} grid points, "
           f"min relative gap = {rep.extra['min_relative_gap']:.3g}")


def test_13_contraction_and_maximal(rules):
    worst = 0.0
    for alpha in ALPHA_MATRIX:
        worst = worst_of(worst, _check_contraction(RunConfig(alpha, seed=130))["residual"])
    rule = rules[(0.0,)]
    bump = lambda pts: np.exp(-3.0 * (pts[:, 0] - 0.4) ** 2)
    coarse = maximal_empirical(bump, np.array([0.1]), np.geomspace(0.01, 5.0, 12), rule)
    fine = maximal_empirical(bump, np.array([0.1]), np.geomspace(0.01, 5.0, 24), rule)
    drift = abs(fine - coarse) / fine
    passed = worst <= 1e-10 and math.isfinite(fine) and drift <= 0.02
    report(13, "contraction_and_maximal", passed,
           f"sup-norm excess = {worst:.3g} <= 1e-10; "
           f"maximal finite, grid-refinement drift = {drift:.3g} <= 2%")


def test_14_ap_predicate():
    rec = _check_ap(RunConfig((0.0,)))
    report(14, "ap_predicate", rec["passed"] and rec["cases"] >= 50,
           f"{rec['cases']} cases including both boundary sides, "
           f"mismatches: {rec['residual']:.0f}")
