"""Calderon-Zygmund standard estimates, empirically.

The Riesz kernels satisfy |R(x,y)| <~ 1/w(B(x,|x-y|)) and the matching
gradient bound.  The constants are existential, so the harness scans a
seeded sample of pairs, reports the fitted constant, and checks it is
stable when the kernel quadrature resolution is doubled.
"""

from dunklosc import (AlphaParams, KernelConfig, ap_power_weight, ball_measure, ball_measure_qmc,
                      soni_scan)
from dunklosc.estimates import growth_scan, smoothness_scan

al = AlphaParams((0.7,))
# The scans' kernel quadrature: exact s-integration, which stays accurate
# near the diagonal, on 256 zeta nodes.
scan_cfg = KernelConfig(zeta_points=256, s_method="exact")

# Ball measures of the weight w_alpha: closed form in d = 1, nested
# one-dimensional quadrature in higher dimension, checked against the
# randomly shifted Kronecker (quasi-Monte Carlo) oracle.
v = ball_measure(al, [0.5], 1.2)
print("w_alpha(B(0.5, 1.2)) =", v, "(closed form)")
al2 = AlphaParams((0.7, 0.0))
v2 = ball_measure(al2, [0.5, -0.3], 1.2)
mc, se2 = ball_measure_qmc(al2, [0.5, -0.3], 1.2, npoints=1 << 17, seed=7)
print("w_alpha(B((0.5,-0.3), 1.2)) =", v2, "(nested quadrature)")
print("                             ", mc, "+-", se2, "(shifted Kronecker)")

# Growth scan: max |R| w(B) over 300 seeded pairs, drift under refinement.
rep = growth_scan(al, 0, n_pairs=300, seed=42, cfg=scan_cfg)
print("\ngrowth scan: fitted constant %.4f at pair %s, drift %.2g, passed=%s"
      % (rep.max_ratio, rep.argmax_pair, rep.refinement_drift, rep.passed))

rep = smoothness_scan(al, 0, n_pairs=200, seed=42, cfg=scan_cfg)
print("smoothness scan: fitted constant %.4f, drift %.2g, passed=%s"
      % (rep.max_ratio, rep.refinement_drift, rep.passed))

# Soni's inequality I_{nu+1} < I_nu drives the kernel positivity layer.
rep = soni_scan()
print("\nSoni scan over a 20x30 (nu, z) grid: passed=%s, min relative gap %.3g"
      % (rep.passed, rep.extra["min_relative_gap"]))

# Power weights in the Muckenhoupt class A_p^alpha (d = 1 criterion).
print("\nA_p membership of |x|^r for alpha = 0:")
for p, r in [(2.0, 1.0), (2.0, 2.0), (1.0, -0.5), (1.0, 0.5)]:
    print("  p=%.0f r=%+.1f: %s" % (p, r, ap_power_weight(0.0, p, r)))
