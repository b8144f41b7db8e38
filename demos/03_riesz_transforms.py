"""Riesz transforms three ways.

R_j = delta_j L^{-1/2} acts as a spectral multiplier on the basis, as a
singular-integral kernel computed by the (zeta, s) double quadrature, and
as a direct t-integral of the differentiated heat kernel.  All three
agree off the diagonal.
"""

import numpy as np

from dunklosc import (AlphaParams, KernelConfig, SpectralCoeffs, riesz_apply_spectral,
                      riesz_kernel, riesz_kernel_direct)
from dunklosc.riesz import riesz_kernel_components, riesz_multiplier

al = AlphaParams((0.7,))

# Spectral route: the multiplier m(n_j, a_j)/sqrt(2|n| + 2|alpha| + 2d)
# shifts each index down by one.
c = SpectralCoeffs(np.array([[3], [6]]), np.array([1.0, -0.25]), al)
rc = riesz_apply_spectral(c, 0)
print("R applied to coefficients {3: 1, 6: -0.25}:")
for n, v in zip(rc.n.tolist(), rc.values):
    print("  %s -> %.6f (multiplier %.6f)" % (tuple(n), v, riesz_multiplier((n[0] + 1,), al, 0)))

# Kernel route vs the direct t-integral oracle.
cfg = KernelConfig(zeta_points=256, s_points_per_dim=64, s_method="gauss-jacobi")
pairs = [(0.7, 1.5), (1.0, -0.4), (2.0, 0.3)]
print("\nkernel routes (alpha = 0.7):")
for x, y in pairs:
    quadr = riesz_kernel(al, 0, np.array([x]), np.array([y]), cfg)
    direct = riesz_kernel_direct(al, 0, np.array([x]), np.array([y]))
    print("  R(%.1f, %.1f): zeta-quadrature %.10f | t-integral %.10f" % (x, y, quadr, direct))

# Parity components: the kernel splits over eps in {0,1}^d; components are
# large near the reflected diagonal y = -x while their sum stays moderate.
x, y = np.array([1.3]), np.array([-1.2])
_, comps = riesz_kernel_components(al, 0, x, y, cfg)
print("\nnear the reflected diagonal (x=1.3, y=-1.2):")
for eps, v in comps.items():
    print("  eps=%s component: %+.6f" % (eps, v))
print("  sum: %+.6f" % sum(comps.values()))

# The 'exact' s-method integrates the Schlafli measure analytically and
# stays accurate arbitrarily close to the diagonal.
cfg_exact = KernelConfig(zeta_points=256, s_points_per_dim=48, s_method="exact")
for dist in (0.5, 0.1, 0.02):
    x, y = np.array([1.3]), np.array([1.3 + dist])
    q = riesz_kernel(al, 0, x, y, cfg_exact)
    d = riesz_kernel_direct(al, 0, x, y)
    print("near-diagonal dist=%.2f: exact-s %.8f vs direct %.8f" % (dist, q, d))
