"""The heat semigroup: spectral series vs closed-form kernel.

The kernel has two independent representations; this script evaluates
both, confirms the semigroup property under quadrature, and applies the
smoothing operator to a rough function.
"""

import numpy as np

from dunklosc import (AlphaParams, default_rule, heat_apply_kernel, heat_apply_spectral,
                      heat_kernel, heat_kernel_column, heat_kernel_component,
                      heat_kernel_series, project, synthesize)
from dunklosc.heat import all_parities

al = AlphaParams((-0.5, 0.7))
X = np.array([[0.5, 1.0], [1.5, 0.2]])
Y = np.array([[0.3, 1.2], [0.7, 0.9]])

for t in (0.3, 1.0):
    closed = heat_kernel(al, t, X, Y)
    series = heat_kernel_series(al, t, X, Y, 60)
    print("t=%.1f closed form:" % t, closed)
    print("      series (deg 60):", series)

# Parity decomposition: the four components sum back to the kernel.
t = 0.5
total = np.zeros(2)
for eps in all_parities(2):
    c = heat_kernel_component(al, eps, t, X, Y)
    total += c
    print("G^{eps=%s} =" % (eps,), c)
print("sum of components - kernel =", total - heat_kernel(al, t, X, Y))

# Semigroup property G_{t+s} = int G_t G_s dw under an 80-point rule.
al1 = AlphaParams((0.7,))
rule = default_rule(al1, 80)
x, y = np.array([0.5]), np.array([-1.0])
lhs = heat_kernel(al1, 1.0, x, y)
gz = heat_kernel_column(0.3, x, rule)
hz = heat_kernel_column(0.7, y, rule)  # G_s(w, y) = G_s(y, w)
rhs = np.sum(rule.weights * gz * hz)
print("\nsemigroup: G_1.0 = %.12g, int G_0.3 G_0.7 dw = %.12g" % (lhs, rhs))

# Smoothing: apply T_t to a sign-like function, spectrally and by kernel.
f = lambda pts: np.tanh(4 * pts[:, 0])
coeffs = project(f, al1, 40, rule)
smoothed = heat_apply_spectral(coeffs, 0.2)
grid = np.linspace(-2, 2, 9)[:, None]
print("\nT_0.2 tanh(4x) via spectral route: ", np.round(synthesize(smoothed, grid), 4))
kernel_vals = [heat_apply_kernel(f, 0.2, g, rule) for g in grid]
print("T_0.2 tanh(4x) via kernel route:   ", np.round(kernel_vals, 4))
