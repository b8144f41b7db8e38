"""Generalized Hermite functions for the Z2^d Dunkl oscillator.

Walks through the basis layer: evaluating h_n^alpha, checking
orthonormality under the reflection-invariant weight, and watching the
ladder operators move through the basis.
"""

import numpy as np

from dunklosc import (AlphaParams, default_rule, eigenvalue,
                      hermite_fn, hermite_fn_all_1d, inner_product, ladder_coeff)
from dunklosc.hermite import delta_hermite, delta_star_hermite

# One-dimensional system with a genuinely non-classical parameter.
a = 0.7
al = AlphaParams((a,))

x = np.linspace(-4, 4, 9)
table = hermite_fn_all_1d(4, a, x)
print("h_n^a(x) for n = 0..4 on a coarse grid (a = %.1f):" % a)
for n in range(5):
    print("  n=%d:" % n, np.array2string(table[n], precision=4))

# Orthonormality in L^2(|x|^{2a+1} dx): the default Gauss rule integrates
# products of basis functions essentially exactly.
rule = default_rule(al, 60)
h = lambda n: (lambda pts: hermite_fn((n,), al, pts))
print("\n<h_2, h_2> =", inner_product(h(2), h(2), rule))
print("<h_2, h_5> =", inner_product(h(2), h(5), rule))

# The ladder: delta h_n = m(n, a) h_{n-1}, delta* h_n = m(n+1, a) h_{n+1}.
pts = x[:, None]
n = (3,)
low = delta_hermite(n, al, 0, pts)
print("\nmax |delta h_3 - m(3) h_2| =",
      np.max(np.abs(low - ladder_coeff(3, a) * hermite_fn((2,), al, pts))))
up = delta_star_hermite(n, al, 0, pts)
print("max |delta* h_3 - m(4) h_4| =",
      np.max(np.abs(up - ladder_coeff(4, a) * hermite_fn((4,), al, pts))))

# Eigenvalues 2|n| + 2|alpha| + 2d: the oscillator spectrum.
al2 = AlphaParams((-0.5, 0.7))
for n in [(0, 0), (1, 0), (2, 3)]:
    print("lambda_%s =" % (n,), eigenvalue(n, al2))

# At alpha = -1/2 everything collapses to the classical Hermite functions.
cl = hermite_fn_all_1d(3, -0.5, np.array([0.8]))
print("\nclassical reduction h_3^{-1/2}(0.8) =", cl[3][0],
      " (classical Hermite value)")
