"""Write tests/mpmath_references.json: high-precision references for the
closed-form heat kernel and the direct Riesz oracle.

    python tests/make_mpmath_references.py      # a few minutes

Everything here is mpmath (30 to 50 digits) from the definitions, not
from the identities the package uses:

* ``parity_sum``: e^{-|z|} (rho_a(z) + z rho_{a+1}(z)) with
  rho_nu(z) = I_nu(|z|)/|z|^nu, at 30 digits after the cancellation for
  z < 0 (the working precision grows with |z|);
* ``delta_heat``: delta_j G_t(x, y) = (T_j + x_j) G_t at 50 digits, with
  the Dunkl operator T_j f = d_j f + (a_j + 1/2)(f(x) - f(sigma_j x))/x_j
  applied to the closed form of G_t by numerical differentiation; the
  script asserts that it equals ((1 - coth 2t) x_j + y_j/sinh 2t) G_t;
* ``riesz``: pi^{-1/2} int_0^inf delta_j G_t t^{-1/2} dt at 30 digits,
  with t split at 10^{-9}, 10^{-8.75}, ..., 1, 3, 10 and 40, and each
  coordinate's Bessel pair from mpmath's hyp1f1 (checked against the
  Bessel form here), since |x_i y_i|/sinh 2t reaches 1e7;
* ``riesz_gradient``: [dR_j/dx_1..d, dR_j/dy_1..d] at the pinned pair
  (the first of ``riesz``) at 30 digits, the same t-integral of the
  integrand differentiated in each coordinate by ``mp.diff``;
* ``kummer_scaled``: e^{-x} M(k, b, x) from mpmath's hyp1f1 at 50 digits,
  asserted equal at 60, at b = 2k+1 and 2k+2 (the parity factor and its
  slope for z < 0), x from 1e-3 to 1e3 and on both sides of the cutoff
  between the series and the expansion.
"""

import json
import pathlib

import mpmath as mp

OUT = pathlib.Path(__file__).with_name("mpmath_references.json")

PARITY_ALPHAS = (-0.5, -0.3, 0.0, 0.7, 1.3, 2.5)
PARITY_Z = [float(z) for z in mp.linspace(-3, 3, 25)]  # log10 |z|

# (alpha, x, y): pairs with x_i y_i < 0 on an alpha_i = -1/2 coordinate,
# the pair 0.024 from a reflected diagonal, and one-dimensional pairs.
DELTA_PAIRS = [
    ((-0.5, 0.7), (1.3, -0.8), (-1.1, -0.9)),
    ((-0.5, 0.7), (-2.0, 0.5), (1.9, -1.2)),
    ((0.0, -0.5, 1.3), (1.0, 2.5, 0.5), (1.02, -2.49, 0.49)),
    ((-0.5,), (1.5,), (-1.2,)),
    ((1.3,), (0.7,), (-2.0,)),
]
DELTA_T = (0.01, 0.3, 12.0)
# The pair 0.024 from a reflected diagonal, then |x - y| just over 1e-3
# (NEAR_DIAGONAL) at d = 1, 2, 3,
# y = x + r u with the doubles of test_riesz.py.
NEAR_R = 1e-3 * (1 + 1e-9)
NEAR = [((0.0,), (1.1,), (1.0,)),
        ((-0.5, 0.7), (0.9, -1.3), (0.6, 0.8)),
        ((0.0, -0.5, 1.3), (1.2, -0.7, 0.9), (2 / 3, -1 / 3, 2 / 3))]
KUMMER_K = (0.5, 1.2, 2.2, 3.5)
KUMMER_X = [float(x) for x in mp.linspace(-3, 3, 13)]  # log10 x


def kummer_cutoff(k):
    """special._kummer_scaled's switch from the series to the expansion."""
    return min(max(50.0, 2.0 * (k + 2.0) ** 2), 600.0)


RIESZ_PAIRS = [DELTA_PAIRS[2]] + [(alpha, x, tuple(xi + NEAR_R * ui for xi, ui in zip(x, u)))
                                  for alpha, x, u in NEAR]


def rho_sum(a, z):
    """rho_a(z) + z rho_{a+1}(z), unscaled, at the working precision: for
    z < 0 the two terms cancel to e^{-2|z|} of their size, so they are
    formed with 2|z|/log(10) more digits."""
    w = abs(z)
    if w == 0:
        return 1 / (mp.gamma(a + 1) * 2**a)
    with mp.workdps(mp.mp.dps + int(2 * w / mp.log(10)) + 10):
        return +(mp.besseli(a, w) / w**a + z * mp.besseli(a + 1, w) / w ** (a + 1))


def rho_sum_kummer(a, z):
    """rho_sum(a, z) through the rank-one Dunkl kernel, e^z M(k, 2k+1, -2z)
    / (Gamma(a+1) 2^a) with k = a + 1/2 (DLMF 13.2.39), for the t-integral,
    where |z| reaches 1e7; the script checks it against ``rho_sum``."""
    k = a + mp.mpf(1) / 2
    return mp.exp(z) * mp.hyp1f1(k, 2 * k + 1, -2 * z) / (mp.gamma(a + 1) * 2**a)


def parity_sum(a, z):
    return mp.exp(-abs(z)) * rho_sum(mp.mpf(a), mp.mpf(z))


def heat_of_x(alpha, t, y, factor=rho_sum):
    """x -> G_t(x, y), from the closed form with unscaled Bessel functions."""
    def g(*x):
        s2 = mp.sinh(2 * t)
        out = mp.mpf(1)
        for a, xi, yi in zip(alpha, x, y):
            out *= (mp.exp(-mp.coth(2 * t) * (xi**2 + yi**2) / 2) / (2 * s2) * s2 ** (-a)
                    * factor(a, xi * yi / s2))
        return out
    return g


def closed_delta_heat(alpha, j, t, x, y, factor=rho_sum):
    """((1 - coth 2t) x_j + y_j/sinh 2t) G_t(x, y)."""
    return (((1 - mp.coth(2 * t)) * x[j] + y[j] / mp.sinh(2 * t))
            * heat_of_x(alpha, t, y, factor)(*x))


def delta_heat(alpha, j, t, x, y):
    """(T_j + x_j) G_t(x, y), asserted equal to ``closed_delta_heat``."""
    alpha, x, y = ([mp.mpf(v) for v in seq] for seq in (alpha, x, y))
    t = mp.mpf(t)
    g = heat_of_x(alpha, t, y)
    order = [0] * len(x)
    order[j] = 1
    flipped = list(x)
    flipped[j] = -x[j]
    value = (mp.diff(g, x, tuple(order)) + x[j] * g(*x)
             + (alpha[j] + mp.mpf(1) / 2) * (g(*x) - g(*flipped)) / x[j])
    closed = closed_delta_heat(alpha, j, t, x, y)
    assert abs(value - closed) <= mp.mpf(10) ** -40 * abs(closed), (alpha, j, t, x, y)
    return value


def riesz(alpha, j, x, y):
    alpha, x, y = ([mp.mpf(v) for v in seq] for seq in (alpha, x, y))
    splits = [0] + [mp.mpf(10) ** (-9 + k / mp.mpf(4)) for k in range(37)] + [3, 10, 40]
    integrand = lambda t: closed_delta_heat(alpha, j, t, x, y, rho_sum_kummer) / mp.sqrt(t)
    return mp.quad(integrand, splits) / mp.sqrt(mp.pi)


def riesz_gradient(alpha, j, x, y):
    alpha, point = [mp.mpf(v) for v in alpha], [mp.mpf(v) for v in (*x, *y)]
    d = len(alpha)
    splits = [0] + [mp.mpf(10) ** (-9 + k / mp.mpf(4)) for k in range(37)] + [3, 10, 40]

    def partial(k):
        def integrand(t):
            def at(v):
                p = list(point)
                p[k] = v
                return closed_delta_heat(alpha, j, t, p[:d], p[d:], rho_sum_kummer)
            return mp.diff(at, point[k]) / mp.sqrt(t)
        return mp.quad(integrand, splits) / mp.sqrt(mp.pi)
    return [partial(k) for k in range(2 * d)]


def kummer_scaled(k, b, x):
    k, b, x = mp.mpf(k), mp.mpf(b), mp.mpf(x)
    value = mp.exp(-x) * mp.hyp1f1(k, b, x)
    with mp.workdps(60):
        check = mp.exp(-x) * mp.hyp1f1(k, b, x)
    assert abs(value - check) <= mp.mpf(10) ** -45 * abs(check), (k, b, x)
    return value


def main():
    refs = {"parity_sum": [], "delta_heat": [], "riesz": [], "riesz_gradient": [],
            "kummer_scaled": []}
    mp.mp.dps = 30
    for a in PARITY_ALPHAS:
        for e in PARITY_Z:
            for z in (-(10**e), 10**e):
                refs["parity_sum"].append([a, z, mp.nstr(parity_sum(a, z), 25)])
    mp.mp.dps = 50
    for alpha, x, y in DELTA_PAIRS:
        for j in range(len(alpha)):
            for t in DELTA_T:
                refs["delta_heat"].append([list(alpha), j, t, list(x), list(y),
                                           mp.nstr(delta_heat(alpha, j, t, x, y), 25)])
    mp.mp.dps = 30
    for a in PARITY_ALPHAS:
        for z in (-300.0, -7.5, -0.02, 0.4, 60.0):
            exact = rho_sum(mp.mpf(a), mp.mpf(z))
            assert abs(rho_sum_kummer(mp.mpf(a), mp.mpf(z)) - exact) <= 1e-28 * abs(exact)
    for alpha, x, y in RIESZ_PAIRS:
        for j in range(len(alpha)):
            refs["riesz"].append([list(alpha), j, list(x), list(y),
                                  mp.nstr(riesz(alpha, j, x, y), 25)])
    alpha, x, y = RIESZ_PAIRS[0]
    for j in range(len(alpha)):
        refs["riesz_gradient"].append([list(alpha), j, list(x), list(y),
                                       [mp.nstr(g, 25) for g in riesz_gradient(alpha, j, x, y)]])
    mp.mp.dps = 50
    for k in KUMMER_K:
        cut = kummer_cutoff(k)
        xs = sorted([10**e for e in KUMMER_X] + [0.95 * cut, cut, 1.05 * cut])
        for b in (2.0 * k + 1.0, 2.0 * k + 2.0):
            for x in xs:
                refs["kummer_scaled"].append([k, b, x, mp.nstr(kummer_scaled(k, b, x), 25)])
    blocks = [f' "{name}": [\n' + ",\n".join("  " + json.dumps(row) for row in rows) + "\n ]"
              for name, rows in refs.items()]
    OUT.write_text("{\n" + ",\n".join(blocks) + "\n}\n")  # one reference per line


if __name__ == "__main__":
    main()
