import json
import math
import pathlib

import mpmath as mp
import numpy as np
import pytest
from scipy.special import eval_genlaguerre, gammaln, ive

from dunklosc.special import (_expansion_2f0, _kummer_scaled, _positive_series,
                              bessel_i_scaled, bessel_ratio, bessel_ratio_scaled, laguerre,
                              laguerre_deriv, laguerre_scaled, log_gamma)


class TestLogGamma:
    def test_known_values(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-13)
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-13)

    def test_against_scipy(self):
        for x in np.geomspace(1e-3, 200.0, 40):
            assert log_gamma(float(x)) == pytest.approx(float(gammaln(x)), rel=1e-13, abs=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)
        with pytest.raises(ValueError):
            log_gamma(-1.0)


class TestLaguerre:
    def test_low_orders(self):
        # L_0 = 1, L_1^a(y) = a + 1 - y
        assert laguerre(0, 0.3, 5.0) == 1.0
        assert laguerre(1, 0.5, 2.0) == pytest.approx(-0.5, abs=1e-15)
        # brute-force series: L_2^0(1) = 1 - 2 + 1/2 = -1/2
        assert laguerre(2, 0.0, 1.0) == pytest.approx(-0.5, abs=1e-14)

    def test_against_scipy(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(0, 80))
            a = float(rng.uniform(-0.5, 3.0))
            y = float(rng.uniform(0.0, 50.0))
            ref = float(eval_genlaguerre(n, a, y))
            assert laguerre(n, a, y) == pytest.approx(ref, rel=1e-11, abs=1e-11)

    def test_deriv(self):
        assert laguerre_deriv(0, 0.7, 3.0) == 0.0
        assert laguerre_deriv(1, 0.0, 9.9) == pytest.approx(-1.0, abs=1e-15)
        assert laguerre_deriv(2, 0.0, 0.0) == pytest.approx(-2.0, abs=1e-15)

    def test_deriv_matches_finite_differences(self):
        h = 1e-6
        for n in (1, 3, 7, 15):
            for y in np.linspace(-10, 10, 11):
                fd = (laguerre(n, 0.4, y + h) - laguerre(n, 0.4, y - h)) / (2 * h)
                an = laguerre_deriv(n, 0.4, y)
                assert an == pytest.approx(fd, rel=1e-6, abs=1e-6)

    @staticmethod
    def _scaled_reference(n, a, y):
        # The recurrence in Python floats, one y at a time: the reference the
        # numpy recurrence must reproduce bit for bit.
        if n == 0:
            return 1.0, 0
        prev, cur, k = 1.0, 1.0 + a - y, 0
        for m in range(1, n):
            prev, cur = cur, ((2 * m + a + 1 - y) * cur - (m + a) * prev) / (m + 1)
            if abs(cur) > 2.0**500:
                prev, cur, k = math.ldexp(prev, -500), math.ldexp(cur, -500), k + 500
        return cur, k

    def test_array_equals_scalar_bitwise(self):
        # One recurrence for both: each element of an array y takes the
        # scalar path's steps and its own 2^500 rescales.
        for n in (0, 1, 5, 10, 40, 300):
            for a in (-0.5, 0.7):
                y = np.concatenate([np.linspace(0.0, 50.0, 41), [900.0, 2000.0]])
                c, k = laguerre_scaled(n, a, y)
                scalar = [laguerre_scaled(n, a, float(v)) for v in y]
                assert scalar == [self._scaled_reference(n, a, float(v)) for v in y]
                assert c.tolist() == [ci for ci, _ in scalar]
                assert k.tolist() == [ki for _, ki in scalar]
                for fn in (laguerre, laguerre_deriv):  # finite values only
                    assert fn(n, a, y[:41]).tolist() == [fn(n, a, float(v)) for v in y[:41]]
        # y = 900 and 2000 at n = 300 take the rescale
        assert laguerre_scaled(300, 0.7, 2000.0)[1] > 0

    def test_scalar_in_scalar_out_and_shape_kept(self):
        c, k = laguerre_scaled(7, 0.7, 3.0)
        assert type(c) is float and type(k) is int
        assert type(laguerre(7, 0.7, 3.0)) is float
        for n in (0, 7):
            assert type(laguerre_deriv(n, 0.7, 3.0)) is float
            assert laguerre_deriv(n, 0.7, np.ones((2, 3))).shape == (2, 3)
        assert laguerre_scaled(7, 0.7, np.ones((2, 3)))[1].shape == (2, 3)

    def test_recurrence_nn3(self):
        # L_{n-1}^{a+1} - L_n^{a+1} = -L_n^a
        rng = np.random.default_rng(1)
        for n in range(1, 31):
            for _ in range(4):
                a = float(rng.uniform(-0.5, 2.5))
                y = float(rng.uniform(0.0, 30.0))
                lhs = laguerre(n - 1, a + 1, y) - laguerre(n, a + 1, y)
                rhs = -laguerre(n, a, y)
                assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_recurrence_nn2(self):
        # -y L_{n-1}^{a+2} + (a+1) L_{n-1}^{a+1} = n L_n^a
        rng = np.random.default_rng(2)
        for n in range(1, 31):
            for _ in range(4):
                a = float(rng.uniform(-0.5, 2.5))
                y = float(rng.uniform(0.0, 30.0))
                lhs = -y * laguerre(n - 1, a + 2, y) + (a + 1) * laguerre(n - 1, a + 1, y)
                rhs = n * laguerre(n, a, y)
                assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


class TestBessel:
    def test_half_order_closed_forms(self):
        # I_{1/2}(z) = sqrt(2/(pi z)) sinh z, I_{-1/2}(z) = sqrt(2/(pi z)) cosh z
        ref = math.exp(-1) * math.sqrt(2 / math.pi) * math.sinh(1.0)
        assert bessel_i_scaled(0.5, 1.0) == pytest.approx(ref, rel=1e-12)
        ref = math.exp(-1) * math.sqrt(2 / math.pi) * math.cosh(1.0)
        assert bessel_i_scaled(-0.5, 1.0) == pytest.approx(ref, rel=1e-12)

    def test_zero_argument(self):
        assert bessel_i_scaled(1.0, 0.0) == 0.0
        assert bessel_i_scaled(0.3, 0.0) == 0.0
        assert bessel_i_scaled(0.0, 0.0) == 1.0

    def test_against_scipy_across_regimes(self):
        for nu in (-0.5, 0.0, 0.7, 2.0, 4.5):
            for z in (1e-6, 0.1, 1.0, 10.0, 29.0, 31.0, 100.0, 1e4):
                ref = float(ive(nu, z))
                assert bessel_i_scaled(nu, z) == pytest.approx(ref, rel=1e-10)

    def test_cross_regime_continuity(self):
        # evaluate the same arguments through both regimes: the jump at the
        # switch is the truncation mismatch, not the function's variation
        z = np.array([25.0, 30.0, 40.0, 75.0])
        for nu in (-0.5, 0.0, 1.7):
            lo = (np.exp(nu * np.log(z / 2) - z - math.lgamma(nu + 1))
                  * _positive_series(1.0, None, nu, z * z / 4))
            hi = _expansion_2f0(0.5 + nu, 0.5 - nu, 0.5 / z) / np.sqrt(2 * math.pi * z)
            assert np.all(np.abs(lo - hi) / hi < 1e-10)
        # e^{-x} M(k, b, x) by its 1F1 series and its 2F0 expansion, from
        # below to above the cutoff (measured <= 3e-15)
        for k in (0.5, 1.2, 2.2, 3.5):
            x = min(max(50.0, 2.0 * (k + 2.0) ** 2), 600.0) * np.array([0.8, 1.0, 1.25, 2.0])
            for b in (2 * k + 1, 2 * k + 2):
                lo = np.exp(-x) * _positive_series(1.0, k - 1, b - 1, x)
                hi = (math.exp(math.lgamma(b) - math.lgamma(k)) * x ** (k - b)
                      * _expansion_2f0(b - k, 1 - k, 1 / x))
                assert np.all(np.abs(lo - hi) / hi < 1e-13)

    def test_array_against_scipy(self):
        z = np.concatenate([[0.0], np.geomspace(1e-6, 1e4, 60)])
        for nu in (-0.5, 0.0, 0.7, 2.0, 9.5):
            zz = z[1:] if nu < 0 else z  # scipy returns nan, not inf, at nu < 0, z = 0
            np.testing.assert_allclose(bessel_i_scaled(nu, zz), ive(nu, zz), rtol=1e-10)

    def test_positivity(self):
        for nu in (-0.5, 0.0, 2.0, 6.0):
            for z in np.geomspace(1e-3, 1e3, 25):
                assert bessel_i_scaled(nu, float(z)) > 0.0

    def test_soni_inequality(self):
        # I_{nu+1}(z) < I_nu(z) on log grids
        for nu in -0.5 + np.geomspace(0.01, 8, 12):
            for z in np.geomspace(1e-3, 1e3, 20):
                hi = bessel_i_scaled(float(nu), float(z))
                lo = bessel_i_scaled(float(nu) + 1.0, float(z))
                assert lo <= hi
        # At nu = -1/2 the true gap 2/(e^{2z}+1) falls below double
        # resolution near z ~ 18, so check both values against the closed
        # forms e^{-z} I_{+-1/2}(z) = (1 +- e^{-2z}) / sqrt(2 pi z), and the
        # ordering only where the gap exceeds 1e-13.
        z = np.geomspace(1e-3, 1e3, 2000)
        hi = bessel_i_scaled(-0.5, z)
        lo = bessel_i_scaled(0.5, z)
        np.testing.assert_allclose(hi, (1.0 + np.exp(-2.0 * z)) / np.sqrt(2.0 * math.pi * z),
                                   rtol=1e-14)
        np.testing.assert_allclose(lo, -np.expm1(-2.0 * z) / np.sqrt(2.0 * math.pi * z),
                                   rtol=1e-14)
        g = np.exp(-2.0 * z)
        resolved = 2.0 * g / (1.0 + g) > 1e-13
        assert np.all(lo[resolved] < hi[resolved])

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bessel_i_scaled(-0.6, 1.0)
        with pytest.raises(ValueError):
            bessel_i_scaled(0.0, -1.0)


class TestBesselRatio:
    def test_value_at_zero(self):
        # leading series term 1/(2^nu Gamma(nu+1))
        for nu in (-0.5, 0.0, 0.7, 2.0):
            ref = 1.0 / (2.0**nu * math.gamma(nu + 1.0))
            assert bessel_ratio(nu, 0.0) == pytest.approx(ref, rel=1e-14)

    def test_half_order(self):
        assert bessel_ratio(0.5, 1.0) == pytest.approx(
            math.sqrt(2 / math.pi) * math.sinh(1.0), rel=1e-12)
        assert bessel_ratio(-0.5, 1.0) == pytest.approx(
            math.sqrt(2 / math.pi) * math.cosh(1.0), rel=1e-12)

    def test_series_oracle(self):
        # 50-term brute-force series for I_2(3)/3^2
        nu, z = 2.0, 3.0
        total = sum((z / 2) ** (nu + 2 * k) / (math.gamma(k + 1) * math.gamma(k + nu + 1))
                    for k in range(50)) / z**nu
        assert bessel_ratio(nu, z) == pytest.approx(total, rel=1e-12)

    def test_even_in_z(self):
        for nu in (0.0, 0.7):
            assert bessel_ratio_scaled(nu, -4.2) == bessel_ratio_scaled(nu, 4.2)

    def test_matches_scaled_form(self):
        for nu in (-0.5, 0.3, 2.0):
            for z in (0.5, 5.0, 40.0):
                ref = math.exp(z - nu * math.log(z)) * bessel_i_scaled(nu, z)
                assert bessel_ratio(nu, z) == pytest.approx(ref, rel=1e-10)

    def test_scaled_large_arguments(self):
        # e^{-z} I_nu(z) / z^nu against scipy, far into the asymptotic regime
        for nu in (-0.5, 0.0, 1.3, 3.3):
            z = np.array([1e2, 1e4, 1e7])
            ref = ive(nu, z) / z**nu
            got = bessel_ratio_scaled(nu, z)
            np.testing.assert_allclose(got, ref, rtol=1e-11)


class TestBesselMpmathOracle:
    """Both public Bessel functions against 30-digit mpmath, at each regime
    edge; and a batch spanning both regimes against per-element calls,
    which catches a term count taken from the wrong extreme of a batch."""

    NUS = (-0.5, 0.0, 0.7, 2.5, 9.5)

    @staticmethod
    def _grid(nu):
        cut = max(30.0, 4.0 * nu * nu)
        return (1e-6, 1.0, float(np.nextafter(cut, 0.0)), cut, float(np.nextafter(cut, np.inf)),
                361.0, 1e4)

    @pytest.mark.parametrize("nu", NUS)
    def test_against_mpmath(self, nu):
        with mp.workdps(30):
            for z in self._grid(nu):
                ref_i = mp.besseli(nu, z) * mp.exp(-z)
                ref_r = ref_i / mp.mpf(z) ** nu
                assert bessel_i_scaled(nu, z) == pytest.approx(float(ref_i), rel=1e-13, abs=0)
                assert bessel_ratio_scaled(nu, z) == pytest.approx(float(ref_r), rel=1e-13, abs=0)
            ref0 = float(1 / (mp.mpf(2) ** nu * mp.gamma(nu + 1)))
        assert bessel_ratio_scaled(nu, 0.0) == pytest.approx(ref0, rel=1e-13, abs=0)
        assert bessel_i_scaled(nu, 0.0) == (math.inf if nu < 0 else float(nu == 0.0))

    @pytest.mark.parametrize("nu", NUS)
    def test_mixed_batch_equals_single_calls(self, nu):
        z = np.concatenate([[0.0], np.geomspace(1e-6, 1e4, 301), self._grid(nu)])
        single = np.array([bessel_ratio_scaled(nu, v) for v in z])
        np.testing.assert_allclose(bessel_ratio_scaled(nu, z), single, rtol=1e-14, atol=0)
        single = np.array([bessel_i_scaled(nu, v) for v in z[1:]])
        np.testing.assert_allclose(bessel_i_scaled(nu, z[1:]), single, rtol=1e-14, atol=0)


class TestKummer:
    ROWS = json.loads(pathlib.Path(__file__).with_name("mpmath_references.json")
                      .read_text())["kummer_scaled"]

    @pytest.mark.parametrize("k", sorted({r[0] for r in ROWS}))
    def test_matches_mpmath(self, k):
        # e^{-x} M(k, b, x) at 30 digits (tests/make_mpmath_references.py),
        # x from 1e-3 to 1e3 and on both sides of the series' cutoff: each
        # (k, b) as one batch, whose term counts its extremes fix, and
        # element by element
        for b in sorted({r[1] for r in self.ROWS if r[0] == k}):
            x = np.array([r[2] for r in self.ROWS if r[:2] == [k, b]])
            ref = np.array([float(r[3]) for r in self.ROWS if r[:2] == [k, b]])
            assert x.size >= 16 and x.min() <= 1e-3 and x.max() >= 1e3
            for got in (_kummer_scaled(k, b, x),
                        np.concatenate([_kummer_scaled(k, b, x[i:i + 1]) for i in range(x.size)])):
                assert np.max(np.abs(got - ref) / ref) <= 1e-13  # measured 3.6e-15
