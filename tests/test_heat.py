import math

import numpy as np
import pytest
from scipy.special import roots_jacobi

from dunklosc.heat import (all_parities, heat_apply_kernel, heat_apply_spectral,
                           heat_kernel, heat_kernel_1d, heat_kernel_component,
                           heat_kernel_series, heat_kernel_zeta, maximal_empirical,
                           q_plus_minus, t_of_zeta, zeta_of_t)
from dunklosc.hermite import AlphaParams, MultiIndex, hermite_fn
from dunklosc.quadrature import SpectralCoeffs, default_rule
from dunklosc.riesz import SchlafliMeasure

from conftest import ALPHA_MATRIX


def mehler(t, x, y):
    """Classical Hermite heat kernel (the alpha = -1/2 oracle)."""
    s2 = math.sinh(2 * t)
    return (2 * math.pi * s2) ** -0.5 * math.exp(
        -(x * x + y * y) * math.cosh(2 * t) / (2 * s2) + x * y / s2)


class TestChangeOfVariable:
    def test_value(self):
        assert t_of_zeta(0.5) == pytest.approx(0.5 * math.log(3.0), rel=1e-15)

    def test_round_trip(self):
        for t in (1e-3, 0.3, 2.0):
            assert t_of_zeta(zeta_of_t(t)) == pytest.approx(t, abs=1e-14)
        for z in (1e-4, 0.2, 0.9):
            assert zeta_of_t(t_of_zeta(z)) == pytest.approx(z, abs=1e-14)
        # conditioning of tanh degrades like e^{2t} eps at large t
        assert t_of_zeta(zeta_of_t(8.0)) == pytest.approx(8.0, abs=1e-8)

    def test_monotone_to_zero(self):
        zs = np.geomspace(1e-6, 0.9, 20)
        ts = [t_of_zeta(float(z)) for z in zs]
        assert all(t2 > t1 > 0 for t1, t2 in zip(ts, ts[1:]))

    def test_boundaries_rejected(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                t_of_zeta(bad)
        with pytest.raises(ValueError):
            zeta_of_t(0.0)


class TestQPlusMinus:
    def test_identities(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 3))
        y = rng.normal(size=(50, 3))
        s = rng.uniform(-1, 1, size=(50, 3))
        qp, qm = q_plus_minus(x, y, s)
        np.testing.assert_allclose(qp + qm, 2 * (np.sum(x**2, 1) + np.sum(y**2, 1)), rtol=1e-14)
        assert np.all(qp >= -1e-12) and np.all(qm >= -1e-12)

    def test_s_zero(self):
        x = np.array([1.0, 2.0])
        y = np.array([0.5, -1.0])
        qp, qm = q_plus_minus(x, y, np.zeros(2))
        base = np.sum(x**2) + np.sum(y**2)
        assert qp == pytest.approx(base) and qm == pytest.approx(base)

    def test_perfect_cancellation(self):
        x = np.array([1.0, -2.0])
        qp, _ = q_plus_minus(x, x, -np.ones(2))
        assert qp == pytest.approx(0.0, abs=1e-14)


class TestHeatSpectral:
    def test_identity_at_zero(self):
        c = SpectralCoeffs({(0,): 1.0, (3,): -2.0}, AlphaParams((0.7,)))
        out = heat_apply_spectral(c, 0.0)
        assert out.coeffs == c.coeffs

    def test_ground_state_decay(self):
        c = SpectralCoeffs({(0,): 1.0}, AlphaParams((-0.5,)))
        out = heat_apply_spectral(c, 1.0)
        assert out.coeffs[(0,)] == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_norm_monotone(self):
        rng = np.random.default_rng(1)
        c = SpectralCoeffs({(n,): float(rng.normal()) for n in range(10)}, AlphaParams((0.0,)))
        norms = [heat_apply_spectral(c, t).norm() for t in (0.0, 0.2, 0.5, 1.0, 3.0)]
        assert all(b < a for a, b in zip(norms, norms[1:]))

    def test_negative_t_rejected(self):
        c = SpectralCoeffs({(0,): 1.0}, AlphaParams((0.0,)))
        with pytest.raises(ValueError):
            heat_apply_spectral(c, -0.1)


class TestHeatKernel1d:
    def test_symmetric(self):
        for a in (-0.5, 0.0, 1.3):
            v1 = heat_kernel_1d(a, 0.4, 0.3, -1.7)
            v2 = heat_kernel_1d(a, 0.4, -1.7, 0.3)
            assert v1 == v2  # the formula is symmetric; same arithmetic both ways

    def test_mehler_oracle(self):
        for (x, y, t) in [(0.3, 0.7, 0.5), (1.0, 2.0, 0.1), (0.0, 1.0, 2.0)]:
            assert heat_kernel_1d(-0.5, t, x, y) == pytest.approx(mehler(t, x, y), rel=1e-11)

    def test_positivity_grid(self):
        # strict positivity where the value is representable: for xy < 0
        # the kernel decays like e^{-2|xy|/sinh 2t} relative to its scale,
        # so keep |xy|/sinh 2t moderate; beyond that it underflows to 0
        for a in (-0.5, 0.0, 1.3):
            for t in (0.05, 0.3, 2.0):
                bound = 12.0 * math.sinh(2 * t)
                for x in np.linspace(-3, 3, 9):
                    for y in np.linspace(-3, 3, 9):
                        if abs(x * y) <= bound:
                            assert heat_kernel_1d(a, t, float(x), float(y)) > 0.0

    def test_no_negative_noise(self):
        # outside the representable region values may underflow, but never
        # to negative garbage
        for a in (-0.5, 0.0, 1.3):
            for x in np.linspace(-3, 3, 7):
                for y in np.linspace(-3, 3, 7):
                    assert heat_kernel_1d(a, 0.01, float(x), float(y)) >= 0.0

    def test_rejects_bad_t(self):
        with pytest.raises(ValueError):
            heat_kernel_1d(0.0, 0.0, 1.0, 1.0)


class TestComponents:
    def test_sum_reconstructs_kernel(self):
        al = AlphaParams((-0.5, 1.3))
        X = np.array([[0.5, 1.0], [2.0, 0.1], [-1.0, 0.7]])
        Y = np.array([[0.4, 1.2], [1.0, 2.0], [0.3, -0.2]])
        total = np.zeros(3)
        for eps in all_parities(2):
            total += heat_kernel_component(al, eps, 0.4, X, Y)
        ref = heat_kernel(al, 0.4, X, Y)
        np.testing.assert_allclose(total, ref, rtol=1e-12)

    def test_vanishing_on_axis(self):
        al = AlphaParams((0.0, 0.7))
        v = heat_kernel_component(al, (1, 0), 0.5, np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        assert v == 0.0

    def test_parity_sign_flip(self):
        al = AlphaParams((0.0, 0.7))
        x = np.array([0.8, -0.4])
        y = np.array([0.3, 1.1])
        for eps in all_parities(2):
            base = heat_kernel_component(al, eps, 0.6, x, y)
            for j in range(2):
                xf = x.copy()
                xf[j] = -xf[j]
                flipped = heat_kernel_component(al, eps, 0.6, xf, y)
                assert flipped == pytest.approx((-1.0) ** eps[j] * base, rel=1e-13)
        # a parity is a vector over {0, 1} of matching dimension
        with pytest.raises(ValueError):
            heat_kernel_component(AlphaParams((0.0,)), (2,), 1.0, np.ones(1), np.ones(1))

    def test_eps0_dominates(self):
        # 0 < G <~ G^{eps_0}: Soni's inequality transfers to the components
        al = AlphaParams((0.0, 0.7))
        rng = np.random.default_rng(2)
        X = rng.uniform(-2, 2, size=(40, 2))
        Y = rng.uniform(-2, 2, size=(40, 2))
        for t in (0.05, 0.5):
            g = heat_kernel(al, t, X, Y)
            g0 = heat_kernel_component(al, (0, 0), t, X, Y)
            assert np.all(g > 0)
            assert np.all(g <= 4.0 * g0 + 1e-300)  # 2^d * G^{eps_o} bounds the sum


class TestZetaForm:
    def test_reproduces_component(self):
        al = AlphaParams((-0.5, 1.3))
        for eps in [(0, 0), (1, 0), (1, 1)]:
            nus = [al[i] + eps[i] for i in range(2)]
            measures = [SchlafliMeasure.from_nu(nu, 40) for nu in nus]
            S1, S2 = np.meshgrid(measures[0].nodes, measures[1].nodes, indexing="ij")
            W = np.outer(measures[0].weights, measures[1].weights).ravel()
            svec = np.stack([S1.ravel(), S2.ravel()], axis=-1)
            t = 0.45
            zeta = zeta_of_t(t)
            x = np.array([0.8, 1.1])
            y = np.array([0.5, 2.0])
            integrand = heat_kernel_zeta(al, eps, zeta, x, y, svec)
            got = float(np.sum(W * integrand))
            ref = heat_kernel_component(al, eps, t, x, y)
            assert got == pytest.approx(ref, rel=1e-8)

    def test_vanishes_as_zeta_to_one(self):
        al = AlphaParams((0.0,))
        args = (np.array([1.0]), np.array([2.0]), np.array([0.3]))
        mid = heat_kernel_zeta(al, (0,), 0.5, *args)
        tail = [heat_kernel_zeta(al, (0,), 1 - 10.0**-k, *args) for k in (3, 4, 5, 6)]
        assert all(b < a for a, b in zip(tail, tail[1:]))
        assert tail[-1] < 1e-4 * mid

    def test_maximal_at_cancellation(self):
        # q_+ = 0 at s = (-1,...,-1), x = y: the exponent vanishes there
        al = AlphaParams((0.0, 0.0))
        x = np.array([1.0, 2.0])
        smax = -np.ones(2)
        vmax = heat_kernel_zeta(al, (0, 0), 0.5, x, x, smax)
        rng = np.random.default_rng(3)
        for _ in range(50):
            s = rng.uniform(-1, 1, size=2)
            assert heat_kernel_zeta(al, (0, 0), 0.5, x, x, s) <= vmax + 1e-15

    def test_zeta_domain(self):
        al = AlphaParams((0.0,))
        with pytest.raises(ValueError):
            heat_kernel_zeta(al, (0,), 1.0, np.array([1.0]), np.array([2.0]), np.array([0.0]))


class TestSeriesVsClosedForm:
    @pytest.mark.parametrize("alpha", ALPHA_MATRIX)
    def test_agreement(self, alpha):
        al = AlphaParams(alpha)
        rng = np.random.default_rng(4)
        X = rng.uniform(0, 2, size=(20, al.dim))
        Y = rng.uniform(0, 2, size=(20, al.dim))
        for t in (0.3, 0.7):
            closed = heat_kernel(al, t, X, Y)
            series = heat_kernel_series(al, t, X, Y, 60)
            np.testing.assert_allclose(series, closed, rtol=1e-6)


class TestSemigroup:
    def test_chapman_kolmogorov(self, rules):
        for alpha in [(-0.5,), (1.3,)]:
            al = AlphaParams(alpha)
            rule = rules[alpha]
            M = rule.nodes.shape[0]
            for (x, y) in [(0.5, -1.0), (2.0, 0.3)]:
                xv = np.array([x])
                yv = np.array([y])
                for t, s in [(0.3, 0.7), (0.7, 0.7)]:
                    lhs = heat_kernel(al, t + s, xv, yv)
                    gz = heat_kernel(al, t, np.broadcast_to(xv, (M, 1)), rule.nodes)
                    hz = heat_kernel(al, s, rule.nodes, np.broadcast_to(yv, (M, 1)))
                    rhs = float(np.sum(rule.weights * gz * hz))
                    assert rhs == pytest.approx(lhs, rel=1e-6)


class TestApplyKernel:
    def test_eigenfunction_action(self, rules):
        al = AlphaParams((1.3,))
        rule = rules[(1.3,)]
        h0 = lambda pts: hermite_fn(MultiIndex((0,)), al, pts)
        t = 0.37
        x = np.array([0.9])
        got = heat_apply_kernel(h0, t, x, rule)
        lam = 2 * al.abs_sum + 2
        ref = math.exp(-t * lam) * hermite_fn(MultiIndex((0,)), al, np.array([[0.9]]))[0]
        assert got == pytest.approx(ref, rel=1e-10)

    def test_approximate_identity(self, rules):
        rule = rules[(0.0,)]
        one = lambda pts: np.ones(pts.shape[0])
        val = heat_apply_kernel(one, 0.01, np.array([0.0]), rule)
        assert val == pytest.approx(1.0, abs=1e-2)

    def test_contraction(self, rules):
        al = AlphaParams((0.0,))
        rule = rules[(0.0,)]
        f = lambda pts: np.cos(1.3 * pts[:, 0])
        for t in (0.1, 1.0):
            for x in np.linspace(-2, 2, 9):
                assert abs(heat_apply_kernel(f, t, np.array([x]), rule)) <= 1.0 + 1e-10

    def test_matches_spectral_synthesis(self, rules):
        from dunklosc.quadrature import project, synthesize
        al = AlphaParams((0.0,))
        rule = rules[(0.0,)]
        rng = np.random.default_rng(5)
        coeff = {(n,): float(rng.normal()) for n in range(8)}
        f = lambda pts: synthesize(SpectralCoeffs(coeff, al), pts)
        t = 0.4
        x = np.array([0.7])
        kernel_route = heat_apply_kernel(f, t, x, rule)
        spec = heat_apply_spectral(SpectralCoeffs(coeff, al), t)
        spectral_route = synthesize(spec, x[None, :])[0]
        assert kernel_route == pytest.approx(spectral_route, rel=1e-6)


class TestMaximal:
    def test_basic_properties(self, rules):
        al = AlphaParams((0.0,))
        rule = rules[(0.0,)]
        bump = lambda pts: np.exp(-4 * (pts[:, 0] - 0.5) ** 2)
        x = np.array([0.2])
        grid = np.geomspace(0.01, 5.0, 12)
        m = maximal_empirical(bump, x, grid, rule)
        assert m >= 0.0
        assert m >= abs(heat_apply_kernel(bump, float(grid[3]), x, rule))
        fine = maximal_empirical(bump, x, np.geomspace(0.01, 5.0, 24), rule)
        assert abs(fine - m) / fine <= 0.02

    def test_empty_grid_rejected(self, rules):
        rule = rules[(0.0,)]
        with pytest.raises(ValueError):
            maximal_empirical(lambda p: np.ones(p.shape[0]), np.array([0.0]), [], rule)
