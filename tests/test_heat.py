import json
import math
import pathlib

import numpy as np
import pytest

import dunklosc.heat as heat_module
from dunklosc.heat import (_parity_sum, all_parities, heat_apply_kernel, heat_apply_spectral,
                           heat_kernel, heat_kernel_column, heat_kernel_component,
                           heat_kernel_series, heat_kernel_zeta, maximal_empirical,
                           q_plus_minus)
from dunklosc.hermite import AlphaParams, eigenvalue, hermite_fn, hermite_fn_all_1d
from dunklosc.quadrature import SpectralCoeffs, default_rule, gauss_rule_1d, tensor_rule
from dunklosc.riesz import (KernelConfig, SchlafliMeasure, riesz_kernel, riesz_kernel_components,
                            riesz_kernel_direct, riesz_kernel_with_gradient)
from dunklosc.suite import RunConfig, _check_contraction, _check_semigroup

from conftest import ALPHA_MATRIX


def mehler(t, x, y):
    """Classical Hermite heat kernel (the alpha = -1/2 oracle)."""
    s2 = math.sinh(2 * t)
    return (2 * math.pi * s2) ** -0.5 * math.exp(
        -(x * x + y * y) * math.cosh(2 * t) / (2 * s2) + x * y / s2)


class TestParitySum:
    def test_matches_mpmath(self):
        # e^{-|z|}(rho_a(z) + z rho_{a+1}(z)) at 30 digits from the Bessel
        # definition (tests/make_mpmath_references.py); for z < 0 its two
        # terms cancel to e^{-2|z|}, which the old difference turned into noise
        refs = json.loads(pathlib.Path(__file__).with_name("mpmath_references.json").read_text())
        rows = refs["parity_sum"]
        for a in sorted({r[0] for r in rows}):
            z = np.array([r[1] for r in rows if r[0] == a])
            ref = np.array([float(r[2]) for r in rows if r[0] == a])
            got = _parity_sum(a, z)
            normal = np.abs(ref) >= np.finfo(float).tiny
            assert np.sum(normal) >= 45
            assert np.max(np.abs(got - ref)[normal] / ref[normal]) <= 1e-13
            assert np.all(np.abs(got[~normal]) < np.finfo(float).tiny)

    def test_atomic_case_is_exact(self):
        # a = -1/2: the factor is sqrt(2/pi) for z >= 0 and sqrt(2/pi) e^{-2|z|} below
        z = np.concatenate([-np.geomspace(1e-3, 300.0, 40), np.geomspace(1e-3, 1e3, 40)])
        want = math.sqrt(2.0 / math.pi) * np.exp(-2.0 * np.maximum(-z, 0.0))
        np.testing.assert_allclose(_parity_sum(-0.5, z), want, rtol=1e-14)


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
        c = SpectralCoeffs([(0,), (3,)], [1.0, -2.0], AlphaParams((0.7,)))
        out = heat_apply_spectral(c, 0.0)
        assert np.array_equal(out.n, c.n) and np.array_equal(out.values, c.values)

    def test_ground_state_decay(self):
        c = SpectralCoeffs([(0,)], [1.0], AlphaParams((-0.5,)))
        out = heat_apply_spectral(c, 1.0)
        assert out[(0,)] == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_norm_monotone(self):
        rng = np.random.default_rng(1)
        c = SpectralCoeffs([(n,) for n in range(10)], [float(rng.normal()) for n in range(10)],
                           AlphaParams((0.0,)))
        norms = [heat_apply_spectral(c, t).norm() for t in (0.0, 0.2, 0.5, 1.0, 3.0)]
        assert all(b < a for a, b in zip(norms, norms[1:]))

    def test_negative_t_rejected(self):
        c = SpectralCoeffs([(0,)], [1.0], AlphaParams((0.0,)))
        with pytest.raises(ValueError):
            heat_apply_spectral(c, -0.1)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_t_rejected(self, t):
        # a NaN t would scale every coefficient to NaN
        c = SpectralCoeffs([(0,)], [1.0], AlphaParams((0.0,)))
        with pytest.raises(ValueError, match="t must be finite"):
            heat_apply_spectral(c, t)


class TestHeatKernel1d:
    def test_symmetric(self):
        for a in (-0.5, 0.0, 1.3):
            v1 = heat_kernel(AlphaParams((a,)), 0.4, [0.3], [-1.7])
            v2 = heat_kernel(AlphaParams((a,)), 0.4, [-1.7], [0.3])
            assert v1 == v2  # the formula is symmetric; same arithmetic both ways

    def test_mehler_oracle(self):
        for (x, y, t) in [(0.3, 0.7, 0.5), (1.0, 2.0, 0.1), (0.0, 1.0, 2.0)]:
            got = heat_kernel(AlphaParams((-0.5,)), t, [x], [y])
            assert got == pytest.approx(mehler(t, x, y), rel=1e-11)

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
                            assert heat_kernel(AlphaParams((a,)), t, [x], [y]) > 0.0

    def test_no_negative_noise(self):
        # outside the representable region values may underflow, but never
        # to negative garbage
        for a in (-0.5, 0.0, 1.3):
            for x in np.linspace(-3, 3, 7):
                for y in np.linspace(-3, 3, 7):
                    assert heat_kernel(AlphaParams((a,)), 0.01, [x], [y]) >= 0.0

    def test_rejects_bad_t(self):
        with pytest.raises(ValueError):
            heat_kernel(AlphaParams((0.0,)), 0.0, [1.0], [1.0])

    def test_rejects_non_finite_t_and_pairs(self):
        # unchecked, a NaN t or coordinate gives NaN values and t = inf gives 0
        al = AlphaParams((0.0, 0.7))
        X, Y = np.array([[0.5, 1.0], [1.2, -0.4]]), np.array([[0.2, -0.3], [0.9, 2.0]])
        for t in (math.nan, math.inf, np.array([0.3, math.nan])):
            with pytest.raises(ValueError, match="t must be finite and positive"):
                heat_kernel(al, t, X, Y)
        for t in (math.nan, math.inf):
            for call in (lambda: heat_kernel_component(al, (0, 1), t, X, Y),
                         lambda: heat_kernel_series(al, t, X, Y, 4)):
                with pytest.raises(ValueError, match="t must be finite and positive"):
                    call()
        Ybad = Y.copy()
        Ybad[1, 0] = math.nan
        for call in (lambda: heat_kernel(al, 0.3, X, Ybad),
                     lambda: heat_kernel_component(al, (0, 1), 0.3, Ybad, X),
                     lambda: heat_kernel_series(al, 0.3, X, Ybad, 4),
                     lambda: riesz_kernel(al, 0, X, Ybad, KernelConfig()),
                     lambda: riesz_kernel_components(al, 0, X, Ybad, KernelConfig()),
                     lambda: riesz_kernel_with_gradient(al, 0, X, Ybad, KernelConfig()),
                     lambda: riesz_kernel_direct(al, 0, X, Ybad)):
            with pytest.raises(ValueError, match="pair 1 has a non-finite coordinate"):
                call()

    def test_rejects_non_finite_points(self):
        # the columns skip the pair check: a NaN point gave NaN columns
        al = AlphaParams((0.0, 0.7))
        rule, one = default_rule(al, 8), lambda p: np.ones(p.shape[0])
        x = np.array([[0.3, 0.1], [0.2, math.nan]])
        for call in (lambda: heat_kernel_column(0.3, x, rule),
                     lambda: heat_apply_kernel(one, np.array([0.3, 1.0]), x, rule),
                     lambda: maximal_empirical(one, x[1], [0.3], rule)):
            with pytest.raises(ValueError, match=r"point \d has a non-finite coordinate: x = "):
                call()
        rule1 = default_rule(AlphaParams((0.0,)), 20)
        for x in ([math.nan], [[0.5], [math.inf]]):
            for call in (lambda: heat_kernel_column(0.3, x, rule1),
                         lambda: heat_apply_kernel(one, 0.3, x, rule1)):
                with pytest.raises(ValueError, match=f"point {len(x) - 1} has a non-finite"):
                    call()

    @pytest.mark.parametrize("alpha", [(-0.5, 0.7), (0.0, -0.5, 1.3)])
    def test_series_bitwise_against_the_per_degree_sum(self, alpha):
        # the Cauchy product adds each degree's terms in the order of k, as
        # the per-degree Python sum it replaced did
        al, M, t = AlphaParams(alpha), 30, 0.5
        rng = np.random.default_rng(4)
        X, Y = rng.uniform(0.0, 2.0, (6, al.dim)), rng.uniform(0.0, 2.0, (6, al.dim))
        conv = None
        for i, a in enumerate(alpha):
            e = hermite_fn_all_1d(M, a, X[:, i]) * hermite_fn_all_1d(M, a, Y[:, i])
            conv = e if conv is None else np.array(
                [sum(conv[k] * e[m - k] for k in range(m + 1)) for m in range(M + 1)])
        lam = eigenvalue(np.outer(np.arange(M + 1), np.eye(1, al.dim, dtype=int)), al)
        assert np.array_equal(heat_kernel_series(al, t, X, Y, M), np.exp(-t * lam) @ conv)

    def test_array_of_t(self):
        al, ts = AlphaParams((0.7,)), np.array([0.05, 0.3, 2.0])
        X, Y = np.array([[0.3], [-1.7]]), np.array([[1.1], [0.4]])
        single = [heat_kernel(al, float(t), [0.3], [1.1]) for t in ts]
        np.testing.assert_allclose(heat_kernel(al, ts, [0.3], [1.1]), single, rtol=1e-15)
        stacked = heat_kernel(al, ts, X, Y)
        assert stacked.shape == (3, 2)
        np.testing.assert_allclose(stacked[:, 0], single, rtol=1e-15)


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
            zeta = math.tanh(t)
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


class TestKernelColumn:
    @pytest.mark.parametrize("rule", [
        default_rule(AlphaParams((-0.5,)), 80), default_rule(AlphaParams((1.3,)), 80),
        default_rule(AlphaParams((-0.5, 0.7)), 80), default_rule(AlphaParams((0.0, -0.5, 1.3)), 20),
        # unequal axis sizes: a transposed outer product puts values on the wrong nodes
        tensor_rule([gauss_rule_1d(-0.5, 5), gauss_rule_1d(1.3, 9), gauss_rule_1d(0.0, 3)]),
    ], ids=["d1-atomic", "d1", "d2", "d3", "d3-unequal-axes"])
    def test_matches_broadcast_kernel(self, rule):
        # Bitwise at d = 1; else relative where the kernel is a normal float
        # (at t = 0.05 far nodes underflow, where neither route is relative).
        rtol, atol = (0.0, 0.0) if rule.dim == 1 else (1e-12, np.finfo(float).tiny)
        for t in (0.05, 3.0):
            for x in [(0.0, 0.0, 0.0), (1.3, 0.0, 2.0), (-1.7, 0.4, -0.9)]:
                x = x[:rule.dim]
                ref = heat_kernel(rule.alpha, t, np.broadcast_to(x, rule.nodes.shape), rule.nodes)
                np.testing.assert_allclose(heat_kernel_column(t, x, rule), ref, rtol, atol)

    @pytest.mark.parametrize("alpha", [(0.0,), (-0.5, 0.7), (0.0, -0.5, 1.3)])
    def test_stacked_call_equals_single_calls(self, alpha):
        rule = default_rule(AlphaParams(alpha), 20 if len(alpha) == 3 else 80)
        ts = np.array([0.05, 0.3, 1.0, 3.0])
        X = np.random.default_rng(7).uniform(-2.5, 2.5, size=(7, len(alpha)))
        got = heat_kernel_column(ts, X, rule)
        ref = np.array([[heat_kernel_column(float(t), x, rule) for x in X] for t in ts])
        np.testing.assert_allclose(got, ref, rtol=1e-15, atol=0.0)

    def test_shapes(self):
        rule = default_rule(AlphaParams((-0.5, 0.7)), 6)
        M = rule.nodes.shape[0]
        X = np.zeros((3, 2))
        assert heat_kernel_column([0.3, 1.0], X, rule).shape == (2, 3, M)
        assert heat_kernel_column(0.3, X, rule).shape == (3, M)
        assert heat_kernel_column([0.3, 1.0], X[0], rule).shape == (2, M)
        assert heat_kernel_column(0.3, X[0], rule).shape == (M,)

    @pytest.mark.parametrize("x", [[0.3], [0.3, 0.1, 0.2]])
    def test_wrong_length_point_rejected(self, x):
        with pytest.raises(ValueError, match="x must be a point in R\\^2"):
            heat_kernel_column(0.3, x, default_rule(AlphaParams((-0.5, 0.7)), 4))


class TestApplyKernel:
    def test_eigenfunction_action(self, rules):
        al = AlphaParams((1.3,))
        rule = rules[(1.3,)]
        h0 = lambda pts: hermite_fn((0,), al, pts)
        t = 0.37
        x = np.array([0.9])
        got = heat_apply_kernel(h0, t, x, rule)
        lam = 2 * al.abs_sum + 2
        ref = math.exp(-t * lam) * hermite_fn((0,), al, np.array([[0.9]]))[0]
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

    def test_function_family_equals_single_calls_bitwise(self):
        al = AlphaParams((-0.5, 0.7))
        rule = default_rule(al, 20)
        rng = np.random.default_rng(3)
        fs = [lambda pts, w=w: np.cos(pts @ w) for w in rng.uniform(0.3, 2.0, size=(4, 2))]
        x = np.array([0.4, -1.1])
        for t in (0.1, 1.0):
            vals = heat_apply_kernel(fs, t, x, rule)
            assert vals.shape == (4,)
            assert vals.tolist() == [heat_apply_kernel(f, t, x, rule) for f in fs]

    def test_stacked_times_and_points_equal_single_calls(self):
        al = AlphaParams((-0.5, 0.7))
        rule = default_rule(al, 20)
        rng = np.random.default_rng(4)
        fs = [lambda pts, w=w: np.cos(pts @ w) for w in rng.uniform(0.3, 2.0, size=(3, 2))]
        ts, X = np.array([0.1, 1.0]), rng.uniform(-2.0, 2.0, size=(4, 2))
        got = heat_apply_kernel(fs, ts, X, rule)
        assert got.shape == (2, 4, 3)
        ref = [[heat_apply_kernel(fs, float(t), x, rule) for x in X] for t in ts]
        np.testing.assert_allclose(got, ref, rtol=1e-14, atol=1e-16)
        np.testing.assert_allclose(heat_apply_kernel(fs[0], ts, X, rule), got[..., 0],
                                   rtol=0.0, atol=0.0)

    def test_matches_spectral_synthesis(self, rules):
        from dunklosc.quadrature import synthesize
        al = AlphaParams((0.0,))
        rule = rules[(0.0,)]
        rng = np.random.default_rng(5)
        coeff = SpectralCoeffs([(n,) for n in range(8)], [float(rng.normal()) for n in range(8)],
                               al)
        f = lambda pts: synthesize(coeff, pts)
        t = 0.4
        x = np.array([0.7])
        kernel_route = heat_apply_kernel(f, t, x, rule)
        spec = heat_apply_spectral(coeff, t)
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

    def test_one_column_call_equals_per_t_maximum(self, rules):
        rule = rules[(0.0,)]
        bump = lambda pts: np.exp(-4 * (pts[:, 0] - 0.5) ** 2)
        x = np.array([0.2])
        for grid in (np.geomspace(0.01, 5.0, 12), [0.7]):
            ref = max(abs(heat_apply_kernel(bump, float(t), x, rule)) for t in grid)
            assert maximal_empirical(bump, x, grid, rule) == pytest.approx(ref, rel=1e-14)

    def test_empty_grid_rejected(self, rules):
        rule = rules[(0.0,)]
        with pytest.raises(ValueError):
            maximal_empirical(lambda p: np.ones(p.shape[0]), np.array([0.0]), [], rule)


class TestHeatChecksBatched:
    """The semigroup and contraction checks batch their points and times:
    per-point loops made 100 d + 4 and 10 d kernel evaluations."""

    @pytest.mark.parametrize("alpha", [(0.0,), (-0.5, 0.7)])
    @pytest.mark.parametrize("check", [_check_semigroup, _check_contraction])
    def test_at_most_2d_plus_1_kernel_evaluations(self, monkeypatch, alpha, check):
        calls = []
        values = heat_module._heat_values
        monkeypatch.setattr(heat_module, "_heat_values",
                            lambda *a, **k: calls.append(1) or values(*a, **k))
        assert check(RunConfig(alpha, quad_points=20))["passed"]
        assert 0 < len(calls) <= 2 * len(alpha) + 1
