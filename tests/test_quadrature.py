import math

import mpmath as mp
import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from dunklosc.heat import heat_apply_kernel, heat_apply_spectral
from dunklosc.hermite import AlphaParams, hermite_fn, hermite_fn_all_1d
from dunklosc.quadrature import (MAX_POINTS, SpectralCoeffs, default_rule, gauss_rule_1d,
                                 inner_product, multi_indices_upto, project, synthesize,
                                 tensor_rule)
from dunklosc.riesz import riesz_apply_spectral

from conftest import ALPHA_MATRIX


class TestRule1d:
    # The 12-node cases keep the bare alpha as their id.
    @pytest.mark.parametrize("a, m", [
        pytest.param(a, m, id=f"{a}" if m == 12 else f"{a}-{m}")
        for m in (12, 80, MAX_POINTS) for a in (-0.5, 0.0, 1.3)
    ])
    def test_moment_table_to_exactness(self, a, m):
        r = gauss_rule_1d(a, m)
        assert np.all(np.isfinite(r.weights))
        weighted = r.weights * np.exp(-r.nodes**2)
        # Degree 118 keeps Gamma and |x|^k inside double range at 512 nodes.
        for k in range(0, min(r.exactness_degree, 118) + 1, 2):
            got = float(np.sum(weighted * np.abs(r.nodes) ** k))
            exact = math.gamma((k + 2 * a + 2) / 2)
            assert abs(got - exact) / exact < 1e-12, (k,)

    @pytest.mark.parametrize("a", [-0.5, 0.0, 1.3])
    def test_weights_match_mpmath(self, a):
        # Independent oracle at 50 digits: Newton-polished roots of L_n^a and
        # e^u Gamma(n+a+1) / (n! u L_n^a'(u)^2), tail nodes included.
        n = 80
        r = gauss_rule_1d(a, n)
        with mp.workdps(50):
            am = mp.mpf(a)

            def laguerre_and_deriv(u):
                prev, cur = mp.mpf(0), mp.mpf(1)
                for k in range(n):
                    prev, cur = cur, ((2 * k + 1 + am - u) * cur - (k + am) * prev) / (k + 1)
                return cur, (n * cur - (n + am) * prev) / u

            for x, w_half in zip(r.nodes[n:], r.weights[n:]):
                u = mp.mpf(float(x)) ** 2
                for _ in range(8):
                    val, der = laguerre_and_deriv(u)
                    u -= val / der
                _, der = laguerre_and_deriv(u)
                exact = mp.exp(mp.loggamma(n + am + 1) - mp.loggamma(n + 1) + u) / (u * der**2)
                assert abs(2 * w_half - exact) / exact <= 1e-12, (float(x), float(exact))

    @pytest.mark.parametrize("a", [-0.5, 0.0, 1.3])
    def test_christoffel_identity_at_every_node(self, a):
        # 2 w_i sum_{m<n} h_{2m}(x_i)^2 = 1 on the widest rule: the Hermite
        # table against the weights, out to the tail nodes (|x| up to 44.8)
        r = gauss_rule_1d(a, MAX_POINTS)
        table = hermite_fn_all_1d(2 * MAX_POINTS - 2, a, r.nodes)[0::2]
        np.testing.assert_allclose(2 * r.weights * np.sum(table**2, axis=0), 1.0, rtol=1e-11)

    def test_first_moments(self):
        for a in (-0.5, 0.0, 1.3):
            r = gauss_rule_1d(a, 20)
            w = r.weights * np.exp(-r.nodes**2)
            assert np.sum(w) == pytest.approx(math.gamma(a + 1), rel=1e-13)
            assert np.sum(w * r.nodes**2) == pytest.approx(math.gamma(a + 2), rel=1e-13)

    def test_odd_moments_vanish(self):
        r = gauss_rule_1d(0.7, 15)
        w = r.weights * np.exp(-r.nodes**2)
        for k in (1, 3, 7):
            assert abs(np.sum(w * r.nodes**k)) < 1e-14

    def test_symmetry(self):
        r = gauss_rule_1d(0.3, 17)
        np.testing.assert_allclose(r.nodes, -r.nodes[::-1])
        np.testing.assert_allclose(r.weights, r.weights[::-1])

    @pytest.mark.parametrize("a", [-0.5, 0.0, 1.3])
    def test_nodes_match_tridiagonal_eigensolver(self, a):
        # the dense eigensolver on the Laguerre Jacobi matrix against
        # LAPACK's tridiagonal one, to a few ulps of each node x = sqrt(u)
        for m in (12, 80, MAX_POINTS):
            k = np.arange(m)
            ref = np.sqrt(eigh_tridiagonal(2.0 * k + a + 1.0, np.sqrt(k[1:] * (k[1:] + a)),
                                           eigvals_only=True))
            x = gauss_rule_1d(a, m).nodes[m:]
            assert np.all(np.abs(x - ref) <= 4 * np.spacing(ref)), m

    def test_size_guard(self):
        with pytest.raises(ValueError):
            gauss_rule_1d(0.0, 513)
        with pytest.raises(ValueError):
            gauss_rule_1d(0.0, 0)


class TestTensorRule:
    def test_single_axis_identity(self):
        r1 = gauss_rule_1d(0.7, 10)
        rule = tensor_rule([r1])
        assert rule.nodes.shape == (20, 1)
        np.testing.assert_allclose(rule.nodes[:, 0], r1.nodes)
        np.testing.assert_allclose(rule.weights, r1.weights)

    def test_node_count(self):
        rule = tensor_rule([gauss_rule_1d(0.0, 3), gauss_rule_1d(1.0, 3)])
        assert rule.nodes.shape == (36, 2)  # (2*3)^2

    def test_h00_normalized(self):
        al = AlphaParams((-0.5, 0.7))
        rule = default_rule(al, 40)
        h00 = lambda pts: hermite_fn((0, 0), al, pts)
        assert inner_product(h00, h00, rule) == pytest.approx(1.0, abs=1e-10)


class TestInnerProduct:
    def test_orthonormality(self, rules):
        al = AlphaParams((0.0,))
        rule = rules[(0.0,)]
        h = lambda n: (lambda pts: hermite_fn((n,), al, pts))
        assert inner_product(h(0), h(0), rule) == pytest.approx(1.0, abs=1e-10)
        assert abs(inner_product(h(3), h(5), rule)) < 1e-8

    def test_gaussian_pair_gives_mms(self):
        # <e^{-|x|^2/2}, e^{-|x|^2/2}> = c_alpha
        al = AlphaParams((0.7,))
        rule = default_rule(al, 40)
        g = lambda pts: np.exp(-0.5 * np.sum(pts**2, axis=1))
        assert inner_product(g, g, rule) == pytest.approx(math.gamma(1.7), rel=1e-12)

    def test_nonfinite_detection_names_node(self):
        # every route that samples a function at the nodes refuses a non-finite value
        al = AlphaParams((0.0,))
        rule = default_rule(al, 10)
        bad = lambda pts: np.where(pts[:, 0] > 0, np.nan, 1.0)
        good = lambda pts: np.ones(pts.shape[0])
        for call in (lambda: inner_product(bad, good, rule),
                     lambda: project(bad, al, 4, rule),
                     lambda: heat_apply_kernel(bad, 0.5, [0.3], rule)):
            with pytest.raises(ValueError, match="f returned non-finite value at node"):
                call()


class TestCoefficientKeys:
    @pytest.mark.parametrize("n,values,match", [
        ([(1, 2, 3), (4, 5, 6)], [1.0, -2.0], "dimension mismatch"),
        ([(1, 2), (3,)], [1.0, -2.0], "inhomogeneous"),
        ([(1, -1)], [1.0], ">= 0"),
        ([(1, 0.5)], [1.0], ">= 0"),
        ([1, 2], [1.0, -2.0], "sequences of 2 integers"),
    ], ids=["wrong-length", "ragged", "negative", "non-integer", "not-a-sequence"])
    def test_bad_keys_refused(self, n, values, match):
        # a reshape would turn (1, 2, 3), (4, 5, 6) into (1, 2), (3, 4),
        # (5, 6), and R_j would drop (1, -1) silently: refused when built,
        # before any operator sees the stack
        with pytest.raises(ValueError, match=match):
            SpectralCoeffs(n, values, AlphaParams((0.0, 0.7)))

    def test_values_must_match_the_stack(self):
        for values in ([1.0], [[1.0, 2.0]], [1.0, 2.0, 3.0]):
            with pytest.raises(ValueError, match=r"and K values, got shapes \(2, 2\) and"):
                SpectralCoeffs([(1, 2), (0, 0)], values, AlphaParams((0.0, 0.7)))

    def test_empty_coefficients(self):
        al = AlphaParams((0.0, 0.7))
        c = SpectralCoeffs(np.empty((0, 2), dtype=int), [], al)
        assert np.array_equal(synthesize(c, np.zeros((3, 2))), np.zeros(3))
        assert c[(0, 0)] == 0.0 and c.norm() == 0.0
        for out in (heat_apply_spectral(c, 0.5), riesz_apply_spectral(c, 1)):
            assert out.n.shape == (0, 2) and out.values.shape == (0,)

    def test_coefficient_lookup(self):
        # c[n] is the coefficient of h_n: the values stored at n summed, as
        # synthesize sums their terms, and 0.0 where nothing is stored; a
        # float for one multi-index, a (B,) array for a (B, d) stack
        al = AlphaParams((0.0, 0.7))
        c = SpectralCoeffs([(1, 2), (0, 3), (1, 2)], [0.5, -2.0, 0.25], al)
        assert c[(1, 2)] == 0.75 and c[np.array([0, 3])] == -2.0 and c[(2, 1)] == 0.0
        assert isinstance(c[(1, 2)], float)
        one = c[[(1, 2)]]
        assert isinstance(one, np.ndarray) and one.tolist() == [0.75]
        rows = [(2, 1), (1, 2), (0, 3), (1, 2), (5, 5), (0, 3)]
        assert c[rows].tolist() == [0.0, 0.75, -2.0, 0.75, 0.0, -2.0] == [c[n] for n in rows]
        assert c[np.empty((0, 2), dtype=int)].shape == (0,)
        merged = SpectralCoeffs([(1, 2), (0, 3)], [0.75, -2.0], al)
        pts = np.random.default_rng(2).uniform(-2.0, 2.0, size=(5, 2))
        np.testing.assert_allclose(synthesize(c, pts), synthesize(merged, pts), rtol=1e-14)
        for bad in ((1,), (1, -2), [(1, 2, 3)], [(1, 2), (0, -1)]):
            with pytest.raises(ValueError):
                c[bad]


class TestProject:
    def test_unit_vector(self, rules):
        al = AlphaParams((1.3,))
        rule = rules[(1.3,)]
        f = lambda pts: hermite_fn((4,), al, pts)
        c = project(f, al, 8, rule)
        assert c.n.tolist() == [[k] for k in range(9)]
        for n, v in zip(c.n.tolist(), c.values):
            assert v == pytest.approx(1.0 if n == [4] else 0.0, abs=1e-10)

    def test_linearity(self, rules):
        al = AlphaParams((-0.5, 0.7))
        rule = rules[(-0.5, 0.7)]
        f = lambda pts: (3.0 * hermite_fn((2, 1), al, pts)
                         - 2.0 * hermite_fn((0, 3), al, pts))
        c = project(f, al, 6, rule)
        assert c.n.tolist() == [list(n) for n in multi_indices_upto(2, 6)]
        assert c[(2, 1)] == pytest.approx(3.0, abs=1e-8)
        assert c[(0, 3)] == pytest.approx(-2.0, abs=1e-8)
        others = [v for n, v in zip(c.n.tolist(), c.values) if n not in ([2, 1], [0, 3])]
        assert max(abs(v) for v in others) < 1e-8

    def test_gaussian_bump_residual_monotone(self):
        al = AlphaParams((0.0,))
        rule = default_rule(al, 60)
        f = lambda pts: np.exp(-2.0 * (pts[:, 0] - 0.4) ** 2)
        norms = []
        for N in (4, 8, 16, 24):
            c = project(f, al, N, rule)
            resid = lambda pts: f(pts) - synthesize(c, pts)
            norms.append(math.sqrt(max(inner_product(resid, resid, rule), 0.0)))
        assert all(norms[i + 1] <= norms[i] + 1e-12 for i in range(len(norms) - 1))

    def test_parseval(self, rules):
        # for f in the span, the coefficient norm equals the L2 norm
        for alpha in ALPHA_MATRIX:
            al = AlphaParams(alpha)
            rule = rules[alpha]
            rng = np.random.default_rng(3)
            idx = multi_indices_upto(al.dim, 6)
            coeff = SpectralCoeffs(np.array(idx), [float(rng.normal()) for n in idx], al)
            f = lambda pts: synthesize(coeff, pts)
            c = project(f, al, 6, rule)
            l2 = math.sqrt(inner_product(f, f, rule))
            assert c.norm() == pytest.approx(l2, abs=1e-9)

    def test_exactness_guard(self):
        al = AlphaParams((0.0,))
        rule = default_rule(al, 5)
        with pytest.raises(ValueError):
            project(lambda p: np.ones(p.shape[0]), al, 40, rule)

