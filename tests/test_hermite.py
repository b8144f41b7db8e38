import math

import numpy as np
import pytest

from dunklosc.hermite import (AlphaParams, _norm_const, a_coeff,
                              delta_hermite, delta_hermite_1d, delta_star_hermite,
                              delta_star_hermite_1d, eigenvalue, hermite_fn,
                              hermite_fn_1d, hermite_fn_all_1d, ladder_coeff)

from conftest import ALPHA_MATRIX


class TestTypes:
    def test_multi_index(self):
        # a multi-index is d integers >= 0, checked where it is used
        al = AlphaParams((0.0,))
        for bad in ((-1,), (1.0,)):
            with pytest.raises(ValueError, match="integers >= 0"):
                hermite_fn(bad, al, [0.3])

    def test_alpha_params(self):
        al = AlphaParams((-0.5, 0.7))
        assert al.abs_sum == pytest.approx(0.2)
        for bad in (-0.6, math.nan, math.inf):
            with pytest.raises(ValueError, match="alpha_j"):
                AlphaParams((0.0, bad))


class TestACoeff:
    def test_base(self):
        assert a_coeff(0, 1.7) == 1.0

    def test_unrolled(self):
        for a in (-0.5, 0.0, 1.3):
            assert a_coeff(2, a) == pytest.approx(2 * (2 * a + 2), rel=1e-15)

    def test_classical_factorial(self):
        # at a = -1/2 the recurrence gives n!
        assert a_coeff(3, -0.5) == pytest.approx(6.0)
        assert a_coeff(6, -0.5) == pytest.approx(math.factorial(6))


class TestHermite1d:
    def test_value_at_origin(self):
        for a in (-0.5, 0.0, 1.3):
            assert hermite_fn_1d(0, a, 0.0) == pytest.approx(
                1.0 / math.sqrt(math.gamma(a + 1)), rel=1e-14)
            assert hermite_fn_1d(1, a, 0.0) == 0.0
            assert hermite_fn_1d(7, a, 0.0) == 0.0

    def test_classical_ground_state(self):
        for x in np.linspace(-3, 3, 13):
            ref = math.pi ** -0.25 * math.exp(-x * x / 2)
            assert hermite_fn_1d(0, -0.5, float(x)) == pytest.approx(ref, rel=1e-14)

    def test_classical_reduction_with_signs(self):
        # at a = -1/2 the system is the classical Hermite functions
        from numpy.polynomial.hermite import hermval
        x = np.linspace(-4, 4, 33)
        for n in range(9):
            c = np.zeros(n + 1)
            c[n] = 1
            ref = hermval(x, c) * np.exp(-x * x / 2) / math.sqrt(
                2.0**n * math.factorial(n) * math.sqrt(math.pi))
            got = hermite_fn_all_1d(n, -0.5, x)[n]
            np.testing.assert_allclose(got, ref, atol=1e-13)

    def test_batch_matches_pointwise(self):
        x = np.linspace(-5, 5, 21)
        for a in (-0.5, 0.0, 1.3):
            tab = hermite_fn_all_1d(15, a, x)
            for n in (0, 1, 2, 5, 10, 15):
                ref = np.array([hermite_fn_1d(n, a, float(xx)) for xx in x])
                np.testing.assert_allclose(tab[n], ref, atol=1e-12)

    @pytest.mark.parametrize("n,a", [(1000, 0.0), (1001, 1.3)])
    def test_pointwise_tail_against_mpmath(self, n, a):
        # e^{-x^2/2} underflows and L_m(x^2) overflows at x = 39; the closed
        # form must still match a 50-digit evaluation
        import mpmath as mp
        with mp.workdps(50):
            m = n // 2
            b = a if n % 2 == 0 else a + 1.0
            x = mp.mpf(39)
            ref = ((-1) ** m * mp.sqrt(mp.factorial(m) / mp.gamma(m + b + 1))
                   * mp.exp(-x * x / 2) * x ** (n % 2) * mp.laguerre(m, b, x * x))
        assert hermite_fn_1d(n, a, 39.0) == pytest.approx(float(ref), rel=1e-11)
        assert hermite_fn_1d(n, a, -39.0) == pytest.approx((-1) ** n * float(ref), rel=1e-11)

    def test_high_degree_no_overflow(self):
        x = np.linspace(-20, 20, 41)
        tab = hermite_fn_all_1d(300, 1.3, x)
        assert np.all(np.isfinite(tab))


class TestTensor:
    def test_product_structure(self):
        al = AlphaParams((-0.5, 0.7))
        n = (2, 0)
        pt = np.array([0.4, -1.1])
        ref = hermite_fn_1d(2, -0.5, 0.4) * hermite_fn_1d(0, 0.7, -1.1)
        assert hermite_fn(n, al, pt) == pytest.approx(ref, rel=1e-14)

    def test_origin_values(self):
        al = AlphaParams((-0.5, -0.5))
        assert hermite_fn((0, 0), al, np.zeros(2)) == pytest.approx(
            1 / math.sqrt(math.pi), rel=1e-14)
        assert hermite_fn((0, 3), al, np.zeros(2)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hermite_fn((1,), AlphaParams((0.0, 0.0)), np.zeros(2))

    @pytest.mark.parametrize("op", [delta_hermite, delta_star_hermite])
    @pytest.mark.parametrize("n,j,x,match", [
        ((1, 2), -1, [0.3, 0.4], "coordinate j"),
        ((1, 2), 2, [0.3, 0.4], "coordinate j"),
        ((1, 2), 0, [[0.3, 0.4, 0.5]], "points have dimension 3"),
        ((1,), 0, [0.3, 0.4], "dimension mismatch"),
        (np.array([[1, 2], [0, -1]]), 0, [0.3, 0.4], ">= 0"),
    ])
    def test_ladder_operators_validate_like_hermite_fn(self, op, n, j, x, match):
        # a negative j must not wrap round to the last slot (which would
        # count that coordinate twice), nor may a spare point column or a
        # short index pass or fail with a bare IndexError
        with pytest.raises(ValueError, match=match):
            op(n, AlphaParams((0.0, 0.7)), j, np.array(x))


class TestStacks:
    @pytest.mark.parametrize("alpha", [(1.3,), (-0.5, 0.7), (0.0, -0.5, 1.3)])
    def test_stack_equals_single_calls_bitwise(self, alpha):
        from dunklosc.quadrature import multi_indices_upto
        from dunklosc.riesz import riesz_multiplier
        al = AlphaParams(alpha)
        idx = multi_indices_upto(al.dim, 6 if al.dim < 3 else 4)
        stack = np.array(idx)
        pts = np.random.default_rng(7).uniform(-3.0, 3.0, size=(9, al.dim))
        assert np.array_equal(hermite_fn(stack, al, pts),
                              [hermite_fn(n, al, pts) for n in idx])
        assert np.array_equal(eigenvalue(stack, al), [eigenvalue(n, al) for n in idx])
        for j in range(al.dim):
            for op in (delta_hermite, delta_star_hermite):
                assert np.array_equal(op(stack, al, j, pts),
                                      [op(n, al, j, pts) for n in idx])
            assert np.array_equal(ladder_coeff(stack[:, j], al[j]),
                                  [ladder_coeff(n[j], al[j]) for n in idx])
            assert np.array_equal(riesz_multiplier(stack, al, j),
                                  [riesz_multiplier(n, al, j) for n in idx])

    def test_shapes(self):
        al = AlphaParams((0.0, 0.7))
        stack = np.array([[0, 1], [2, 0], [1, 1]])
        assert hermite_fn(stack, al, [0.3, 0.4]).shape == (3, 1)
        assert hermite_fn(stack, al, np.zeros((5, 2))).shape == (3, 5)
        assert delta_hermite(stack, al, 1, np.zeros((5, 2))).shape == (3, 5)
        assert isinstance(hermite_fn((0, 1), al, [0.3, 0.4]), float)
        assert isinstance(eigenvalue((0, 1), al), float)
        assert isinstance(ladder_coeff(3, 0.7), float)


class TestLadderCoeff:
    def test_values(self):
        assert ladder_coeff(2, 0.3) == pytest.approx(2.0)
        assert ladder_coeff(0, 1.0) == 0.0
        assert ladder_coeff(1, -0.5) == pytest.approx(math.sqrt(2.0))

    def test_eigenvalues(self):
        assert eigenvalue((0,), AlphaParams((-0.5,))) == pytest.approx(1.0)
        assert eigenvalue((1, 1), AlphaParams((0.0, 0.0))) == pytest.approx(8.0)
        assert eigenvalue((0,), AlphaParams((1.5,))) == pytest.approx(5.0)


class TestLadderIdentities:
    @pytest.mark.parametrize("alpha", ALPHA_MATRIX)
    def test_lowering(self, alpha):
        al = AlphaParams(alpha)
        pts = _grid(al.dim)
        for n in _indices(al.dim, 8):
            for j in range(al.dim):
                got = delta_hermite(n, al, j, pts)
                if n[j] == 0:
                    ref = np.zeros(pts.shape[0])
                else:
                    down = np.subtract(n, np.eye(al.dim, dtype=int)[j])
                    ref = ladder_coeff(n[j], al[j]) * hermite_fn(down, al, pts)
                assert np.max(np.abs(got - ref)) < 1e-10

    @pytest.mark.parametrize("alpha", ALPHA_MATRIX)
    def test_raising(self, alpha):
        al = AlphaParams(alpha)
        pts = _grid(al.dim)
        for n in _indices(al.dim, 8):
            for j in range(al.dim):
                got = delta_star_hermite(n, al, j, pts)
                up = np.add(n, np.eye(al.dim, dtype=int)[j])
                ref = ladder_coeff(n[j] + 1, al[j]) * hermite_fn(up, al, pts)
                assert np.max(np.abs(got - ref)) < 1e-10

    def test_eigen_relation_pointwise(self):
        # (1/2) sum_j (delta*_j delta_j + delta_j delta*_j) h_n = lambda_n h_n,
        # with the inner ladder step coefficient and the outer application analytic
        al = AlphaParams((0.0, 1.3))
        pts = _grid(2)
        for n in _indices(2, 5):
            acc = np.zeros(pts.shape[0])
            for j, e in enumerate(np.eye(2, dtype=int)):
                if n[j] >= 1:
                    down = delta_star_hermite(np.subtract(n, e), al, j, pts)
                    acc += 0.5 * ladder_coeff(n[j], al[j]) * down
                acc += 0.5 * ladder_coeff(n[j] + 1, al[j]) * delta_hermite(np.add(n, e), al, j, pts)
            ref = eigenvalue(n, al) * hermite_fn(n, al, pts)
            assert np.max(np.abs(acc - ref)) < 1e-9

    def test_delta_star_is_reflection_of_delta(self):
        # delta* = -delta + 2x pointwise
        x = np.linspace(-3, 3, 11)
        for n in (0, 1, 4, 7):
            ref = -delta_hermite_1d(n, 0.7, x) + 2 * x * hermite_fn_all_1d(n, 0.7, x)[n]
            np.testing.assert_allclose(delta_star_hermite_1d(n, 0.7, x), ref, atol=1e-14)


def _grid(dim, lo=-4.0, hi=4.0):
    npts = 41 if dim == 1 else 11
    axes = [np.linspace(lo, hi, npts)] * dim
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def _indices(dim, max_deg):
    from dunklosc.quadrature import multi_indices_upto
    return multi_indices_upto(dim, max_deg)


class TestHermiteFnObject:
    """The normalization constants d_{n,a} of the basis functions."""

    def test_normalization_matches_closed_form(self):
        # d_{2m, a} = (-1)^m sqrt(m! / Gamma(m+a+1)), d_{2m+1, a} with a+2
        ref = math.sqrt(2.0 / math.gamma(2 + 0.7 + 1))
        assert _norm_const(4, 0.7) == pytest.approx(ref, rel=1e-14)
        ref = math.sqrt(2.0 / math.gamma(2 + 0.7 + 2))  # sign (-1)^m, m = 2
        assert _norm_const(5, 0.7) == pytest.approx(ref, rel=1e-14)
        ref = -math.sqrt(1.0 / math.gamma(1 + 0.7 + 2))  # m = 1
        assert _norm_const(3, 0.7) == pytest.approx(ref, rel=1e-14)
