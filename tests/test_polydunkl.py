import numpy as np
import pytest

import dunklosc.polydunkl as polydunkl_module
from dunklosc.hermite import AlphaParams, a_coeff, hermite_fn_all_1d
from dunklosc.polydunkl import (Polynomial, dunkl_T, dunkl_laplacian,
                                exp_neg_lap_quarter, fischer_product,
                                fund_identity_check, monomial, verify_eldwa)
from dunklosc.quadrature import default_rule, multi_indices_upto
from dunklosc.suite import RunConfig, _check_fischer

AL1 = AlphaParams((0.7,))
AL2 = AlphaParams((0.7, 1.2))


class TestDunklT:
    def test_monomial_rules(self):
        # even exponent: plain derivative coefficient; odd: n + 2a + 1
        p = dunkl_T(0, AL1, monomial((2,)))
        assert p.terms == {(1,): 2.0}
        p = dunkl_T(0, AL1, monomial((1,)))
        assert p.terms == {(0,): pytest.approx(2 * 0.7 + 2)}
        assert dunkl_T(0, AL1, monomial((0,))).is_zero()

    def test_classical_reduction(self):
        # a = -1/2 makes T the ordinary derivative on monomials
        al = AlphaParams((-0.5,))
        for n in range(1, 8):
            p = dunkl_T(0, al, monomial((n,)))
            assert p.terms == {(n - 1,): pytest.approx(float(n))}

    def test_linearity_and_degree_drop(self):
        p = Polynomial({(3, 0): 2.0, (1, 2): -1.0}, 2)
        q = dunkl_T(0, AL2, p)
        assert q.degree == p.degree - 1
        # term-by-term: 2 x^3 -> 2(3+2a+1) x^2 ; -x y^2 -> -(1+2a+1) y^2
        a = AL2[0]
        assert q.terms[(2, 0)] == pytest.approx(2 * (3 + 2 * a + 1))
        assert q.terms[(0, 2)] == pytest.approx(-(1 + 2 * a + 1))

    def test_commutativity(self):
        rng = np.random.default_rng(5)
        idx = multi_indices_upto(2, 10)
        for _ in range(20):
            terms = {idx[k]: float(rng.normal()) for k in rng.integers(0, len(idx), 5)}
            p = Polynomial(terms, 2)
            ab = dunkl_T(0, AL2, dunkl_T(1, AL2, p))
            ba = dunkl_T(1, AL2, dunkl_T(0, AL2, p))
            keys = set(ab.terms) | set(ba.terms)
            for k in keys:
                assert ab.terms.get(k, 0.0) == pytest.approx(ba.terms.get(k, 0.0), abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            dunkl_T(2, AL2, monomial((1, 1)))


class TestLaplacian:
    def test_x_squared(self):
        # Delta x^2 = T(2x) = 2(2a+2)
        p = dunkl_laplacian(AL1, monomial((2,)))
        assert p.terms == {(0,): pytest.approx(2 * (2 * 0.7 + 2))}

    def test_constant_and_cross_term(self):
        assert dunkl_laplacian(AL2, monomial((0, 0))).is_zero()
        # x1 x2: each T_j^2 kills it
        assert dunkl_laplacian(AL2, monomial((1, 1))).is_zero()

    def test_matches_composition(self):
        rng = np.random.default_rng(6)
        idx = multi_indices_upto(2, 8)
        for _ in range(10):
            terms = {idx[k]: float(rng.normal()) for k in rng.integers(0, len(idx), 4)}
            p = Polynomial(terms, 2)
            direct = dunkl_laplacian(AL2, p)
            comp = dunkl_T(0, AL2, dunkl_T(0, AL2, p)) + dunkl_T(1, AL2, dunkl_T(1, AL2, p))
            keys = set(direct.terms) | set(comp.terms)
            for k in keys:
                assert direct.terms.get(k, 0.0) == pytest.approx(comp.terms.get(k, 0.0))


class TestExpSeries:
    def test_low_degree_fixed_points(self):
        assert exp_neg_lap_quarter(AL1, monomial((0,))).terms == {(0,): 1.0}
        p = Polynomial({(1,): 3.0}, 1)
        assert exp_neg_lap_quarter(AL1, p).terms == p.terms

    def test_degree_two(self):
        # x^2 - (1/4) Delta x^2 = x^2 - (a+1)
        a = 0.7
        p = exp_neg_lap_quarter(AL1, monomial((2,)))
        assert p.terms[(2,)] == pytest.approx(1.0)
        assert p.terms[(0,)] == pytest.approx(-(a + 1))

    def test_termination(self):
        p = exp_neg_lap_quarter(AL2, monomial((6, 4)))
        assert p.degree == 10


class TestEvaluation:
    def test_call_bitwise_against_per_term_powers(self):
        # each power x_i^e is computed once per call; the per-term products
        # and their sum keep their order
        p = Polynomial({(3, 0): 0.5, (1, 2): -1.25, (0, 0): 2.0, (3, 2): 0.75}, 2)
        pts = np.random.default_rng(0).normal(size=(50, 2))
        ref = np.zeros(50)
        for n, c in p.terms.items():
            mon = np.ones(50)
            for i, e in enumerate(n):
                if e:
                    mon = mon * pts[:, i] ** e
            ref += c * mon
        assert np.array_equal(p(pts), ref)
        assert p([0.5, -2.0]).tolist() == [2.0 + 0.0625 - 1.25 * 0.5 * 4.0 + 0.75 * 0.125 * 4.0]


class TestFischer:
    def test_degree_mismatch_orthogonality(self):
        for m, n in [(0, 1), (1, 2), (2, 5)]:
            assert fischer_product(monomial((m,)), monomial((n,)), AL1) == 0.0

    def test_monomial_norms_reproduce_a_coeff(self):
        for n in range(7):
            got = fischer_product(monomial((n,)), monomial((n,)), AL1)
            assert got == pytest.approx(a_coeff(n, 0.7), rel=1e-12)

    def test_constant(self):
        assert fischer_product(monomial((0,)), monomial((0,)), AL1) == 1.0

    def test_graded_orthogonality_2d(self):
        idx = multi_indices_upto(2, 5)
        for n in idx:
            for m in idx:
                if sum(n) != sum(m):
                    assert fischer_product(monomial(n), monomial(m), AL2) == 0.0

    def test_symmetry_on_equal_degree(self):
        rng = np.random.default_rng(7)
        for deg in (2, 3, 4):
            idx = [n for n in multi_indices_upto(2, deg) if sum(n) == deg]
            t1 = {idx[k]: float(rng.normal()) for k in rng.integers(0, len(idx), 3)}
            t2 = {idx[k]: float(rng.normal()) for k in rng.integers(0, len(idx), 3)}
            p, q = Polynomial(t1, 2), Polynomial(t2, 2)
            assert fischer_product(p, q, AL2) == pytest.approx(
                fischer_product(q, p, AL2), rel=1e-12, abs=1e-12)


class TestEldwa:
    def test_trivial_degree_one(self):
        rep = verify_eldwa(AlphaParams((0.3, 0.9)), 1)
        assert rep.passed

    def test_classical(self):
        rep = verify_eldwa(AlphaParams((-0.5,)), 6)
        assert rep.passed
        # norms are sqrt(n), so the ratio to sqrt(|n|+1) stays below 1
        assert rep.max_norm_ratio <= 1.0 + 1e-12

    def test_generic_2d(self):
        rep = verify_eldwa(AlphaParams((0.7, 1.2)), 5)
        assert rep.passed
        assert rep.pairs_checked > 0
        assert rep.max_cross_product <= 1e-10

    def test_requires_positive_degree(self):
        with pytest.raises(ValueError):
            verify_eldwa(AL1, 0)


class TestFundIdentity:
    @pytest.mark.parametrize("alpha", [(-0.5,), (0.0,), (1.3,), (0.7, 1.2)])
    def test_monomial_pairs(self, alpha):
        al = AlphaParams(alpha)
        rule = default_rule(al, 30)
        idx = multi_indices_upto(al.dim, 4)
        for n in idx:
            for m in idx:
                resid = fund_identity_check(monomial(n), monomial(m), al, rule)
                scale = 1.0 + abs(fischer_product(monomial(n), monomial(m), al))
                assert resid <= 1e-8 * scale

    @pytest.mark.parametrize("alpha", [(1.3,), (0.7, 1.2)])
    def test_sequences_equal_single_calls_bitwise(self, alpha):
        al = AlphaParams(alpha)
        rule = default_rule(al, 30)
        mons = [monomial(n) for n in multi_indices_upto(al.dim, 3)]
        resid = fund_identity_check(mons, mons[:4], al, rule)
        assert resid.shape == (len(mons), 4)
        single = [[fund_identity_check(p, q, al, rule) for q in mons[:4]] for p in mons]
        assert resid.tolist() == single

    def test_fischer_check_expands_each_polynomial_once(self, monkeypatch):
        # _check_fischer pairs the 15 monomials of degree <= 4 at d = 2 with
        # themselves; each exp(-Delta/4) expansion was made once per side
        calls = []
        expand = polydunkl_module.exp_neg_lap_quarter
        monkeypatch.setattr(polydunkl_module, "exp_neg_lap_quarter",
                            lambda *a: calls.append(1) or expand(*a))
        assert _check_fischer(RunConfig((0.7, 1.2), quad_points=20))["passed"]
        assert len(calls) == 15

    def test_degree_one_value(self):
        # [x, x]_alpha = a_{1,alpha} = 2 alpha + 2; integral route must agree
        rule = default_rule(AL1, 20)
        resid = fund_identity_check(monomial((1,)), monomial((1,)), AL1, rule)
        assert resid <= 1e-10 * (2 * 0.7 + 2)

    def test_rejects_inhomogeneous(self):
        p = Polynomial({(0,): 1.0, (2,): 1.0}, 1)
        with pytest.raises(ValueError):
            fund_identity_check(p, monomial((2,)), AL1, default_rule(AL1, 20))


class TestProportionalityBridge:
    @pytest.mark.parametrize("alpha_j", [-0.5, 0.0, 1.3])
    def test_exp_lap_matches_hermite_direction(self, alpha_j):
        # e^{-x^2/2} exp(-Delta/4) x^n is a constant multiple of h_n
        al = AlphaParams((alpha_j,))
        x = np.linspace(-3.0, 3.0, 41)
        for n in range(1, 9):
            p = exp_neg_lap_quarter(al, monomial((n,)))
            vals = p(x[:, None]) * np.exp(-x * x / 2)
            href = hermite_fn_all_1d(n, alpha_j, x)[n]
            mask = np.abs(href) > 0.1 * np.max(np.abs(href))
            ratio = vals[mask] / href[mask]
            cv = np.std(ratio) / abs(np.mean(ratio))
            assert cv <= 1e-9
