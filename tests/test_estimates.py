import math
import re

import numpy as np
import pytest

import dunklosc.riesz as riesz_module
from dunklosc.estimates import (ap_power_weight, ball_measure, ball_measure_qmc, cz_scans,
                                growth_scan, pair_sample, reflection_distance, smoothness_scan,
                                soni_scan)
from dunklosc.hermite import AlphaParams
from dunklosc.riesz import KernelConfig
from dunklosc.suite import RunConfig, _check_scans

FAST_CFG = KernelConfig(zeta_points=192, zeta_grading=3.0,
                        s_points_per_dim=48, s_method="exact")


class TestBallMeasure:
    def test_lebesgue_case(self):
        al = AlphaParams((-0.5,))
        v = ball_measure(al, [0.7], 0.4)
        assert v == pytest.approx(0.8, rel=1e-14)

    def test_weighted_antiderivative(self):
        al = AlphaParams((0.0,))
        v = ball_measure(al, [0.0], 1.5)
        assert v == pytest.approx(1.5**2, rel=1e-14)
        # off-center: F(x+r)-F(x-r) with F = sgn(u) u^2 / 2
        v = ball_measure(al, [1.0], 0.5)
        assert v == pytest.approx((1.5**2 - 0.5**2) / 2, rel=1e-14)

    def test_mc_agrees_with_closed_form_d1(self):
        al = AlphaParams((0.7,))
        exact = ball_measure(al, [0.4], 1.1)
        mc, se = ball_measure_qmc(al, [0.4], 1.1, npoints=1 << 17, seed=3)
        assert se > 0
        # se has ddof 1 over 8 replicates, so the error over se is Student t_7;
        # |t_7| > 2.806 on 2.6 % of seeds
        assert abs(mc - exact) <= 2.806 * se

    def test_d2_against_grid(self):
        al = AlphaParams((0.0, 0.0))
        v = ball_measure(al, [0.5, -0.3], 0.8)
        xs = np.linspace(-0.3, 1.3, 1601)
        ys = np.linspace(-1.1, 0.5, 1601)
        XX, YY = np.meshgrid(xs, ys, indexing="ij")
        mask = (XX - 0.5) ** 2 + (YY + 0.3) ** 2 < 0.64
        ref = np.sum(np.abs(XX) * np.abs(YY) * mask) * (xs[1] - xs[0]) * (ys[1] - ys[0])
        assert v == pytest.approx(ref, rel=2e-3)

    def test_doubling_property(self):
        # w(B(x, 2r)) <= C w(B(x, r)) with a uniform C over samples
        rng = np.random.default_rng(5)
        for alpha in [(0.0,), (1.3,), (0.0, 0.7)]:
            al = AlphaParams(alpha)
            worst = 0.0
            for _ in range(30):
                x = rng.uniform(-3, 3, size=al.dim)
                r = float(np.exp(rng.uniform(math.log(1e-2), math.log(2.0))))
                small = ball_measure(al, x, r)
                big = ball_measure(al, x, 2 * r)
                worst = max(worst, big / small)
            assert worst < 2.0 ** (al.dim + 2 * sum(alpha) + 2 * al.dim) * 1.2

    def test_positive_orthant_variant(self):
        al = AlphaParams((0.0,))
        full = ball_measure(al, [0.1], 0.5)
        half = ball_measure(al, [0.1], 0.5, positive_orthant=True)
        assert 0 < half < full

    @pytest.mark.parametrize("x,r", [([2.0, 1.5, 1.2], 0.7), ([0.2, -0.3, 0.1], 1.1)])
    def test_lebesgue_balls_d2_d3(self, x, r):
        # alpha = -1/2 is Lebesgue measure: pi r^2 and 4 pi r^3 / 3, for
        # balls inside an orthant and balls across the axes
        v2 = ball_measure(AlphaParams((-0.5, -0.5)), x[:2], r)
        assert v2 == pytest.approx(math.pi * r**2, rel=1e-13)
        v3 = ball_measure(AlphaParams((-0.5, -0.5, -0.5)), x, r)
        assert v3 == pytest.approx(4.0 * math.pi * r**3 / 3.0, rel=1e-13)

    def test_centred_weighted_ball(self):
        # int_{|u| < r} |u_1| |u_2| du = r^4 / 2
        v = ball_measure(AlphaParams((0.0, 0.0)), [0.0, 0.0], 1.3)
        assert v == pytest.approx(1.3**4 / 2.0, rel=1e-13)

    @pytest.mark.parametrize("r", [0.4, 1.0, 2.7])
    def test_centred_weighted_ball_d3(self, r):
        # int_{|u| < r} |u_1 u_2 u_3| du = r^6 / 6 (a Dirichlet integral), an
        # eighth of it on the positive orthant
        al = AlphaParams((0.0, 0.0, 0.0))
        assert ball_measure(al, [0.0, 0.0, 0.0], r) == pytest.approx(r**6 / 6.0, rel=1e-13)
        assert ball_measure(al, [0.0, 0.0, 0.0], r,
                            positive_orthant=True) == pytest.approx(r**6 / 48.0, rel=1e-13)

    @pytest.mark.parametrize("x", [[0.0, 0.6, 0.8], [0.6, 0.8, 0.0], [0.0, 0.0, 1.0],
                                   [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    def test_lebesgue_balls_at_the_ends_of_the_folded_range(self, x):
        # centres with x_1 = 0 or |x'_S| = r at some level: the theta pieces
        # at 0 and at pi/2 have zero width
        r = 1.0
        v3 = ball_measure(AlphaParams((-0.5, -0.5, -0.5)), x, r)
        assert v3 == pytest.approx(4.0 * math.pi * r**3 / 3.0, rel=1e-13)
        v2 = ball_measure(AlphaParams((-0.5, -0.5)), x[:2], r)
        assert v2 == pytest.approx(math.pi * r**2, rel=1e-13)

    @pytest.mark.parametrize("alpha", [(-0.45, 0.7), (-0.3, 2.5), (2.5, -0.45),
                                       (0.7, -0.3), (-0.45, 0.7, -0.3), (2.5, -0.3, -0.45),
                                       (0.0, -0.5, 1.3)])
    @pytest.mark.parametrize("positive_orthant", [False, True])
    def test_self_convergence(self, alpha, positive_orthant, monkeypatch):
        # the module's rule against a four times finer one
        import dunklosc.estimates as est
        from dunklosc.quadrature import _graded_rule
        al = AlphaParams(alpha)
        rng = np.random.default_rng(8)
        X = rng.uniform(-3, 3, size=(12, al.dim))
        R = np.exp(rng.uniform(math.log(1e-2), math.log(10.0), 12))
        v = ball_measure(al, X, R, positive_orthant=positive_orthant)
        t, _, w = _graded_rule(4 * est.BALL_NODES, est.BALL_GRADING)
        monkeypatch.setattr(est, "_BALL_T", t)
        monkeypatch.setattr(est, "_BALL_W", w)
        ref = ball_measure(al, X, R, positive_orthant=positive_orthant)
        assert np.all((ref > 0) | ((ref == 0) & (v == 0)))
        inside = ref > 0
        assert np.max(np.abs(v - ref)[inside] / ref[inside]) <= 1e-8

    @pytest.mark.parametrize("alpha", [(0.0, 0.7), (-0.45, 1.3), (0.0, -0.5, 1.3)])
    @pytest.mark.parametrize("positive_orthant", [False, True])
    def test_quadrature_agrees_with_mc(self, alpha, positive_orthant):
        al = AlphaParams(alpha)
        x = np.array([0.3, -0.2, 0.25][:al.dim])
        v = ball_measure(al, x, 0.9, positive_orthant=positive_orthant)
        mc, se = ball_measure_qmc(al, x, 0.9, npoints=1 << 17, seed=5,
                                  positive_orthant=positive_orthant)
        assert se > 0
        # se has ddof 1 over 8 replicates, so the error over se is Student t_7;
        # |t_7| > 2.806 on 2.6 % of seeds
        assert abs(v - mc) <= 2.806 * se

    @pytest.mark.parametrize("alpha", [(0.0, 0.7), (0.0, -0.5, 1.3)])
    def test_batch_equals_single_calls_bitwise(self, alpha):
        # 40 balls: at d = 3 (17 balls per chunk) the batch spans three chunks
        al = AlphaParams(alpha)
        X, Y = pair_sample(al.dim, 40, seed=4)
        R = np.linalg.norm(X - Y, axis=1)
        for po in (False, True):
            v = ball_measure(al, X, R, positive_orthant=po)
            assert v.shape == (40,)
            single = [ball_measure(al, X[i], float(R[i]), positive_orthant=po)
                      for i in range(40)]
            assert v.tolist() == single

    def test_chunk_bounds_the_innermost_evaluations(self, monkeypatch):
        # at d = 3 a ball needs at most 5 * 3 theta pieces of 32 nodes each,
        # so BALL_CHUNK bounds the closed forms of one chunk of 17 balls
        import dunklosc.estimates as est
        sizes, quadrature = [], est._ball_quadrature

        def spy(alpha, X, R, positive_orthant):
            if X.shape[1] == 1:
                sizes.append(R.size)
            return quadrature(alpha, X, R, positive_orthant)

        monkeypatch.setattr(est, "_ball_quadrature", spy)
        X = np.random.default_rng(2).uniform(-1.0, 1.0, size=(40, 3))
        ball_measure(AlphaParams((0.0, -0.5, 1.3)), X, np.full(40, 4.0))
        assert len(sizes) == 3 and max(sizes) <= est.BALL_CHUNK

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            ball_measure(AlphaParams((0.0,)), [0.0], 0.0)

    @pytest.mark.parametrize("x, r", [([0.3], 0.0), ([0.3], -1.0), ([0.0, 0.2], 0.0),
                                      ([0.0, 0.2], -0.5)])
    def test_non_positive_radius_names_the_ball(self, x, r):
        # the refusal read only "radius must be positive"
        al = AlphaParams((0.0,) * len(x))
        for measure in (ball_measure, lambda *ball: ball_measure_qmc(*ball, npoints=64, seed=1)):
            for k, balls in ((0, (x, r)), (1, ([[0.1] * len(x), x], [1.0, r]))):
                with pytest.raises(ValueError, match=re.escape(
                        f"ball {k} has a non-positive radius: centre {x}, radius {r}")):
                    measure(al, *balls)

    @pytest.mark.parametrize("x, r", [([np.nan], 1.0), ([-np.inf], 1.0), ([0.3], np.inf),
                                      ([0.3], np.nan), ([np.nan, 0.0], 1.0),
                                      ([0.0, 0.0], np.inf), ([0.0, np.inf], 0.5)])
    def test_non_finite_ball_refused(self, x, r):
        # either route returned nan or inf here with no error; a batch names the ball
        al = AlphaParams((0.0,) * len(x))
        for measure in (ball_measure, lambda *ball: ball_measure_qmc(*ball, npoints=64, seed=1)):
            with pytest.raises(ValueError, match=r"ball 0 is not finite: centre \["):
                measure(al, x, r)
            with pytest.raises(ValueError, match=r"ball 1 is not finite: centre \["):
                measure(al, [[0.1] * len(x), x], [1.0, r])


class TestPairSampler:
    def test_distance_range_and_determinism(self):
        X, Y = pair_sample(2, 200, seed=9)
        d = np.linalg.norm(X - Y, axis=1)
        assert np.all(d >= 1e-2 - 1e-12) and np.all(d <= 10.0 + 1e-12)
        X2, Y2 = pair_sample(2, 200, seed=9)
        np.testing.assert_array_equal(X, X2)
        np.testing.assert_array_equal(Y, Y2)

    @pytest.mark.parametrize("n_pairs", [0, -3])
    def test_no_pairs_refused(self, n_pairs):
        # numpy said "need at least one array to concatenate" or "negative
        # dimensions are not allowed" further down the scans
        with pytest.raises(ValueError, match=f"n_pairs must be at least 1, got {n_pairs}"):
            pair_sample(2, n_pairs, seed=9)


class TestScans:
    def test_growth_passes(self):
        rep = growth_scan(AlphaParams((0.0,)), 0, n_pairs=150, seed=21, cfg=FAST_CFG)
        assert rep.passed
        assert math.isfinite(rep.max_ratio) and rep.max_ratio > 0
        assert rep.refinement_drift <= 0.05

    def test_smoothness_passes(self):
        rep = smoothness_scan(AlphaParams((1.3,)), 0, n_pairs=100, seed=22, cfg=FAST_CFG)
        assert rep.passed
        assert math.isfinite(rep.max_ratio)

    def test_reproducible_bitwise(self):
        for scan in (growth_scan, smoothness_scan):
            a = scan(AlphaParams((0.0,)), 0, n_pairs=80, seed=77, cfg=FAST_CFG)
            b = scan(AlphaParams((0.0,)), 0, n_pairs=80, seed=77, cfg=FAST_CFG)
            assert a == b

    @pytest.mark.parametrize("scan", [growth_scan, smoothness_scan])
    def test_reports_where_the_maximum_sits(self, scan):
        al = AlphaParams((-0.5, 0.7))
        rep = scan(al, 1, n_pairs=60, seed=8, cfg=FAST_CFG)
        x, y = (np.array(p) for p in rep.argmax_pair)
        assert rep.extra["argmax_distance"] == pytest.approx(np.linalg.norm(x - y), rel=1e-15)
        assert rep.extra["argmax_reflection_distance"] == reflection_distance(x, y)
        X, Y = pair_sample(2, 60, seed=8)
        assert np.any(np.all(X == x, axis=1) & np.all(Y == y, axis=1))

    @pytest.mark.parametrize("alpha", [(1.3,), (0.0, 0.7), (0.0, -0.5, 1.3)])
    @pytest.mark.parametrize("positive_orthant", [False, True])
    def test_cz_scans_equal_the_two_scans(self, alpha, positive_orthant):
        al = AlphaParams(alpha)
        kw = dict(n_pairs=40, seed=31, cfg=FAST_CFG, positive_orthant=positive_orthant)
        for j in range(al.dim):
            g, s = cz_scans(al, j, **kw)
            assert (g, s) == (growth_scan(al, j, **kw), smoothness_scan(al, j, **kw))
            assert (g.extra["check"], s.extra["check"]) == ("growth", "smoothness")

    @pytest.mark.parametrize("alpha", [(0.0,), (-0.5, 0.7)])
    def test_scan_check_makes_one_kernel_pass_per_resolution(self, monkeypatch, alpha):
        # separate growth and smoothness scans made 4 passes: R and grad R,
        # each at the scan rule and at its doubled rule
        calls = []
        zeta_sum = riesz_module._zeta_sum
        monkeypatch.setattr(riesz_module, "_zeta_sum",
                            lambda *a, **k: calls.append(k) or zeta_sum(*a, **k))
        rec = _check_scans(RunConfig(alpha, seed=7), n_pairs=30)
        assert math.isfinite(rec["residual"])
        assert calls == [{"grad": True}, {"grad": True}]

    def test_scaling_sanity(self):
        # doubling all coordinates keeps the growth ratio bounded
        rep1 = growth_scan(AlphaParams((0.0,)), 0, n_pairs=100, seed=5, cfg=FAST_CFG)
        rep2 = growth_scan(AlphaParams((0.0,)), 0, n_pairs=100, seed=6, cfg=FAST_CFG)
        assert max(rep1.max_ratio, rep2.max_ratio) < 10 * min(rep1.max_ratio, rep2.max_ratio)

    def test_near_diagonal_ratio_stays_bounded(self):
        # approaching the diagonal the kernel grows but |R| w(B) stays bounded
        from dunklosc.riesz import riesz_kernel
        al = AlphaParams((0.7,))
        x = np.array([[1.3]])
        vals, ratios = [], []
        for k in (1, 2):
            y = np.array([[1.3 + 10.0**-k]])
            v = abs(riesz_kernel(al, 0, x, y, FAST_CFG)[0])
            b = ball_measure(al, x[0], 10.0**-k)
            vals.append(v)
            ratios.append(v * b)
        assert vals[1] > vals[0]          # the kernel itself grows
        assert max(ratios) < 10.0         # the CZ ratio does not



class TestReflectionDistance:
    def test_hand_computed_pairs(self):
        # flips of x = (1, 2): (-1, 2), (1, -2), (-1, -2); against
        # y = (-1.5, 2) these lie at 0.5, sqrt(6.25 + 16) and sqrt(0.25 + 16)
        assert reflection_distance([1.0, 2.0], [-1.5, 2.0]) == 0.5
        # d = 1: the one flip; d = 3: only the flip of the last coordinate is near
        assert reflection_distance([0.3], [-0.7]) == pytest.approx(0.4, abs=1e-15)
        assert reflection_distance([1.0, 2.0, 3.0], [1.0, 2.0, -2.5]) == pytest.approx(0.5)
        X = np.array([[1.0, 2.0], [3.0, -4.0]])
        Y = np.array([[-1.5, 2.0], [3.0, -4.0]])
        # a pair on the diagonal is 2 * min |x_i| = 6 from its nearest flip
        np.testing.assert_allclose(reflection_distance(X, Y), [0.5, 6.0], rtol=1e-15)


class TestApPowerWeight:
    def test_paper_instances(self):
        assert ap_power_weight(0.0, 2.0, 1.0) is True     # range (-2, 2)
        assert ap_power_weight(0.0, 1.0, 0.5) is False    # (-2, 0] for p = 1
        assert ap_power_weight(1.3, 3.0, 0.0) is True     # r = 0 always inside

    def test_boundaries_strict(self):
        a, p = 0.0, 2.0
        lo, hi = -2.0, 2.0
        assert ap_power_weight(a, p, lo) is False
        assert ap_power_weight(a, p, lo + 1e-9) is True
        assert ap_power_weight(a, p, hi) is False
        assert ap_power_weight(a, p, hi - 1e-9) is True

    def test_p1_right_endpoint_closed(self):
        assert ap_power_weight(0.3, 1.0, 0.0) is True
        assert ap_power_weight(0.3, 1.0, 1e-9) is False

    def test_truth_table(self):
        # 50 cases against an independently tabulated criterion
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = float(rng.uniform(-0.5, 2.0))
            p = float(rng.choice([1.0, 1.2, 2.0, 3.5]))
            r = float(rng.uniform(-4.0, 6.0))
            lo = -(2 * a + 2)
            expected = (lo < r <= 0.0) if p == 1.0 else (lo < r < (2 * a + 2) * (p - 1))
            assert ap_power_weight(a, p, r) == expected

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            ap_power_weight(0.0, 0.5, 0.0)


class TestSoni:
    def test_scan_passes(self):
        rep = soni_scan()
        assert rep.passed
        assert rep.sample_count == 20 * 30
        assert rep.extra["min_relative_gap"] > 0.0

    def test_example_values(self):
        # I_1(1) < I_0(1), standard values
        from dunklosc.special import bessel_i_scaled
        i0 = bessel_i_scaled(0.0, 1.0) * math.e
        i1 = bessel_i_scaled(1.0, 1.0) * math.e
        assert i0 == pytest.approx(1.2660658777520084, rel=1e-12)
        assert i1 == pytest.approx(0.5651591039924851, rel=1e-12)
        assert i1 < i0

    def test_elementary_case(self):
        assert math.cosh(1.0) > math.sinh(1.0)

    def test_gap_decreases_but_stays_positive(self):
        from dunklosc.special import bessel_i_scaled
        gaps = []
        for z in (1.0, 10.0, 100.0, 1000.0):
            hi = bessel_i_scaled(0.7, z)
            lo = bessel_i_scaled(1.7, z)
            gaps.append((hi - lo) / hi)
        assert all(g > 0 for g in gaps)
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
