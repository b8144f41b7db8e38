import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad

from dunklosc.heat import all_parities, q_plus_minus, zeta_of_t
from dunklosc.hermite import AlphaParams, ladder_coeff
from dunklosc.quadrature import SpectralCoeffs, default_rule, multi_indices_upto
from dunklosc.riesz import (AnnularBump, IntervalBump, KernelConfig, SchlafliMeasure,
                            apriori_identity_check, beta_weight, delta_psi,
                            dual_pairing_check, psi_zeta, riesz_adjoint_spectral,
                            riesz_apply_spectral, riesz_kernel,
                            riesz_kernel_component, riesz_kernel_components,
                            riesz_kernel_direct, riesz_multiplier,
                            star_identity_check, zeta_grid)
from dunklosc.special import bessel_ratio

from conftest import reflection_distance

CFG = KernelConfig(zeta_points=192, zeta_grading=3.0, s_points_per_dim=48)
CFG_EXACT = KernelConfig(zeta_points=256, zeta_grading=3.0, s_points_per_dim=48,
                         s_method="exact")


class TestSpectral:
    def test_ground_state_annihilated(self):
        c = SpectralCoeffs({(0,): 1.0}, AlphaParams((0.7,)))
        assert riesz_apply_spectral(c, 0).coeffs == {}

    def test_multiplier_value(self):
        # n = 2 e_j, d = 1, alpha = 0: m(2,0)/sqrt(2*2 + 0 + 2) = 2/sqrt(6)
        c = SpectralCoeffs({(2,): 1.0}, AlphaParams((0.0,)))
        out = riesz_apply_spectral(c, 0)
        assert out.coeffs[(1,)] == pytest.approx(2.0 / math.sqrt(6.0), rel=1e-15)

    def test_linearity(self):
        al = AlphaParams((0.0, 1.3))
        rng = np.random.default_rng(0)
        idx = multi_indices_upto(2, 6)
        c1 = SpectralCoeffs({n: float(rng.normal()) for n in idx}, al)
        c2 = SpectralCoeffs({n: float(rng.normal()) for n in idx}, al)
        lam = 0.37
        mixed = SpectralCoeffs({n: c1.coeffs[n] + lam * c2.coeffs[n] for n in idx}, al)
        r_mixed = riesz_apply_spectral(mixed, 1).coeffs
        r1 = riesz_apply_spectral(c1, 1).coeffs
        r2 = riesz_apply_spectral(c2, 1).coeffs
        for n in r_mixed:
            assert r_mixed[n] == pytest.approx(r1.get(n, 0) + lam * r2.get(n, 0), rel=1e-13)

    def test_adjointness_exact(self):
        al = AlphaParams((0.7, 0.0))
        rng = np.random.default_rng(1)
        idx = multi_indices_upto(2, 8)
        c1 = SpectralCoeffs({n: float(rng.normal()) for n in idx}, al)
        c2 = SpectralCoeffs({n: float(rng.normal()) for n in idx}, al)
        for j in (0, 1):
            lhs = sum(v * c2.coeffs.get(n, 0.0)
                      for n, v in riesz_apply_spectral(c1, j).coeffs.items())
            rhs = sum(v * c1.coeffs.get(n, 0.0)
                      for n, v in riesz_adjoint_spectral(c2, j).coeffs.items())
            assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_adjoint_ground_state(self):
        al = AlphaParams((0.7,))
        c = SpectralCoeffs({(0,): 1.0}, al)
        out = riesz_adjoint_spectral(c, 0)
        ref = ladder_coeff(1, 0.7) / math.sqrt(2 * 0.7 + 2 + 2)
        assert out.coeffs[(1,)] == pytest.approx(ref, rel=1e-15)

    def test_composition_diagonal(self):
        # R^_j R_j maps n to n with coefficient multiplier(n)^2
        al = AlphaParams((0.0,))
        for n in (1, 2, 5):
            c = SpectralCoeffs({(n,): 1.0}, al)
            out = riesz_adjoint_spectral(riesz_apply_spectral(c, 0), 0)
            assert set(out.coeffs) == {(n,)}
            assert out.coeffs[(n,)] == pytest.approx(riesz_multiplier((n,), al, 0) ** 2)

    def test_operator_norm_is_max_multiplier(self):
        # diagonal-after-shift: the truncated operator norm equals the largest
        # multiplier; confirmed against power iteration on R^T R
        al = AlphaParams((0.3,))
        N = 12
        idx = multi_indices_upto(1, N)
        mults = np.array([riesz_multiplier(n, al, 0) if n[0] >= 1 else 0.0 for n in idx])
        exact = float(np.max(mults))
        v = np.ones(len(idx)) / math.sqrt(len(idx))
        for _ in range(400):
            w = mults * v          # R maps coeff at n to n - e_j with weight
            u = mults * w          # R^T back
            v = u / np.linalg.norm(u)
        est = math.sqrt(np.linalg.norm(mults * (mults * v)) / np.linalg.norm(v))
        assert est == pytest.approx(exact, abs=1e-12)


class TestSchlafli:
    def test_atomic_structure(self):
        m = SchlafliMeasure.from_nu(-0.5, 99)
        assert m.kind == "atomic"
        np.testing.assert_allclose(m.nodes, [-1.0, 1.0])
        np.testing.assert_allclose(m.weights, 1.0 / math.sqrt(2 * math.pi))

    def test_laplace_reproduces_bessel_ratio(self):
        for nu in (-0.5, 0.0, 0.7, 2.0):
            m = SchlafliMeasure.from_nu(nu, 32)
            for z in (0.1, 1.0, 10.0):
                assert m.laplace(z) == pytest.approx(bessel_ratio(nu, z), rel=1e-8)

    def test_atomic_cosh_form(self):
        m = SchlafliMeasure.from_nu(-0.5, 2)
        for z in (0.1, 1.0, 10.0):
            ref = math.sqrt(2 / math.pi) * math.cosh(z)
            assert m.laplace(z) == pytest.approx(ref, rel=1e-14)

    def test_total_mass(self):
        for nu in (-0.5, 0.0, 1.3):
            m = SchlafliMeasure.from_nu(nu, 24)
            assert m.total_mass == pytest.approx(1.0 / (2**nu * math.gamma(nu + 1)), rel=1e-12)


class TestBetaWeight:
    def test_positive(self):
        z = np.linspace(1e-4, 1 - 1e-4, 100)
        assert np.all(beta_weight(2, 1.7, z) > 0)

    def test_monotone_majorization(self):
        # beta_{d, lam + u e_j}(z) <= z^{-u} beta_{d, lam}(z)
        z = np.linspace(1e-4, 1 - 1e-4, 200)
        for d, lam, u in [(1, -0.5, 0.5), (2, 0.2, 1.0), (2, 1.7, 0.25)]:
            lhs = beta_weight(d, lam + u, z)
            rhs = z**-u * beta_weight(d, lam, z)
            assert np.all(lhs <= rhs * (1 + 1e-13))

    def test_blowup_slope(self):
        # log-log slope as zeta -> 0 is -(d + alpha_eff + 1/2)
        for d, lam in [(1, -0.5), (1, 0.0), (2, 2.0)]:
            z = np.geomspace(1e-8, 1e-6, 10)
            slope = np.polyfit(np.log(z), np.log(beta_weight(d, lam, z)), 1)[0]
            assert slope == pytest.approx(-(d + lam + 0.5), abs=1e-3)

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            beta_weight(1, 0.0, 0.0)
        with pytest.raises(ValueError):
            beta_weight(1, 0.0, 1.0)


def _restricted_fd(alpha, eps, j, zeta, x, y, s, h=1e-5):
    """Finite-difference version of the parity-restricted derivative the
    bracket formula implements: d/dx_j + x_j on even components (eps_j = 0),
    plus (2 a_j + 1)/x_j on odd components (eps_j = 1)."""
    xp = x.copy(); xp[j] += h
    xm = x.copy(); xm[j] -= h
    d = (psi_zeta(eps, zeta, xp, y, s) - psi_zeta(eps, zeta, xm, y, s)) / (2 * h)
    out = d + x[j] * psi_zeta(eps, zeta, x, y, s)
    if eps[j] == 1:
        out = out + (2 * alpha[j] + 1) / x[j] * psi_zeta(eps, zeta, x, y, s)
    return out


def _full_dunkl_fd_symmetrized(alpha, eps, j, zeta, x, y, s, h=1e-5):
    """The genuine Dunkl derivative delta_j (including the reflection
    difference) applied to the s_j-symmetrized integrand.  The reflection
    term only cancels against the s_j -> -s_j symmetry of the measure, so
    this is the right target for the full operator."""
    sflip = s.copy(); sflip[j] = -sflip[j]

    def sym(xx):
        return 0.5 * (psi_zeta(eps, zeta, xx, y, s) + psi_zeta(eps, zeta, xx, y, sflip))

    xp = x.copy(); xp[j] += h
    xm = x.copy(); xm[j] -= h
    xr = x.copy(); xr[j] = -xr[j]
    d = (sym(xp) - sym(xm)) / (2 * h)
    refl = (alpha[j] + 0.5) * (sym(x) - sym(xr)) / x[j]
    return d + refl + x[j] * sym(x)


class TestDeltaPsi:
    def test_matches_restricted_finite_differences(self):
        al = AlphaParams((0.7, 1.2))
        rng = np.random.default_rng(2)
        for _ in range(25):
            x = rng.uniform(0.3, 2.0, size=2)
            y = rng.uniform(0.3, 2.0, size=2)
            s = rng.uniform(-1, 1, size=2)
            zeta = float(rng.uniform(0.15, 0.85))
            for eps in [(0, 0), (1, 0), (1, 1)]:
                for j in (0, 1):
                    got = delta_psi(al, eps, j, zeta, x, y, s)
                    ref = _restricted_fd(al, eps, j, zeta, x, y, s)
                    assert got == pytest.approx(ref, rel=1e-6, abs=1e-12)

    def test_full_dunkl_after_symmetrization(self):
        # the bracket equals the full differential-difference operator once
        # the integrand is symmetrized in s_j (the measure is even in s_j)
        al = AlphaParams((0.7, 1.2))
        rng = np.random.default_rng(22)
        for _ in range(10):
            x = rng.uniform(0.3, 2.0, size=2)
            y = rng.uniform(0.3, 2.0, size=2)
            s = rng.uniform(-1, 1, size=2)
            sflip = s.copy()
            zeta = float(rng.uniform(0.15, 0.85))
            for eps in [(0, 0), (1, 1)]:
                for j in (0, 1):
                    sflip = s.copy(); sflip[j] = -sflip[j]
                    got = 0.5 * (delta_psi(al, eps, j, zeta, x, y, s)
                                 + delta_psi(al, eps, j, zeta, x, y, sflip))
                    ref = _full_dunkl_fd_symmetrized(al, eps, j, zeta, x, y, s)
                    assert got == pytest.approx(ref, rel=1e-6, abs=1e-12)

    def test_even_indicator_off(self):
        # eps_j = 0: only the first bracket term is present; at x_j = y_j = 0
        # the bracket reduces to 0 (every term carries x_j or y_j s_j)
        al = AlphaParams((0.7, 1.2))
        x = np.array([0.0, 1.0])
        y = np.array([0.0, 0.5])
        s = np.array([0.3, -0.2])
        assert delta_psi(al, (0, 0), 0, 0.5, x, y, s) == pytest.approx(0.0, abs=1e-15)

    def test_parity_in_xj(self):
        # flipping x_j flips delta_j psi^eps by (-1)^{1 - eps_j} (delta of an
        # even function is odd and vice versa) once y_j s_j flips too
        al = AlphaParams((0.7,))
        x = np.array([0.8]); y = np.array([0.6]); s = np.array([0.4])
        for eps in [(0,), (1,)]:
            a = delta_psi(al, eps, 0, 0.4, x, y, s)
            b = delta_psi(al, eps, 0, 0.4, -x, y, -s)
            sign = -1.0 if eps[0] == 0 else 1.0
            assert b == pytest.approx(sign * a, rel=1e-13)

    def test_zeta_domain(self):
        al = AlphaParams((0.7,))
        with pytest.raises(ValueError):
            delta_psi(al, (0,), 0, 0.0, np.ones(1), np.ones(1), np.zeros(1))


class TestKernelComponents:
    def test_atomic_case_two_point_sum(self):
        # alpha = -1/2, eps = 0: Pi is two atoms, so the s-"integral" is a
        # 2-term sum; the Gauss-Jacobi path must agree with an explicit sum
        al = AlphaParams((-0.5,))
        x = np.array([1.2]); y = np.array([0.4])
        got = riesz_kernel_component(al, (0,), 0, x, y, CFG)
        zeta, zw = zeta_grid(CFG)
        acc = 0.0
        for s_atom in (-1.0, 1.0):
            s = np.array([s_atom])
            vals = np.array([delta_psi(al, (0,), 0, float(z), x, y, s) for z in zeta])
            acc += float(np.sum(zw * beta_weight(1, -0.5, zeta) * vals)) / math.sqrt(2 * math.pi)
        assert got == pytest.approx(acc, rel=1e-12)

    def test_sign_symmetry(self):
        # |R_j^{alpha,eps}(eta x, xi y)| = |R_j^{alpha,eps}(x, y)|
        al = AlphaParams((0.0, 1.3))
        x = np.array([0.9, -0.6]); y = np.array([-0.3, 1.4])
        for eps in all_parities(2):
            base = abs(riesz_kernel_component(al, eps, 0, x, y, CFG_EXACT))
            for eta in [(1, 1), (-1, 1), (1, -1), (-1, -1)]:
                for xi in [(1, 1), (-1, -1)]:
                    v = riesz_kernel_component(al, eps, 0, np.array(eta) * x,
                                               np.array(xi) * y, CFG_EXACT)
                    assert abs(v) == pytest.approx(base, rel=1e-11)

    def test_component_sum_is_kernel(self):
        al = AlphaParams((0.0, 1.3))
        X = np.array([[0.9, -0.6], [1.5, 0.2]])
        Y = np.array([[-0.3, 1.4], [0.1, 1.0]])
        comps = riesz_kernel_components(al, 0, X, Y, CFG_EXACT)
        total = riesz_kernel(al, 0, X, Y, CFG_EXACT)
        np.testing.assert_allclose(sum(comps.values()), total, rtol=1e-14)

    def test_exact_and_jacobi_methods_agree(self):
        for alpha in [(0.0, 0.7), (0.0, -0.5, 1.3)]:
            al = AlphaParams(alpha)
            rng = np.random.default_rng(3)
            for _ in range(5):
                x = rng.uniform(0.3, 2.5, size=al.dim)
                y = rng.uniform(0.3, 2.5, size=al.dim)
                if np.linalg.norm(x - y) < 0.4:
                    continue
                a = riesz_kernel(al, 1, x, y, CFG)
                b = riesz_kernel(al, 1, x, y, CFG_EXACT)
                assert a == pytest.approx(b, rel=1e-8)

    @pytest.mark.parametrize("alpha", [(-0.5, 0.7), (0.0, -0.5, 1.3)])
    def test_gauss_jacobi_matches_tensor_sum(self, alpha):
        # reference for the Gauss-Jacobi route: delta_psi on the tensor grid
        # of the product Schlafli rule (with the alpha_i = -1/2 atoms) times
        # beta_weight, summed over the zeta rule, for every parity and j
        al = AlphaParams(alpha)
        cfg = KernelConfig(zeta_points=32, s_points_per_dim=10)
        zeta, zw = zeta_grid(cfg)
        rng = np.random.default_rng(29)
        xs, ys = [], []
        while len(xs) < 3:
            x = rng.uniform(-2.5, 2.5, size=al.dim)
            y = rng.uniform(-2.5, 2.5, size=al.dim)
            if 0.5 <= np.linalg.norm(x - y) and reflection_distance(x, y) >= 0.4:
                xs.append(x)
                ys.append(y)
        X, Y = np.array(xs), np.array(ys)
        for j in range(al.dim):
            comps = riesz_kernel_components(al, j, X, Y, cfg)
            envelope = sum(np.abs(v) for v in comps.values())
            total = 0.0
            for eps, got in comps.items():
                ms = [SchlafliMeasure.from_nu(al[i] + eps[i], 10) for i in range(al.dim)]
                s = np.array(list(itertools.product(*[m.nodes for m in ms])))
                sw = np.prod(list(itertools.product(*[m.weights for m in ms])), axis=1)
                zb = zw * beta_weight(al.dim, al.abs_sum + sum(eps), zeta)
                ref = np.array([sum(b * (sw @ delta_psi(al, eps, j, float(z), x, y, s))
                                    for z, b in zip(zeta, zb)) for x, y in zip(X, Y)])
                assert np.max(np.abs(got - ref) / envelope) <= 1e-13
                total = total + ref
            full = riesz_kernel(al, j, X, Y, cfg)
            assert np.max(np.abs(full - total) / envelope) <= 1e-13

    @pytest.mark.parametrize("alpha,cfg", [
        pytest.param((-0.5, 0.7), CFG_EXACT, id="alpha0"),
        pytest.param((0.0, -0.5, 1.3), CFG_EXACT, id="alpha1"),
        pytest.param((-0.5, 0.7), CFG, id="alpha0-gauss-jacobi"),
        pytest.param((0.0, -0.5, 1.3), CFG, id="alpha1-gauss-jacobi"),
    ])
    def test_product_kernel_matches_component_sum(self, alpha, cfg):
        # on either s-route the kernel is one product over coordinates; it
        # must equal the sum of the 2^d parity components, relative to
        # sum |R_eps| (the components cancel near the reflected diagonals)
        al = AlphaParams(alpha)
        rng = np.random.default_rng(17)
        xs, ys = [], []
        while len(xs) < 40:
            x = rng.uniform(-2.5, 2.5, size=al.dim)
            y = rng.uniform(-2.5, 2.5, size=al.dim)
            if 0.5 <= np.linalg.norm(x - y) <= 5.0 and reflection_distance(x, y) >= 0.4:
                xs.append(x)
                ys.append(y)
        X, Y = np.array(xs), np.array(ys)
        for j in range(al.dim):
            comps = riesz_kernel_components(al, j, X, Y, cfg)
            envelope = sum(np.abs(v) for v in comps.values())
            gap = np.abs(riesz_kernel(al, j, X, Y, cfg) - sum(comps.values())) / envelope
            assert np.max(gap) <= 1e-12

    @pytest.mark.parametrize("alpha,j,x,y", [
        ((-0.5, -0.5), 0, [2.5, 1.5], [-2.49, -1.52]),
        ((-0.5, -0.5), 1, [2.5, 1.5], [-2.49, -1.52]),
        ((-0.5, -0.5, -0.5), 2, [2.0, -1.5, 2.2], [-2.01, 1.52, 2.19]),
    ])
    def test_product_kernel_near_reflected_diagonal(self, alpha, j, x, y):
        # where the parity components cancel, the product is no farther
        # from the direct t-integral than their sum is
        al = AlphaParams(alpha)
        x, y = np.array(x), np.array(y)
        direct = riesz_kernel_direct(al, j, x, y)
        product = riesz_kernel(al, j, x, y, CFG_EXACT)
        total = sum(riesz_kernel_components(al, j, x, y, CFG_EXACT).values())
        assert abs(product - direct) <= abs(total - direct)

    def test_near_diagonal_refused(self):
        al = AlphaParams((0.0,))
        with pytest.raises(ValueError):
            riesz_kernel(al, 0, np.array([1.0]), np.array([1.0 + 1e-4]), CFG)
        with pytest.raises(ValueError):
            riesz_kernel_direct(al, 0, np.array([1.0]), np.array([1.0]))


def riesz_classical(x, y):
    """Independent oracle for alpha = -1/2: the Mehler kernel differentiated
    under the t-integral, all in elementary functions."""
    def integrand(t):
        s2 = math.sinh(2 * t)
        c2 = math.cosh(2 * t) / s2
        M = (2 * math.pi * s2) ** -0.5 * math.exp(-(x * x + y * y) * c2 / 2 + x * y / s2)
        return ((1 - c2) * x + y / s2) * M / math.sqrt(t)
    v1, _ = quad(integrand, 0, 1, epsrel=1e-12, epsabs=1e-300, limit=200)
    v2, _ = quad(integrand, 1, 30, epsrel=1e-12, epsabs=1e-300, limit=200)
    return (v1 + v2) / math.sqrt(math.pi)


class TestKernelRoutes:
    def test_classical_oracle(self):
        al = AlphaParams((-0.5,))
        for (x, y) in [(0.7, 1.5), (1.0, -0.4), (2.0, 0.3), (0.5, 3.2)]:
            ref = riesz_classical(x, y)
            direct = riesz_kernel_direct(al, 0, np.array([x]), np.array([y]))
            quadr = riesz_kernel(al, 0, np.array([x]), np.array([y]), CFG)
            assert direct == pytest.approx(ref, rel=1e-10)
            assert quadr == pytest.approx(ref, rel=1e-6)

    @pytest.mark.parametrize("alpha", [(0.0,), (1.3,), (-0.5, 0.7)])
    def test_route_agreement(self, alpha):
        al = AlphaParams(alpha)
        rng = np.random.default_rng(4)
        checked = 0
        while checked < 6:
            x = rng.uniform(-2.5, 2.5, size=al.dim)
            y = rng.uniform(-2.5, 2.5, size=al.dim)
            if not 0.5 <= np.linalg.norm(x - y) <= 5.0:
                continue
            if al.dim > 1 and reflection_distance(x, y) < 0.4:
                continue
            if al.dim == 1 and abs(abs(x[0]) - abs(y[0])) < 0.4:
                continue
            checked += 1
            j = int(rng.integers(al.dim))
            direct = riesz_kernel_direct(al, j, x, y)
            quadr = riesz_kernel(al, j, x, y, CFG)
            assert quadr == pytest.approx(direct, rel=1e-4, abs=1e-12)

    def test_exact_method_handles_near_diagonal(self):
        # the analytic-s path stays accurate where the fixed Gauss-Jacobi
        # grid cannot resolve the boundary layer
        al = AlphaParams((0.7,))
        for dist in (0.1, 0.02):
            x = np.array([1.3]); y = np.array([1.3 + dist])
            direct = riesz_kernel_direct(al, 0, x, y)
            got = riesz_kernel(al, 0, x, y, CFG_EXACT)
            assert got == pytest.approx(direct, rel=1e-5)

    def test_decay_along_ray(self):
        al = AlphaParams((0.7,))
        x = np.array([0.5])
        vals = [abs(riesz_kernel(al, 0, x, np.array([0.5 + d]), CFG_EXACT))
                for d in (0.5, 1.0, 2.0, 3.5, 5.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_direct_integrand_absolutely_integrable(self):
        # int |delta_j G_t| t^{-1/2} dt converges at sampled (x, y)
        from dunklosc.riesz import _delta_heat
        from dunklosc.heat import t_of_zeta
        al = AlphaParams((0.7,))
        x = np.array([0.9]); y = np.array([1.8])
        f = lambda z: abs(_delta_heat(al, 0, t_of_zeta(z), x, y)) / math.sqrt(t_of_zeta(z)) / (1 - z * z)
        v1, _ = quad(f, 0, zeta_of_t(1.0), limit=200)
        f2 = lambda t: abs(_delta_heat(al, 0, t, x, y)) / math.sqrt(t)
        v2, _ = quad(f2, 1.0, 30.0, limit=200)
        assert math.isfinite(v1 + v2) and v1 + v2 > 0


class TestMLemma:
    """Empirical versions of the four technical bounds used in the kernel
    estimates, with fitted constants."""

    @staticmethod
    def _samples(seed, n=10000, d=2):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 3.0, size=(n, d))
        y = rng.uniform(0.0, 3.0, size=(n, d))
        s = rng.uniform(-1, 1, size=(n, d))
        zeta = rng.uniform(1e-6, 1 - 1e-6, size=n)
        return x, y, s, zeta

    def test_item_a(self):
        x, y, s, zeta = self._samples(10)
        qp, _ = q_plus_minus(x, y, s)
        for b in (1.0, 2.0):
            lhs = (np.abs(x[:, 0] + y[:, 0] * s[:, 0])
                   + np.abs(y[:, 0] + x[:, 0] * s[:, 0])) ** b * np.exp(-qp / (4 * zeta))
            ratio = lhs / zeta ** (b / 2)
            assert np.all(np.isfinite(ratio))
            assert np.max(ratio) < 50.0 ** b

    def test_item_b(self):
        x, y, s, zeta = self._samples(11)
        _, qm = q_plus_minus(x, y, s)
        for b in (1.0, 2.0):
            lhs = (np.abs(x[:, 0] - y[:, 0] * s[:, 0])
                   + np.abs(y[:, 0] - x[:, 0] * s[:, 0])) ** b * np.exp(-zeta * qm / 4)
            ratio = lhs * zeta ** (b / 2)
            assert np.all(np.isfinite(ratio))
            assert np.max(ratio) < 50.0 ** b

    def test_item_c(self):
        x, y, s, zeta = self._samples(12)
        qp, qm = q_plus_minus(x, y, s)
        for b in (1.0, 2.0):
            lhs = x[:, 0] ** b * np.exp(-qp / (4 * zeta) - zeta * qm / 4)
            ratio = lhs * zeta ** (b / 2)
            assert np.all(np.isfinite(ratio))
            assert np.max(ratio) < 50.0 ** b

    def test_item_d_fitted_constant_stable(self):
        # zeta-integral against the q_+ power law: the fitted constant must
        # be stable across independent sample sets
        d, lam, b, c = 1, 0.7, 1.0, 0.25
        cfg = KernelConfig(zeta_points=256, zeta_grading=3.0, s_points_per_dim=8)
        zeta, zw = zeta_grid(cfg)
        bw = beta_weight(d, lam, zeta) * zeta ** (-b - 0.5) * zw

        def fitted_constant(seed):
            rng = np.random.default_rng(seed)
            n = 2000
            x = rng.uniform(0.05, 3.0, size=(n, d))
            y = rng.uniform(0.05, 3.0, size=(n, d))
            s = rng.uniform(-1, 1, size=(n, d))
            qp, _ = q_plus_minus(x, y, s)
            integral = np.exp(-c * qp[:, None] / zeta) @ bw
            return float(np.max(integral * qp ** (d + lam + b)))

        c1, c2 = fitted_constant(100), fitted_constant(200)
        assert math.isfinite(c1) and c1 > 0
        assert abs(c1 - c2) / c2 <= 0.10


class TestIdentities:
    def test_apriori_trivial_zero(self):
        assert apriori_identity_check((0, 3), 0, 0, AlphaParams((0.0, 0.7))) == 0.0

    def test_apriori_value_case(self):
        # d=1, i=j, n=2, alpha=0: both routes give m(2,0)^2 = 4
        assert apriori_identity_check((2,), 0, 0, AlphaParams((0.0,))) < 1e-12

    @pytest.mark.parametrize("alpha", [(0.0,), (1.3,), (-0.5, 0.7)])
    def test_apriori_fuzz(self, alpha):
        al = AlphaParams(alpha)
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = tuple(int(k) for k in rng.integers(0, 9, size=al.dim))
            i = int(rng.integers(al.dim))
            j = int(rng.integers(al.dim))
            assert apriori_identity_check(n, i, j, al) <= 1e-12

    def test_star_basis_and_orthogonal(self):
        al = AlphaParams((0.7,))
        f = SpectralCoeffs({(4,): 1.0}, al)
        assert star_identity_check(f, (4,), 0, al) == 0.0
        g = SpectralCoeffs({(2,): 1.0}, al)  # orthogonal to h_4
        assert star_identity_check(g, (4,), 0, al) == 0.0

    def test_star_fuzz(self):
        al = AlphaParams((-0.5, 0.7))
        rng = np.random.default_rng(7)
        idx = multi_indices_upto(2, 10)
        for _ in range(100):
            f = SpectralCoeffs({n: float(rng.normal()) for n in idx}, al)
            n = idx[rng.integers(len(idx))]
            for j in (0, 1):
                assert star_identity_check(f, n, j, al) <= 1e-9


class TestDualPairing:
    def test_overlap_rejected(self):
        al = AlphaParams((0.0,))
        rule = default_rule(al, 40)
        f = IntervalBump(0.3, 1.0)
        g = IntervalBump(0.8, 1.5)
        with pytest.raises(ValueError):
            dual_pairing_check(f, g, 0, al, rule, CFG)
        # mirrored intervals of invariant bumps count as support too
        fa = AnnularBump(0.3, 1.0)
        ga = AnnularBump(0.8, 1.5)
        with pytest.raises(ValueError):
            dual_pairing_check(fa, ga, 0, al, rule, CFG)

    def test_zero_function(self):
        al = AlphaParams((0.0,))
        rule = default_rule(al, 120)
        f = IntervalBump(0.3, 0.8)
        g = IntervalBump(1.8, 2.6, amplitude=0.0)
        resid, spectral, integral = dual_pairing_check(f, g, 0, al, rule, CFG,
                                                       max_degree=40, leg_points=24)
        assert spectral == pytest.approx(0.0, abs=1e-14)
        assert integral == pytest.approx(0.0, abs=1e-14)

    def test_two_routes_agree(self):
        from dunklosc.quadrature import gauss_rule_1d, tensor_rule
        al = AlphaParams((0.0,))
        rule = tensor_rule([gauss_rule_1d(0.0, 512)])
        f = IntervalBump(0.4, 2.0)
        g = IntervalBump(3.0, 5.0)
        assert f.separation(g) >= 1.0
        resid, spectral, integral = dual_pairing_check(f, g, 0, al, rule, CFG)
        assert abs(spectral) > 0
        assert resid / abs(spectral) <= 1e-3

    def test_invariant_bumps_pair_to_zero(self):
        # R_j maps sign-invariant functions to odd ones, so for two invariant
        # bumps both routes vanish identically (parity annihilation)
        al = AlphaParams((0.0,))
        rule = default_rule(al, 200)
        f = AnnularBump(0.3, 0.8)
        g = AnnularBump(1.8, 2.6)
        resid, spectral, integral = dual_pairing_check(f, g, 0, al, rule, CFG,
                                                       max_degree=150)
        assert abs(spectral) <= 1e-12
        assert abs(integral) <= 1e-12

    def test_bump_invariance(self):
        f = AnnularBump(0.5, 1.5)
        pts = np.array([[0.7], [-0.7], [1.2], [-1.2]])
        v = f(pts)
        assert v[0] == v[1] and v[2] == v[3]
        assert f(np.array([[0.4], [1.6]])).tolist() == [0.0, 0.0]
        one_sided = IntervalBump(0.5, 1.5)
        assert one_sided(np.array([[-0.7]]))[0] == 0.0
        assert one_sided(np.array([[0.7]]))[0] > 0.0
