import itertools
import json
import math
import pathlib

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import roots_jacobi

from dunklosc.estimates import pair_sample, reflection_distance
from dunklosc.heat import heat_kernel, q_plus_minus
from dunklosc.hermite import AlphaParams, delta_hermite, hermite_fn, ladder_coeff
from dunklosc.quadrature import SpectralCoeffs, default_rule, multi_indices_upto
from dunklosc.riesz import (KernelConfig, SchlafliMeasure, apriori_identity_check, beta_weight, delta_psi,
                            dual_pairing_check, psi_zeta, riesz_adjoint_spectral,
                            riesz_apply_spectral, riesz_kernel, riesz_kernel_components,
                            riesz_kernel_direct, riesz_kernel_with_gradient,
                            riesz_multiplier, star_identity_check, zeta_grid, _bumps,
                            _delta_heat, _orbit_gap)
from dunklosc.suite import RunConfig, _check_route_agreement
from dunklosc.special import bessel_ratio

from conftest import fd_gradient, richardson_gradient

MPMATH = json.loads(pathlib.Path(__file__).with_name("mpmath_references.json").read_text())
# delta_j G_t against its spectral series truncated at |n| <= 44, which
# leaves e^{-90 t} times a power of the degree: 2.2e-11 of the envelope at
# t = 0.3, rounding (7e-16) at t = 1 and 3
SERIES_TOL = {0.3: 1e-10, 1.0: 1e-12, 3.0: 1e-12}

CFG = KernelConfig(zeta_points=192, zeta_grading=3.0, s_points_per_dim=48,
                  s_method="gauss-jacobi")
CFG_EXACT = KernelConfig(zeta_points=256, zeta_grading=3.0, s_points_per_dim=48,
                         s_method="exact")


def random_coeffs(rng, idx, al) -> SpectralCoeffs:
    return SpectralCoeffs(np.array(idx), [float(rng.normal()) for n in idx], al)


class TestSpectral:
    def test_ground_state_annihilated(self):
        c = SpectralCoeffs([(0,)], [1.0], AlphaParams((0.7,)))
        out = riesz_apply_spectral(c, 0)
        assert out.n.shape == (0, 1) and out.values.shape == (0,)

    def test_multiplier_value(self):
        # n = 2 e_j, d = 1, alpha = 0: m(2,0)/sqrt(2*2 + 0 + 2) = 2/sqrt(6)
        c = SpectralCoeffs([(2,)], [1.0], AlphaParams((0.0,)))
        out = riesz_apply_spectral(c, 0)
        assert out.n.tolist() == [[1]]
        assert out[(1,)] == pytest.approx(2.0 / math.sqrt(6.0), rel=1e-15)

    def test_linearity(self):
        al = AlphaParams((0.0, 1.3))
        rng = np.random.default_rng(0)
        idx = multi_indices_upto(2, 6)
        c1 = random_coeffs(rng, idx, al)
        c2 = random_coeffs(rng, idx, al)
        lam = 0.37
        mixed = SpectralCoeffs(c1.n, c1.values + lam * c2.values, al)
        r_mixed = riesz_apply_spectral(mixed, 1)
        r1 = riesz_apply_spectral(c1, 1)
        r2 = riesz_apply_spectral(c2, 1)
        for n, v in zip(r_mixed.n, r_mixed.values):
            assert v == pytest.approx(r1[n] + lam * r2[n], rel=1e-13)

    def test_adjointness_exact(self):
        al = AlphaParams((0.7, 0.0))
        rng = np.random.default_rng(1)
        idx = multi_indices_upto(2, 8)
        c1 = random_coeffs(rng, idx, al)
        c2 = random_coeffs(rng, idx, al)
        for j in (0, 1):
            r1, r2 = riesz_apply_spectral(c1, j), riesz_adjoint_spectral(c2, j)
            lhs = sum(v * c2[n] for n, v in zip(r1.n, r1.values))
            rhs = sum(v * c1[n] for n, v in zip(r2.n, r2.values))
            assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_adjoint_ground_state(self):
        al = AlphaParams((0.7,))
        c = SpectralCoeffs([(0,)], [1.0], al)
        out = riesz_adjoint_spectral(c, 0)
        ref = ladder_coeff(1, 0.7) / math.sqrt(2 * 0.7 + 2 + 2)
        assert out.n.tolist() == [[1]]
        assert out[(1,)] == pytest.approx(ref, rel=1e-15)

    def test_composition_diagonal(self):
        # R^_j R_j maps n to n with coefficient multiplier(n)^2
        al = AlphaParams((0.0,))
        for n in (1, 2, 5):
            c = SpectralCoeffs([(n,)], [1.0], al)
            out = riesz_adjoint_spectral(riesz_apply_spectral(c, 0), 0)
            assert out.n.tolist() == [[n]]
            assert out[(n,)] == pytest.approx(riesz_multiplier((n,), al, 0) ** 2)

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
        m = SchlafliMeasure.from_nu(-0.5, 99)  # two atoms whatever the point count
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
            assert m.laplace(0.0) == pytest.approx(1.0 / (2**nu * math.gamma(nu + 1)), rel=1e-12)

    @pytest.mark.parametrize("nu", [0.0, 0.2, 0.7, 1.2, 3.0, 5.0])
    @pytest.mark.parametrize("n", [8, 48, 96, 256])
    def test_gegenbauer_rule_against_closed_forms(self, nu, n):
        # Every even moment the rule integrates exactly, against
        # B(k + 1/2, nu + 1/2) / (sqrt(pi) 2^nu Gamma(nu + 1/2)) at 30 digits.
        # The bound is about 2n ulps for the n-term sum plus 2k times the
        # node bound below, since a node error delta moves s^{2k} by up to
        # 2k delta relative.  Measured: at most 0.19 of it (nu = 5, n = 8;
        # 0.64 at nu = 0.2, n = 256 before the nodes' Newton step); scipy's
        # rule misses the same moments by up to 6e-11.
        m = SchlafliMeasure.from_nu(nu, n)
        assert m.nodes.size == n and np.all(np.abs(m.nodes) < 1) and np.all(m.weights > 0)
        ref_nodes, _ = roots_jacobi(n, nu - 0.5, nu - 0.5)
        assert np.max(np.abs(m.nodes - ref_nodes)) <= 2e-15
        with mp.workdps(30):
            scale = mp.sqrt(mp.pi) * mp.mpf(2) ** nu * mp.gamma(mp.mpf(nu) + 0.5)
            for k in range(n):
                exact = mp.beta(k + mp.mpf(0.5), mp.mpf(nu) + 0.5) / scale
                got = float(np.sum(m.weights * m.nodes ** (2 * k)))
                assert abs(got / exact - 1) <= n * 4e-16 + 2 * k * 2e-15, k


    @pytest.mark.parametrize("nu", [0.0, 0.2])
    def test_polished_nodes_match_mpmath(self, nu):
        # the 20 nodes nearest each of -1 and 1 and 8 central ones of the
        # 256-node rule against Newton's method on the Jacobi polynomial in
        # mpmath at 40 digits: the dense eigensolver alone was up to 7.8e-16
        # off near +-1, and its even moments up to 4.9e-13 (nu = 0.2)
        n = 256
        m = SchlafliMeasure.from_nu(nu, n)
        idx = [*range(20), *range(124, 132), *range(n - 20, n)]
        with mp.workdps(40):
            a = mp.mpf(nu) - 0.5
            ref = []
            for i in idx:
                s = mp.mpf(m.nodes[i])
                for _ in range(3):
                    s -= mp.jacobi(n, a, a, s) / ((n + 2 * a + 1) / 2 * mp.jacobi(n - 1, a + 1, a + 1, s))
                ref.append(float(s))
            scale = mp.sqrt(mp.pi) * mp.mpf(2) ** nu * mp.gamma(mp.mpf(nu) + 0.5)
            exact = [mp.beta(k + mp.mpf(0.5), mp.mpf(nu) + 0.5) / scale for k in range(n)]
        assert np.max(np.abs(m.nodes[idx] - np.array(ref))) <= 2.3e-16
        worst = max(abs(float(np.sum(m.weights * m.nodes ** (2 * k))) / e - 1)
                    for k, e in enumerate(exact))
        assert worst <= 5e-14


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


def test_zeta_points_limited_to_what_the_rule_builds():
    # an odd count is refused (one node would be lost), as is a grading so
    # steep that a node underflows to 0.  Past 1024 nodes, or at grading 4
    # and more, the node next to 1 rounds to 1.0; its complement, which
    # every factor vanishing at zeta = 1 is built from, stays positive, so
    # the kernel stays finite and agrees with the 1024-node rule.
    with pytest.raises(ValueError, match="zeta_points must be even, got 97"):
        KernelConfig(zeta_points=97)
    for n, g in [(256, 100.0), (4096, 60.0)]:
        with pytest.raises(ValueError, match=f"zeta_grading {g} is too steep for zeta_points "
                                             f"{n}: the node next to 0 underflows"):
            KernelConfig(zeta_points=n, zeta_grading=g)
    al = AlphaParams((-0.5, 0.7))
    X, Y = pair_sample(2, 200, 11)
    ref = riesz_kernel(al, 1, X, Y, KernelConfig(zeta_points=1024, s_method="exact"))
    for n, g in [(2048, 3.0), (4096, 3.0), (256, 4.0), (128, 5.0)]:
        cfg = KernelConfig(zeta_points=n, zeta_grading=g, s_method="exact")
        zeta, comp, _ = zeta_grid(cfg)
        assert zeta.size == comp.size == n
        assert 0.0 < zeta.min() and zeta.max() <= 1.0 and 0.0 < comp.min() and comp.max() <= 1.0
        assert np.all(np.abs(zeta + comp - 1.0) <= 1.2e-16)
        vals = riesz_kernel(al, 1, X, Y, cfg)
        assert np.all(np.isfinite(vals))
        if g == 3.0:
            assert np.max(np.abs(vals - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_zeta_rule_is_shared_and_read_only():
    # one rule per (zeta_points, zeta_grading), which no caller may change
    rule = zeta_grid(KernelConfig(zeta_points=128))
    again = zeta_grid(KernelConfig(zeta_points=128, s_method="exact"))
    assert all(a is b for a, b in zip(rule, again))
    for a in rule:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.5


class TestKernelComponents:
    def test_atomic_case_two_point_sum(self):
        # alpha = -1/2, eps = 0: Pi is two atoms, so the s-"integral" is a
        # 2-term sum; the Gauss-Jacobi path must agree with an explicit sum
        al = AlphaParams((-0.5,))
        x = np.array([1.2]); y = np.array([0.4])
        got = riesz_kernel_components(al, 0, x, y, CFG)[1][(0,)]
        zeta, _, zw = zeta_grid(CFG)
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
        _, base = riesz_kernel_components(al, 0, x, y, CFG_EXACT)
        for eta in [(1, 1), (-1, 1), (1, -1), (-1, -1)]:
            for xi in [(1, 1), (-1, -1)]:
                _, comps = riesz_kernel_components(al, 0, np.array(eta) * x, np.array(xi) * y,
                                                CFG_EXACT)
                for eps, v in comps.items():
                    assert abs(v) == pytest.approx(abs(base[eps]), rel=1e-11)

    def test_component_sum_is_kernel(self):
        al = AlphaParams((0.0, 1.3))
        X = np.array([[0.9, -0.6], [1.5, 0.2]])
        Y = np.array([[-0.3, 1.4], [0.1, 1.0]])
        kernel, comps = riesz_kernel_components(al, 0, X, Y, CFG_EXACT)
        total = riesz_kernel(al, 0, X, Y, CFG_EXACT)
        np.testing.assert_allclose(sum(comps.values()), total, rtol=1e-14)
        assert np.array_equal(kernel, total)  # the sigma = 1 pass, bit for bit

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
        # the paper's pointwise (zeta, s) integrand as the oracle for the
        # heat-kernel route: delta_psi on the tensor grid of the product
        # Schlafli rule Pi_{alpha+eps} (32 nodes, the alpha_i = -1/2 atoms
        # exact) times beta_weight, summed over the same zeta rule, for
        # every parity and j, against the Gauss-Jacobi components and full
        # kernel.  The gap is the tensor grid's own s-error, relative to
        # sum |R_eps|: 1.4e-15 at d = 2, 4.5e-10 at d = 3 (1.4e-12 at 40
        # nodes; at 10 nodes it is 3.6e-4 and 1.1e-2).
        al = AlphaParams(alpha)
        tol = 1e-13 if al.dim == 2 else 1e-9
        cfg = KernelConfig(zeta_points=32, s_method="gauss-jacobi")
        zeta, _, zw = zeta_grid(cfg)
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
            _, comps = riesz_kernel_components(al, j, X, Y, cfg)
            envelope = sum(np.abs(v) for v in comps.values())
            total = 0.0
            for eps, got in comps.items():
                ms = [SchlafliMeasure.from_nu(al[i] + eps[i], 32) for i in range(al.dim)]
                s = np.array(list(itertools.product(*[m.nodes for m in ms])))
                sw = np.prod(list(itertools.product(*[m.weights for m in ms])), axis=1)
                zb = zw * beta_weight(al.dim, al.abs_sum + sum(eps), zeta)
                ref = np.array([sum(b * (sw @ delta_psi(al, eps, j, float(z), x, y, s))
                                    for z, b in zip(zeta, zb)) for x, y in zip(X, Y)])
                assert np.max(np.abs(got - ref) / envelope) <= tol
                total = total + ref
            full = riesz_kernel(al, j, X, Y, cfg)
            assert np.max(np.abs(full - total) / envelope) <= tol

    @pytest.mark.parametrize("alpha", [(-0.5, 0.7), (0.0, -0.5, 1.3)])
    def test_components_are_the_transform_of_reflected_kernels(self, alpha):
        # R_j^eps(x, y) = 2^{-d} sum_sigma (prod_i sigma_i^{eps_i}) R_j(x, sigma y),
        # each R_j(x, sigma y) from its own riesz_kernel call
        al = AlphaParams(alpha)
        X, Y = pair_sample(al.dim, 12, seed=9)
        for j in range(al.dim):
            _, comps = riesz_kernel_components(al, j, X, Y, CFG)
            envelope = sum(np.abs(v) for v in comps.values())
            for eps, got in comps.items():
                ref = sum(math.prod(sg[i] ** eps[i] for i in range(al.dim))
                          * riesz_kernel(al, j, X, np.array(sg) * Y, CFG)
                          for sg in itertools.product((1, -1), repeat=al.dim)) / 2**al.dim
                assert np.max(np.abs(got - ref) / envelope) <= 1e-14

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
            _, comps = riesz_kernel_components(al, j, X, Y, cfg)
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
        total = sum(riesz_kernel_components(al, j, x, y, CFG_EXACT)[1].values())
        assert abs(product - direct) <= abs(total - direct)

    def test_near_diagonal_refused(self):
        al = AlphaParams((0.0,))
        with pytest.raises(ValueError):
            riesz_kernel(al, 0, np.array([1.0]), np.array([1.0 + 1e-4]), CFG)
        with pytest.raises(ValueError):
            riesz_kernel_direct(al, 0, np.array([1.0]), np.array([1.0]))

    @pytest.mark.parametrize("alpha,j,x,y", [((0.7,), 0, [1.0], [-1.0]),
                                             ((0.0, 0.7), 1, [1.0, 0.5], [1.0, -0.5])])
    def test_sigma_j_reflected_diagonal_refused(self, alpha, j, x, y):
        # R_j is infinite at y = sigma_j x (x_j negated) when a_j > -1/2: the
        # zeta rules read -4.917 (96 nodes) and -6.033 (256) at d = 1 and
        # -4.3e5 at d = 2, and the direct route did not converge.  Every
        # route refuses the pair and names it (pair 1 of the batch)
        al = AlphaParams(alpha)
        X = np.array([[2.0] * al.dim, x])
        Y = np.array([[-0.5] * al.dim, y])
        calls = [lambda: riesz_kernel(al, j, X, Y, CFG_EXACT),
                 lambda: riesz_kernel(al, j, X, Y, CFG),
                 lambda: riesz_kernel_with_gradient(al, j, X, Y, CFG_EXACT),
                 lambda: riesz_kernel_components(al, j, X, Y, CFG_EXACT),
                 lambda: riesz_kernel_components(al, j, X, Y, CFG),
                 lambda: riesz_kernel_direct(al, j, X, Y)]
        for call in calls:
            with pytest.raises(ValueError, match=f"refused at pair 1: .* coordinate {j + 1} "
                                                 f"negated"):
                call()

    @pytest.mark.parametrize("j", [-1, 2])
    def test_coordinate_out_of_range_refused(self, j):
        # j = -1 used to wrap round to R_2 (-0.1609 here), and j = d raised
        # IndexError; every kernel route and spectral operator names j
        al = AlphaParams((0.0, 0.7))
        x, y = np.array([1.0, 0.5]), np.array([0.2, 0.3])
        c = SpectralCoeffs([(1, 2)], [1.0], al)
        calls = [lambda: riesz_kernel(al, j, x, y, CFG_EXACT),
                 lambda: riesz_kernel(al, j, x, y, CFG),
                 lambda: riesz_kernel_with_gradient(al, j, x, y, CFG_EXACT),
                 lambda: riesz_kernel_with_gradient(al, j, x, y, CFG),
                 lambda: riesz_kernel_components(al, j, x, y, CFG_EXACT),
                 lambda: riesz_kernel_components(al, j, x, y, CFG),
                 lambda: riesz_kernel_direct(al, j, x, y),
                 lambda: riesz_multiplier((1, 2), al, j),
                 lambda: riesz_multiplier(np.array([[1, 2], [0, 1]]), al, j),
                 lambda: riesz_apply_spectral(c, j),
                 lambda: riesz_adjoint_spectral(c, j)]
        for call in calls:
            with pytest.raises(ValueError, match=rf"coordinate j must be in 0\.\.1, got {j}"):
                call()

    @pytest.mark.parametrize("cfg", [CFG_EXACT, CFG], ids=["exact", "gauss-jacobi"])
    @pytest.mark.parametrize("y,sigma,why", [
        ([1.0, -0.5], "1, -1", r"\|x-y\| < 0.001"),
        ([1.0 + 5e-4, -0.5], "1, -1", r"\|x-y\| < 0.001"),
        ([-1.0, -0.5], "1, -1", "coordinate 1 negated"),
    ], ids=["on-diagonal", "near-diagonal", "on-sigma-j"])
    def test_components_refuse_a_pass_on_a_singular_set(self, cfg, y, sigma, why):
        # x = (1, 0.5), y = (1, -0.5): the kernel is finite (0.69727), but the
        # pass sigma = (1, -1) puts (x, sigma y) on the diagonal, and the
        # (1, 0) component read 6.6e4, 1.2e6 and 7.8e7 at 96, 256 and 1024
        # zeta-nodes; at y = -x that pass lands on sigma_0 x
        al = AlphaParams((0.0, 0.7))
        X = np.array([[2.0, 2.0], [1.0, 0.5]])
        Y = np.array([[-0.5, -0.5], y])
        assert np.all(np.isfinite(riesz_kernel(al, 0, X, Y, cfg)))
        with pytest.raises(ValueError, match=rf"refused at pair 1 in the pass \(x, sigma y\), "
                                             rf"sigma = \[{sigma}\]: .*{why}"):
            riesz_kernel_components(al, 0, X, Y, cfg)

    @pytest.mark.parametrize("alpha,j,x,y", [((-0.5, 0.7), 0, [1.0, 0.5], [-1.0, 0.5]),
                                             ((0.0, 0.7), 0, [1.0, 0.5], [1.0, -0.5]),
                                             ((0.7, 0.7), 0, [1.0, 0.5], [-1.0, -0.5])])
    def test_other_reflections_are_evaluated(self, alpha, j, x, y):
        # sigma_j x with a_j = -1/2, and a flip that is not sigma_j alone: the
        # zeta rule converges there (96 and 1024 nodes agree within 4e-6)
        al = AlphaParams(alpha)
        x, y = np.array(x), np.array(y)
        vals = [riesz_kernel(al, j, x, y, KernelConfig(zeta_points=n)) for n in (96, 1024)]
        assert math.isfinite(vals[0]) and vals[0] == pytest.approx(vals[1], rel=1e-5)


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


class TestKernelGradient:
    @pytest.mark.parametrize("alpha", [(-0.5,), (0.0,), (1.3,), (-0.5, 0.7), (0.0, -0.5, 1.3)])
    def test_matches_richardson_fd(self, alpha):
        # every partial, relative to the gradient norm, against Richardson-
        # extrapolated central differences (steps 1e-3 and 5e-4 |x-y|) of
        # the same quadrature, on sampled pairs clear of the reflected diagonals
        al = AlphaParams(alpha)
        X, Y = pair_sample(al.dim, 40, seed=5)
        keep = reflection_distance(X, Y) >= 0.1
        X, Y = X[keep], Y[keep]
        for j in range(al.dim):
            got = riesz_kernel_with_gradient(al, j, X, Y, CFG_EXACT)[1]
            ref = richardson_gradient(al, j, X, Y, CFG_EXACT)
            gap = np.max(np.abs(got - ref), axis=1) / np.linalg.norm(ref, axis=1)
            assert np.max(gap) <= 1e-6

    @pytest.mark.parametrize("s_method", ["exact", "gauss-jacobi"])
    def test_matches_mpmath(self, s_method):
        # the pinned pair's 30-digit gradients (tests/make_mpmath_references.py),
        # every partial relative to the gradient norm, at the default 96/48 rule
        cfg = KernelConfig(s_method=s_method)
        for alpha, j, x, y, ref in MPMATH["riesz_gradient"]:
            ref = np.array([float(v) for v in ref])
            got = riesz_kernel_with_gradient(AlphaParams(tuple(alpha)), j, x, y, cfg)[1]
            assert np.max(np.abs(got - ref)) <= 1e-10 * np.linalg.norm(ref)

    def test_pinned_pair_where_coarse_fd_is_off(self):
        # pair_sample(1, 1000, seed=111)[297], 0.012 from the reflected
        # diagonal: the argmax of acceptance 11 at alpha = 0.  Central
        # differences converge to the analytic gradient at step 1e-6 |x-y|;
        # at 1e-4 |x-y| they are 1e-4 off.
        al = AlphaParams((0.0,))
        X, Y = pair_sample(1, 1000, seed=111)
        X, Y = X[297:298], Y[297:298]
        np.testing.assert_allclose([X[0, 0], Y[0, 0]], [1.33649855, -1.34842482], atol=5e-9)
        got = riesz_kernel_with_gradient(al, 0, X, Y, CFG_EXACT)[1]
        np.testing.assert_allclose(got[0], [-7.0893061, -7.6920708], atol=1e-7)
        norm = np.linalg.norm(got)
        fine = fd_gradient(al, 0, X, Y, CFG_EXACT, 1e-6)
        coarse = fd_gradient(al, 0, X, Y, CFG_EXACT, 1e-4)
        assert np.max(np.abs(fine - got)) / norm <= 1e-7
        assert np.max(np.abs(coarse - got)) / norm >= 1e-5

    @pytest.mark.parametrize("alpha", [(-0.5,), (1.3,), (-0.5, 0.7), (0.0, -0.5, 1.3)])
    def test_gauss_jacobi_matches_exact(self, alpha):
        # the two s-routes on pairs clear of the diagonal and the reflected
        # diagonals (as in the kernel-table rules), 96 Gauss-Jacobi nodes
        al = AlphaParams(alpha)
        rng = np.random.default_rng(17)
        xs, ys = [], []
        while len(xs) < 20:
            x = rng.uniform(-2.5, 2.5, size=al.dim)
            y = rng.uniform(-2.5, 2.5, size=al.dim)
            if 0.5 <= np.linalg.norm(x - y) <= 5.0 and reflection_distance(x, y) >= 0.4:
                xs.append(x)
                ys.append(y)
        X, Y = np.array(xs), np.array(ys)
        for j in range(al.dim):
            exact = riesz_kernel_with_gradient(al, j, X, Y,
                                               KernelConfig(zeta_points=128, s_method="exact"))[1]
            jacobi = riesz_kernel_with_gradient(al, j, X, Y,
                                                KernelConfig(zeta_points=128, s_points_per_dim=96,
                                                             s_method="gauss-jacobi"))[1]
            gap = np.max(np.abs(jacobi - exact), axis=1) / np.linalg.norm(exact, axis=1)
            assert np.max(gap) <= 1e-6

    @pytest.mark.parametrize("alpha", [(0.7,), (-0.5, 0.7), (0.0, -0.5, 1.3)])
    def test_with_gradient_equals_the_two_calls(self, monkeypatch, alpha):
        # one pass forms R from the gradient's parity factors in the order of
        # _delta_heat: bit for bit riesz_kernel on the exact route, here over
        # three chunks
        monkeypatch.setattr("dunklosc.riesz.ZETA_BATCH_ELEMENTS", 7 * CFG_EXACT.zeta_points)
        al = AlphaParams(alpha)
        X, Y = pair_sample(al.dim, 20, 3)
        for j in range(al.dim):
            vals, grads = riesz_kernel_with_gradient(al, j, X, Y, CFG_EXACT)
            assert np.array_equal(vals, riesz_kernel(al, j, X, Y, CFG_EXACT))
            assert grads.shape == (20, 2 * al.dim)
            v, g = riesz_kernel_with_gradient(al, j, X[4], Y[4], CFG_EXACT)
            assert type(v) is float and v == riesz_kernel(al, j, X[4], Y[4], CFG_EXACT)
            assert g.shape == (2 * al.dim,)
            # a Gauss-Jacobi factor is summed with its slope, so only close there
            vals, _ = riesz_kernel_with_gradient(al, j, X, Y, CFG)
            np.testing.assert_allclose(vals, riesz_kernel(al, j, X, Y, CFG), rtol=1e-13)

    def test_shapes_and_refusal(self):
        al = AlphaParams((0.0, 1.3))
        g = riesz_kernel_with_gradient(al, 1, [1.0, 0.5], [-0.3, 1.2], CFG_EXACT)[1]
        assert g.shape == (4,)
        X = np.array([[1.0, 0.5], [0.2, -1.0]])
        Y = np.array([[-0.3, 1.2], [1.1, 0.4]])
        G = riesz_kernel_with_gradient(al, 1, X, Y, CFG_EXACT)[1]
        assert G.shape == (2, 4)
        np.testing.assert_allclose(G[0], g, rtol=1e-12)
        with pytest.raises(ValueError):
            riesz_kernel_with_gradient(al, 0, [1.0, 0.5], [1.0, 0.5 + 1e-4], CFG_EXACT)


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

    @pytest.mark.parametrize("s_method", ["gauss-jacobi", "exact"])
    def test_pinned_pair_matches_mpmath_at_the_default_rule(self, s_method):
        # the pair 0.024 from a reflected diagonal at the documented 96/48
        # rule, every j: the per-parity Schlafli moments of the old
        # Gauss-Jacobi route cancelled to a relative error of 1e12 here,
        # and exact s was 2.5e-2 off at 96 zeta nodes
        cfg = KernelConfig(s_method=s_method)
        rows = [r for r in MPMATH["riesz"] if r[2] == [1.0, 2.5, 0.5]]
        assert len(rows) == 3
        for alpha, j, x, y, ref in rows:
            got = riesz_kernel(AlphaParams(tuple(alpha)), j, np.array(x), np.array(y), cfg)
            assert abs(got - float(ref)) <= 1e-10 * abs(float(ref))

    def test_route_agreement_at_the_gauss_jacobi_fault(self):
        # the d = 2 config whose pair x = (-2.226, -1.437), y = (1.969, -1.117),
        # j = 0, 0.41 from a reflected diagonal, was 2.1e-4 off the direct
        # route on 64 Gauss-Jacobi s-nodes
        rec = _check_route_agreement(RunConfig((-0.5, 0.7), seed=406068863,
                                               kernel=KernelConfig(s_method="gauss-jacobi")))
        assert rec["passed"] and rec["residual"] <= 1e-10

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
        al = AlphaParams((0.7,))
        x = np.array([[0.9]]); y = np.array([[1.8]])
        f = lambda t: abs(_delta_heat(al, 0, np.array([t]), x, y)[0, 0]) / math.sqrt(t)
        v1, _ = quad(f, 0.0, 1.0, limit=200)
        v2, _ = quad(f, 1.0, 30.0, limit=200)
        assert math.isfinite(v1 + v2) and v1 + v2 > 0


def _mixed_magnitude_batch(al: AlphaParams, seed: int = 5):
    """Six pairs at |x - y| from 0.7 to 7.5, clear of the reflected
    diagonals: kernel values from about 1 down to 1e-14 .. 1e-20."""
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for dist in (0.7, 1.5, 3.0, 4.5, 6.0, 7.5):
        while True:
            x = rng.uniform(-1.5, 1.5, size=al.dim)
            u = rng.normal(size=al.dim)
            y = x + dist * u / np.linalg.norm(u)
            if al.dim > 1 and reflection_distance(x, y) >= 0.4:
                break
            if al.dim == 1 and abs(abs(x[0]) - abs(y[0])) >= 0.4:
                break
        xs.append(x)
        ys.append(y)
    return np.array(xs), np.array(ys)


class TestDirectOracle:
    @pytest.mark.parametrize("alpha", [(1.3,), (-0.5, 0.7), (0.0, -0.5, 1.3)])
    def test_batch_matches_batches_of_one(self, alpha):
        # the per-pair convergence test keeps every pair of a mixed batch at
        # its own relative accuracy
        al = AlphaParams(alpha)
        X, Y = _mixed_magnitude_batch(al)
        for j in range(al.dim):
            batch = riesz_kernel_direct(al, j, X, Y)
            single = np.array([riesz_kernel_direct(al, j, X[p], Y[p]) for p in range(len(X))])
            assert np.max(np.abs(single)) >= 1e12 * np.min(np.abs(single))
            assert np.all(np.abs(batch - single) <= 1e-10 * np.abs(single))

    def test_point_gives_float_stack_gives_array(self):
        al = AlphaParams((-0.5, 0.7))
        X, Y = _mixed_magnitude_batch(al)
        point = riesz_kernel_direct(al, 1, X[0], Y[0])
        assert type(point) is float
        stack = riesz_kernel_direct(al, 1, X[:3], Y[:3])
        assert isinstance(stack, np.ndarray) and stack.shape == (3,)

    def test_bad_batches_rejected(self):
        al = AlphaParams((-0.5, 0.7))
        X, Y = _mixed_magnitude_batch(al)
        with pytest.raises(ValueError):
            riesz_kernel_direct(al, 0, X[:3], Y[:2])
        with pytest.raises(ValueError):
            riesz_kernel_direct(al, 0, X[:, :1], Y[:, :1])
        Y[2] = X[2] + 1e-4
        with pytest.raises(ValueError):
            riesz_kernel_direct(al, 0, X, Y)

    @pytest.mark.parametrize("case", range(len(MPMATH["riesz"])))
    def test_matches_mpmath(self, case):
        # the pair 0.024 from a reflected diagonal, where the parity factors
        # used to cancel and this route refused, and pairs at |x - y| = 1e-3
        alpha, j, x, y, ref = MPMATH["riesz"][case]
        got = riesz_kernel_direct(AlphaParams(tuple(alpha)), j, np.array(x), np.array(y))
        assert abs(got - float(ref)) <= 1e-10 * abs(float(ref))

    def test_noise_integrand_raises(self, monkeypatch):
        # noise that vanishes at the ends of the range, which no step size
        # settles, is refused after the last halving, naming the batch
        rng = np.random.default_rng(0)
        noise = lambda alpha, j, t, X, Y: (rng.normal(size=(t.size, X.shape[0]))
                                           * np.exp(-np.log(t) ** 4)[:, None])
        monkeypatch.setattr("dunklosc.riesz._delta_heat", noise)
        al = AlphaParams((-0.5, 0.7))
        X, Y = _mixed_magnitude_batch(al)
        with pytest.raises(RuntimeError, match=r"did not converge .*\(10 halvings of the step\) "
                                               r"for alpha = \(-0\.5, 0\.7\), j = 1 and the 6 "
                                               r"pairs x = \[\["):
            riesz_kernel_direct(al, 1, X, Y)

    @pytest.mark.parametrize("alpha,x,y", [((0.7,), [1.0], [-1.0 + 1e-12]),
                                           ((0.0, 0.7), [1.0, 0.5], [1.0, -0.5])])
    def test_reflected_diagonal_refused(self, alpha, x, y):
        # on (d = 1: 1e-12 from) a reflected diagonal of a coordinate with
        # a_i > -1/2 the integrand does not decay as t -> 0: refused, not
        # truncated.  y = sigma_j x itself is refused before any work (see
        # test_sigma_j_reflected_diagonal_refused)
        with pytest.raises(RuntimeError, match="integrand does not vanish at the ends"):
            riesz_kernel_direct(AlphaParams(alpha), 0, np.array(x), np.array(y))

    @pytest.mark.parametrize("a,x", [(0.0, 2.25), (0.7, 1.0), (1.3, 2.25)])
    def test_log_singularity_at_the_reflected_diagonal(self, a, x):
        # d = 1, y = -x + delta: R ~ -(2/sqrt(pi)) C ln(1/delta) + O(1), with
        # -C = -Gamma(2a+2)/(Gamma(a+1/2) Gamma(a+1) 2^a) 2^{-(a+2)} x^{-(2a+2)}
        # the limit of t^{1/2} delta G_t(x, -x) as t -> 0.  The change per
        # decade of delta, 1e-3 to 1e-4, is within 1.1e-3, 4.1e-3 and 2.4e-3
        # of it; with 2^{-(a+1)} in C it would be 100 % off.
        c = (math.gamma(2 * a + 2) / (math.gamma(a + 0.5) * math.gamma(a + 1) * 2**a)
             * 2 ** -(a + 2) * x ** -(2 * a + 2))
        r = riesz_kernel_direct(AlphaParams((a,)), 0, np.array([[x], [x]]),
                                np.array([[1e-3 - x], [1e-4 - x]]))
        want = 2 / math.sqrt(math.pi) * c * math.log(10)
        assert abs((r[0] - r[1]) - want) <= 1e-2 * want

    @pytest.mark.parametrize("seed", [1359186057, 1906206968])
    def test_route_agreement_where_the_oracle_refused(self, seed):
        # the two configs at alpha = (-1/2, 0.7), on the Gauss-Jacobi route,
        # whose direct batch at j = 0 (pairs with x_1 y_1 < 0) did not converge
        rec = _check_route_agreement(RunConfig((-0.5, 0.7), seed=seed,
                                               kernel=KernelConfig(s_method="gauss-jacobi")))
        assert rec["passed"] and "refused_j" not in rec
        assert rec["residual"] <= 1e-4

    @pytest.mark.parametrize("alpha,x,u", [
        ((0.0,), [1.1], [1.0]),
        ((-0.5, 0.7), [0.9, -1.3], [0.6, 0.8]),
        ((0.0, -0.5, 1.3), [1.2, -0.7, 0.9], [2 / 3, -1 / 3, 2 / 3]),
    ])
    def test_near_diagonal_matches_exact_s(self, alpha, x, u):
        # |x - y| = 1e-3, 2e-3, 1e-2 (the first just above NEAR_DIAGONAL):
        # the direct route converges and agrees with exact-s on 4096 zeta
        # nodes; at 1e-3 most of the gap is the zeta-rule's (the direct
        # route matches mpmath there, test_matches_mpmath)
        al = AlphaParams(alpha)
        r = np.array([1e-3 * (1 + 1e-9), 2e-3, 1e-2])
        X = np.tile(x, (3, 1))
        Y = X + r[:, None] * np.array(u)
        ref = KernelConfig(zeta_points=4096, s_method="exact")
        for j in range(al.dim):
            direct = riesz_kernel_direct(al, j, X, Y)
            exact = riesz_kernel(al, j, X, Y, ref)
            assert np.all(np.abs(direct - exact) <= 2e-9 * np.abs(exact))


class TestDeltaHeat:
    @pytest.mark.parametrize("case", range(len(MPMATH["delta_heat"])))
    def test_matches_mpmath(self, case):
        # (T_j + x_j) G_t from the definition at 50 digits, t = 0.01, 0.3, 12:
        # pairs with x_i y_i < 0 on an alpha_i = -1/2 coordinate (where the
        # old parity factor was clamped rounding noise at t = 0.01), and
        # t = 12, where the old 1 - coth 2t rounded to 0
        alpha, j, t, x, y, ref = MPMATH["delta_heat"][case]
        got = _delta_heat(AlphaParams(tuple(alpha)), j, np.array([t]), np.array([x]),
                          np.array([y]))[0, 0]
        ref = float(ref)
        assert abs(ref) >= np.finfo(float).tiny
        assert abs(got - ref) <= 1e-11 * abs(ref)

    @pytest.mark.parametrize("alpha", [(0.0,), (1.3,), (-0.5, 0.7)])
    def test_matches_spectral_series(self, alpha):
        # sum_{|n| <= 44} e^{-t lambda_n} (delta_j h_n)(x) h_n(y), with
        # delta_j h_n from the Laguerre derivative (not the ladder relation),
        # relative to the envelope ((coth 2t - 1)|x_j| + |y_j|/sinh 2t) G_t(|x|, |y|)
        al = AlphaParams(alpha)
        rng = np.random.default_rng(21)
        X = rng.uniform(-2.0, 2.0, size=(8, al.dim))
        Y = rng.uniform(-2.0, 2.0, size=(8, al.dim))
        idx = multi_indices_upto(al.dim, 44)
        hy = np.array([hermite_fn(n, al, Y) for n in idx])
        lam = np.array([2.0 * sum(n) + 2.0 * al.abs_sum + 2.0 * al.dim for n in idx])
        for j in range(al.dim):
            dhx = np.array([delta_hermite(n, al, j, X) for n in idx])
            for t in (0.3, 1.0, 3.0):
                series = np.exp(-t * lam) @ (dhx * hy)
                closed = _delta_heat(al, j, np.array([t]), X, Y)[0]
                scal = 2 * np.abs(X[:, j]) / math.expm1(4 * t) + np.abs(Y[:, j]) / math.sinh(2 * t)
                env = scal * heat_kernel(al, t, np.abs(X), np.abs(Y))
                assert np.max(np.abs(series - closed) / env) <= SERIES_TOL[t]


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
        zeta, _, zw = zeta_grid(cfg)
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

    @pytest.mark.parametrize("alpha", [(0.0,), (-0.5, 0.7), (0.0, -0.5, 1.3)])
    def test_apriori_stack_equals_single_calls(self, alpha):
        # repeated rows, rows with n_j = 0 and every (i, j), i = j included:
        # each row's residual is the single-index call's, bit for bit
        al = AlphaParams(alpha)
        draws = np.random.default_rng(8).integers(0, 9, size=(30, al.dim))
        stack = np.vstack([draws, draws[:6], np.zeros((2, al.dim), dtype=int), draws[:3]])
        for i, j in itertools.product(range(al.dim), repeat=2):
            assert (stack[:, j] == 0).any()
            got = apriori_identity_check(stack, i, j, al)
            assert got.shape == (len(stack),)
            assert np.array_equal(got, [apriori_identity_check(n, i, j, al) for n in stack])
            assert np.all(got <= 1e-12)

    @pytest.mark.parametrize("fault", ["wrong-coordinate", "right-values-wrong-index"])
    def test_apriori_sees_a_coefficient_at_the_wrong_index(self, monkeypatch, fault):
        # an adjoint that shifts the wrong coordinate puts R^_i R_j L h_n at
        # n - e_j + e_k, k != i, and one that moves the right values by e_1
        # + e_2 misplaces them: either way the residual is the full coefficient
        import dunklosc.riesz as riesz
        al = AlphaParams((0.0, 0.7))
        stack = np.array([[2, 3], [1, 1], [4, 2], [3, 0]])
        adjoint = riesz.riesz_adjoint_spectral
        if fault == "wrong-coordinate":
            mutant = lambda c, i: adjoint(c, 1 - i)
        else:
            mutant = lambda c, i: SpectralCoeffs(adjoint(c, i).n + 1, adjoint(c, i).values, al)
        monkeypatch.setattr(riesz, "riesz_adjoint_spectral", mutant)
        for i, j in itertools.product(range(2), repeat=2):
            moved = stack[:, j] >= 1
            got = apriori_identity_check(stack, i, j, al)
            assert np.all(got[moved] > 1e-12) and np.all(got[~moved] == 0.0)
            assert apriori_identity_check(stack[0], i, j, al) > 1e-12

    @pytest.mark.parametrize("seed", [1234, 1, 90])
    def test_apriori_check_sees_one_faulty_index(self, monkeypatch, seed):
        # R^_i scaled by 1 + 1e-6 where it puts a coefficient at n = (7, 6)
        # only: the check covers the whole box [0, 8]^2, so it fails whatever
        # the config seed (measured: 1.6e-5)
        import dunklosc.riesz as riesz
        from dunklosc.suite import _check_apriori
        adjoint = riesz.riesz_adjoint_spectral

        def scaled(c, i):
            adj = adjoint(c, i)
            at = np.all(adj.n == (7, 6), axis=1)
            return SpectralCoeffs(adj.n, np.where(at, 1 + 1e-6, 1.0) * adj.values, c.alpha)

        cfg = RunConfig((-0.5, 0.7), seed=seed)
        assert _check_apriori(cfg)["passed"]
        monkeypatch.setattr(riesz, "riesz_adjoint_spectral", scaled)
        rec = _check_apriori(cfg)
        assert not rec["passed"] and rec["residual"] > 1e-6

    def test_star_basis_and_orthogonal(self):
        al = AlphaParams((0.7,))
        f = SpectralCoeffs([(4,)], [1.0], al)
        assert star_identity_check(f, (4,), 0, al) == 0.0
        g = SpectralCoeffs([(2,)], [1.0], al)  # orthogonal to h_4
        assert star_identity_check(g, (4,), 0, al) == 0.0

    def test_star_fuzz(self):
        al = AlphaParams((-0.5, 0.7))
        rng = np.random.default_rng(7)
        idx = multi_indices_upto(2, 10)
        for _ in range(100):
            f = random_coeffs(rng, idx, al)
            n = idx[rng.integers(len(idx))]
            for j in (0, 1):
                assert star_identity_check(f, n, j, al) <= 1e-9

    @pytest.mark.parametrize("alpha", [(0.7,), (-0.5, 0.7), (0.0, -0.5, 1.3)])
    def test_star_stack_equals_single_calls_bitwise(self, alpha):
        # one f against a stack of n, repeated n and n_j = 0 among them, in
        # one call per j: each row is the single call's, and the reference is
        # the identity in its multiplier form read through c[n], 0.0 where n_j = 0
        al = AlphaParams(alpha)
        rng = np.random.default_rng(11)
        idx = np.array(multi_indices_upto(al.dim, 6))
        f = SpectralCoeffs(idx, rng.normal(size=len(idx)), al)
        n = np.concatenate([idx[[0, 0, 1]], idx[rng.integers(len(idx), size=17)], idx, idx[[-1, -1]]])
        for j, e_j in enumerate(np.eye(al.dim, dtype=int)):
            assert (n[:, j] == 0).any() and (n[:, j] > 0).any()
            got, rf = star_identity_check(f, n, j, al), riesz_apply_spectral(f, j)
            oracle = [0.0 if nb[j] == 0 else abs(rf[nb - e_j] - riesz_multiplier(nb, al, j) * f[nb])
                      for nb in n]
            assert got.shape == (len(n),)
            assert got.tolist() == [star_identity_check(f, nb, j, al) for nb in n] == oracle

    @pytest.mark.parametrize("alpha", [(0.0,), (-0.5, 0.7)])
    def test_star_and_norm_see_a_scaled_multiplier(self, monkeypatch, alpha):
        # R_j's multiplier m(n_j, a_j)/sqrt(lambda_n) against R^_j's independent
        # formula: scaled by 1 + 1e-6, both checks fail (measured: 1.0e-5 and
        # 1.0e-6 at (0), 6.0e-5 and 1.1e-6 at (-1/2, 0.7))
        import dunklosc.riesz as riesz
        from dunklosc.suite import _check_multiplier_norm, _check_star
        checks, multiplier = (_check_star, _check_multiplier_norm), riesz.riesz_multiplier
        assert all(check(RunConfig(alpha))["passed"] for check in checks)
        monkeypatch.setattr(riesz, "riesz_multiplier",
                            lambda n, al, j: multiplier(n, al, j) * (1 + 1e-6))
        for check in checks:
            rec = check(RunConfig(alpha))
            assert not rec["passed"] and rec["residual"] > 1e-7

    @pytest.mark.parametrize("fault, alpha", [("next-coordinate", (-0.5, 0.7)),
                                              ("next-coordinate", (0.0, -0.5, 1.3)),
                                              ("rolled-rows", (0.0,)),
                                              ("rolled-rows", (-0.5, 0.7)),
                                              ("scaled", (0.0,)),
                                              ("scaled", (-0.5, 0.7))])
    def test_star_check_fails_a_mutated_operator(self, monkeypatch, fault, alpha):
        # measured with f = 1, ..., K: 34.3 and 167, 8.49 and 53.0, 1.1e-5 and 6.0e-5
        import dunklosc.riesz as riesz
        from dunklosc.suite import _check_star
        apply = riesz.riesz_apply_spectral
        mutants = {
            "next-coordinate": lambda c, j: riesz._shifted(
                c, (j + 1) % c.dim, -1, lambda n: riesz_multiplier(n, c.alpha, j)),
            "rolled-rows": lambda c, j: SpectralCoeffs(apply(c, j).n,
                                                       np.roll(apply(c, j).values, 1), c.alpha),
            "scaled": lambda c, j: SpectralCoeffs(apply(c, j).n, apply(c, j).values * (1 + 1e-6),
                                                  c.alpha)}
        assert _check_star(RunConfig(alpha))["passed"]
        monkeypatch.setattr(riesz, "riesz_apply_spectral", mutants[fault])
        rec = _check_star(RunConfig(alpha))
        assert not rec["passed"] and rec["residual"] > 1e-9


class TestDualPairing:
    def test_overlap_rejected(self):
        al = AlphaParams((0.0,))
        rule = default_rule(al, 40)
        with pytest.raises(ValueError):
            dual_pairing_check(((0.3, 1.0),), ((0.8, 1.5),), 0, al, rule, CFG)
        # mirrored intervals of invariant bumps count as support too
        with pytest.raises(ValueError):
            dual_pairing_check(((-1.0, -0.3), (0.3, 1.0)), ((-1.5, -0.8), (0.8, 1.5)), 0, al,
                               rule, CFG)
        # and so does the reflection -g of a one-sided g: -g = (1, 2.5) meets f
        assert _orbit_gap(((0.4, 2.0),), ((-2.5, -1.0),)) == -1.0
        with pytest.raises(ValueError, match="not overlap, also after reflecting g"):
            dual_pairing_check(((0.4, 2.0),), ((-2.5, -1.0),), 0, al, rule, CFG)

    @pytest.mark.parametrize("alpha,f,g,named", [
        ((0.0, 0.0), ((0.4, 2.0),), ((3.0, 5.0),), "one-dimensional"),
        ((0.0,), ((2.0, 0.4),), ((3.0, 5.0),), "lo < hi"),
        ((0.0,), ((0.4, 2.0),), ((3.0, math.nan),), "lo < hi"),
    ])
    def test_bad_input_refused(self, alpha, f, g, named):
        # a d = 2 alpha raised NotImplementedError; a reversed interval had no class
        rule = default_rule(AlphaParams((0.0,)), 40)
        with pytest.raises(ValueError, match=named):
            dual_pairing_check(f, g, 0, AlphaParams(alpha), rule, CFG)

    def test_zero_function(self):
        al = AlphaParams((0.0,))
        rule = default_rule(al, 120)
        resid, spectral, integral = dual_pairing_check(((0.3, 0.8),), (), 0, al, rule, CFG,
                                                       max_degree=40, leg_points=24)
        assert spectral == pytest.approx(0.0, abs=1e-14)
        assert integral == pytest.approx(0.0, abs=1e-14)

    def test_two_routes_agree(self):
        from dunklosc.quadrature import gauss_rule_1d, tensor_rule
        al = AlphaParams((0.0,))
        rule = tensor_rule([gauss_rule_1d(0.0, 512)])
        f, g = ((0.4, 2.0),), ((3.0, 5.0),)
        assert _orbit_gap(f, g) >= 1.0
        resid, spectral, integral = dual_pairing_check(f, g, 0, al, rule, CFG)
        assert abs(spectral) > 0
        assert resid / abs(spectral) <= 1e-3

    @pytest.mark.parametrize("alpha,pinned", [
        (0.0, (1.4202729865081022e-05, -0.00025526517460576595, -0.000269467904470847)),
        (1.3, (0.0001611047818238082, -0.001912812203896784, -0.0020739169857205923)),
    ])
    def test_pinned_outputs(self, alpha, pinned):
        # (residual, spectral, integral) of the one-sided pairing (0.4, 2) / (3, 5)
        # at max_degree 200, a 200-point rule and 128 zeta points, as the bump
        # classes computed them; 1e-6 relative is the eigensolver floor of the rule
        al = AlphaParams((alpha,))
        out = dual_pairing_check(((0.4, 2.0),), ((3.0, 5.0),), 0, al, default_rule(al, 200),
                                 KernelConfig(zeta_points=128), max_degree=200)
        np.testing.assert_allclose(out, pinned, rtol=1e-6, atol=0)

    def test_invariant_bumps_pair_to_zero(self):
        # R_j maps sign-invariant functions to odd ones, so for two invariant
        # bumps both routes vanish identically (parity annihilation)
        al = AlphaParams((0.0,))
        rule = default_rule(al, 200)
        resid, spectral, integral = dual_pairing_check(
            ((-0.8, -0.3), (0.3, 0.8)), ((-2.6, -1.8), (1.8, 2.6)), 0, al, rule, CFG,
            max_degree=150)
        assert abs(spectral) <= 1e-12
        assert abs(integral) <= 1e-12

    def test_bump_invariance(self):
        invariant = ((-1.5, -0.5), (0.5, 1.5))
        v = _bumps(np.array([0.7, -0.7, 1.2, -1.2]), invariant)
        assert v[0] == v[1] and v[2] == v[3]
        assert _bumps(np.array([0.4, 1.6]), invariant).tolist() == [0.0, 0.0]
        one_sided = ((0.5, 1.5),)
        assert _bumps(np.array([-0.7]), one_sided)[0] == 0.0
        assert _bumps(np.array([0.7]), one_sided)[0] > 0.0