"""Generalized Hermite expansions, heat semigroup and Riesz transforms
for the Z2^d Dunkl harmonic oscillator."""

from .hermite import (AlphaParams, a_coeff, eigenvalue, hermite_fn, hermite_fn_1d,
                      hermite_fn_all_1d, ladder_coeff)
from .quadrature import (QuadratureRule, SpectralCoeffs, default_rule, gauss_rule_1d,
                         inner_product, project, synthesize, tensor_rule)
from .polydunkl import (Polynomial, dunkl_T, dunkl_laplacian, exp_neg_lap_quarter,
                        fischer_product, fund_identity_check, monomial, verify_eldwa)
from .heat import (heat_apply_kernel, heat_apply_spectral, heat_kernel,
                   heat_kernel_column, heat_kernel_component, heat_kernel_series,
                   heat_kernel_zeta, maximal_empirical, q_plus_minus)
from .riesz import (KernelConfig, SchlafliMeasure, apriori_identity_check, beta_weight,
                    delta_psi, dual_pairing_check, riesz_adjoint_spectral,
                    riesz_apply_spectral, riesz_kernel, riesz_kernel_components,
                    riesz_kernel_direct, riesz_kernel_with_gradient, star_identity_check)
from .estimates import (ScanReport, ap_power_weight, ball_measure, ball_measure_qmc,
                        growth_scan, reflection_distance, smoothness_scan, soni_scan)
from .suite import RunConfig, parse_config, run_suite, serialize_config

__version__ = "0.1.0"
