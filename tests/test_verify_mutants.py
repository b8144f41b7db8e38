"""The per-axis checks of `verify` still kill the faults they are known to see.

`orthonormality`, `heat_semigroup` and `heat_contraction` work on one 1-d
rule per axis.  Each mutant below is put in by monkeypatching where the
code binds the function, and each row names the checks it must fail at
one alpha; the other two of the three must still pass, so a row also
fails when a check starts to kill a fault it did not.  Residuals measured
on the documented defaults at config seed 1234 are in the comments.
"""

from dataclasses import replace

import numpy as np
import pytest

import dunklosc.heat as heat
import dunklosc.suite as suite
from dunklosc.suite import RunConfig

CHECKS = {"orthonormality": suite._check_orthonormality,
          "heat_semigroup": suite._check_semigroup,
          "heat_contraction": suite._check_contraction}


def kummer_scaled(monkeypatch):
    # e^{-x} M(k, b, x), the parity factor at z < 0, scaled by 1.001
    kummer = heat._kummer_scaled
    monkeypatch.setattr(heat, "_kummer_scaled", lambda k, b, x: 1.001 * kummer(k, b, x))


def parity_clamp(monkeypatch):
    # the parity factor clamped at z >= 0 for a > 0; _heat_values binds
    # _parity_sum as its default factor
    parity = heat._parity_sum
    clamped = lambda a, z, slope=False: parity(a, np.maximum(z, 0.0) if a > 0 else z, slope)
    monkeypatch.setattr(heat._heat_values, "__defaults__", (clamped,))


def swapped_weights(monkeypatch):
    # the weights of the 4th and 5th positive nodes of every configured 1-d
    # rule swapped (the nodes are symmetric, so a swap across 0 is no fault)
    build = suite.default_rule

    def rule(alpha, npoints):
        r = build(alpha, npoints)
        w, k = r.weights.copy(), npoints + 3
        w[[k, k + 1]] = w[[k + 1, k]]
        return replace(r, weights=w)
    monkeypatch.setattr(suite, "default_rule", rule)


@pytest.mark.parametrize("mutant,alpha,killed", [
    (kummer_scaled, (-0.5, 0.7), {"heat_semigroup"}),  # 8.80e-4, from the 0.7 axis alone
    (kummer_scaled, (1.3,), {"heat_semigroup"}),  # 8.89e-4
    (parity_clamp, (-0.5, 0.7), {"heat_semigroup", "heat_contraction"}),  # 21.6, 7.02
    (parity_clamp, (1.3,), {"heat_semigroup", "heat_contraction"}),  # 167, 23.5
    (swapped_weights, (-0.5, 0.7), {"orthonormality", "heat_semigroup"}),  # 1.66e-2, 2.70e-2
    (swapped_weights, (0.0,), {"orthonormality", "heat_semigroup"}),  # 6.82e-3, 1.00e-2
    (None, (-0.5, 0.7), set()),
    (None, (1.3,), set()),
    (None, (0.0,), set()),
], ids=["kummer-d2", "kummer-d1", "clamp-d2", "clamp-d1", "swap-d2", "swap-d1",
        "clean-d2", "clean-a1.3", "clean-a0"])
def test_per_axis_checks_kill_the_mutant(monkeypatch, mutant, alpha, killed):
    if mutant is not None:
        mutant(monkeypatch)
    cfg = RunConfig(alpha)
    records = {name: check(cfg) for name, check in CHECKS.items()}
    assert {name for name, rec in records.items() if not rec["passed"]} == killed, records
