import numpy as np
import pytest

from dunklosc.hermite import AlphaParams
from dunklosc.quadrature import default_rule
from dunklosc.riesz import riesz_kernel

# The alpha test matrix used throughout: three 1-d values spanning the atomic
# case, the unweighted case and a generic positive order, plus one 2-d vector.
ALPHA_MATRIX = [(-0.5,), (0.0,), (1.3,), (-0.5, 0.7)]


@pytest.fixture(scope="session")
def rules():
    """80-point default rules per alpha config, shared across tests."""
    return {al: default_rule(AlphaParams(al), 80) for al in ALPHA_MATRIX}


def fd_gradient(alpha, j, X, Y, cfg, rel_step):
    """Central differences of riesz_kernel in each of the 2d coordinates of
    (x, y), step rel_step |x - y| per pair, ordered [x_1..x_d, y_1..y_d]:
    the oracle for riesz_kernel_with_gradient's gradient."""
    d = alpha.dim
    Z = np.hstack([X, Y])
    h = rel_step * np.linalg.norm(X - Y, axis=1)
    out = np.empty(Z.shape)
    for k in range(2 * d):
        step = np.zeros(Z.shape)
        step[:, k] = h
        up, down = Z + step, Z - step
        out[:, k] = (riesz_kernel(alpha, j, up[:, :d], up[:, d:], cfg)
                     - riesz_kernel(alpha, j, down[:, :d], down[:, d:], cfg)) / (2.0 * h)
    return out


def richardson_gradient(alpha, j, X, Y, cfg, rel_step=1e-3):
    """fd_gradient at rel_step and rel_step / 2, Richardson-extrapolated:
    the O(step^2) error term cancels."""
    return (4.0 * fd_gradient(alpha, j, X, Y, cfg, 0.5 * rel_step)
            - fd_gradient(alpha, j, X, Y, cfg, rel_step)) / 3.0
