"""Dense 2n x 2n forms of a Gaussian state, built for the tests only: the
library applies I and ``diag(X, P)`` block by block and never forms them."""

import numpy as np

from modham.lattice import _two_point_kernel


def complex_structure(state):
    """The complex structure ``I = [[0, -2P], [2X, 0]]``."""
    zero = np.zeros_like(state.X_full)
    return np.block([[zero, -2.0 * state.P_full], [2.0 * state.X_full, zero]])


def mu_gram(state):
    """The Gram matrix ``diag(X, P)`` of the metric ``mu``."""
    zero = np.zeros_like(state.X_full)
    return np.block([[state.X_full, zero], [zero, state.P_full]])


def two_point_function(state):
    """The complex 2n x 2n kernel ``G = [[X, i/2], [-i/2, P]]``."""
    return _two_point_kernel(state.X_full, state.P_full)
