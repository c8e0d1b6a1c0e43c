"""Error paths and rare branches that no other test reaches, each with the
smallest input that gets there."""

import numpy as np
import pytest

import modham as mh
from modham import InvalidParameter, ModularDivergence, NumericalError, PositivityViolation
from modham._linalg import SymmetrizedFrame, product_spectrum, rel_diff
from modham.kernels import nested_spectra
from modham.runner import to_json_text

STATE = mh.vacuum_state(mh.build_harmonic_chain(4, 1.0))
PAIR = mh.restrict_correlators(STATE, mh.Region([1, 2]))
SKEW = np.array([[0.0, 1.0], [0.0, 0.0]])


def _restrict_direct(x_full, p_full):
    # a GaussianState built by its constructor skips the purity checks
    return mh.restrict_correlators(mh.GaussianState(2, x_full, p_full), mh.Region([0, 1]))


CASES = {
    "duplicate-region-sites": (
        lambda: mh.Region([1, 1]),
        InvalidParameter, "duplicate site indices in region: (1, 1)"),
    "sweep-not-nested": (
        lambda: nested_spectra(STATE, [range(0, 2), range(2, 4)]),
        InvalidParameter, "the site sets of a sweep must be nested"),
    "quad-tol-zero": (
        lambda: mh.lndelta_resolvent_quadrature(STATE, mh.Region([1]), quad_tol=0),
        InvalidParameter, "quad_tol must be positive, got 0"),
    "flow-of-another-region": (
        lambda: mh.build_flow(mh.mn_kernels(mh.restrict_correlators(STATE, mh.Region([0]))),
                              mh.restrict_correlators(STATE, mh.Region([1]))),
        InvalidParameter, "kernels and correlators belong to different regions"),
    "flow-of-asymmetric-X_R": (
        # ||G^T - (G - i eps)|| = ||X_R - X_R^T|| = sqrt(2)
        lambda: mh.build_flow(mh.mn_kernels(PAIR), mh.RestrictedCorrelators(
            PAIR.region, PAIR.X_R + SKEW, PAIR.P_R)),
        NumericalError, "G^T != G - i eps beyond tolerance: 1.414e+00"),
    "restriction-lost-symmetry": (
        # ||X - X^T|| / ||X|| = sqrt(2) / sqrt(3)
        lambda: _restrict_direct(np.eye(2) + SKEW, np.eye(2)),
        NumericalError, "X_R lost symmetry: 8.165e-01"),
    "restriction-below-uncertainty": (
        lambda: _restrict_direct(0.1 * np.eye(2), 0.1 * np.eye(2)),
        PositivityViolation, "spec(X_R P_R) reaches 1.000000000000e-02 < 1/4 - 1e-10"),
    "frame-of-indefinite-gram": (
        lambda: SymmetrizedFrame(np.eye(2), -np.eye(2)),
        NumericalError, "Gram matrix is not positive definite beyond the clamp "
        "threshold 1e-14 (min eigenvalue -1.000e+00)"),
    "spectrum-of-indefinite-P": (
        lambda: product_spectrum(np.eye(2), -np.eye(2)),
        NumericalError, "P correlator is not positive definite"),
    "via-G-at-c-one-half": (
        lambda: mh.lndelta_region_via_G(mh.RestrictedCorrelators(
            mh.Region([0]), np.array([[0.5]]), np.array([[0.5]]))),
        ModularDivergence,
        "eigenvalues of 2 eps G + i within tolerance of +-i; arccot diverges"),
    "json-of-unsupported-type": (
        lambda: to_json_text(object()), TypeError, "cannot serialize object"),
    "json-of-bools": (
        lambda: to_json_text([True, False, None]), None, "[\n  true,\n  false,\n  null\n]"),
    "rel-diff-of-zeros": (
        lambda: rel_diff(np.zeros((2, 2)), np.zeros((2, 2))), None, 0.0),
}


@pytest.mark.parametrize("call, error, expected", CASES.values(), ids=CASES.keys())
def test_rare_sites(call, error, expected):
    # an error site raises exactly its class with its full message; a branch
    # without an error returns its value
    if error is None:
        assert call() == expected
        return
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == expected
