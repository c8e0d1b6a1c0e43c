"""Error paths and rare branches that no other test reaches, each with the
smallest input that gets there."""

import re

import numpy as np
import pytest

import modham as mh
from modham import (
    DimensionMismatch,
    InvalidParameter,
    ModularDivergence,
    NumericalError,
    PositivityViolation,
    SpectrumOutOfDomain,
    TruncationNotConverged,
)
from modham._linalg import product_spectrum, rel_diff
from modham.kernels import nested_spectra
from modham.lattice import _check_mode_spectra
from modham.subspace import _region_quadrature
from modham.runner import to_json_text

STATE = mh.vacuum_state(mh.build_harmonic_chain(4, 1.0))
PAIR = mh.restrict_correlators(STATE, mh.Region([1, 2]))
SKEW = np.array([[0.0, 1.0], [0.0, 0.0]])


def _raw_half(n, mass):
    # a raw half passes the verdict (|eig A| >= 1 - 1e-9) on its near-unentangled modes
    return mh.vacuum_state(mh.build_harmonic_chain(n, mass)), mh.Region.half(n)


def _with_entry(matrix, entries, value):
    # a copy of the matrix with the value at each of the entries
    matrix = matrix.copy()
    for entry in entries:
        matrix[entry] = value
    return matrix


VACUUM_8 = mh.vacuum_state(mh.build_harmonic_chain(8, 0.5))


CASES = {
    # sites, starts and lengths are ints or numpy integers, never rounded
    "region-site-a-float": (
        lambda: mh.Region([1.7]), InvalidParameter, "region site must be an integer, got 1.7"),
    "region-site-a-bool": (
        lambda: mh.Region([True, 2]), InvalidParameter,
        "region site must be an integer, got True"),
    "region-site-a-string": (
        lambda: mh.Region(["3"]), InvalidParameter, "region site must be an integer, got '3'"),
    "region-not-iterable": (
        lambda: mh.Region(5), InvalidParameter, "region sites must be an iterable, got 5"),
    "interval-start-a-float": (
        lambda: mh.Region.interval(2.5, 2), InvalidParameter,
        "interval start must be an integer, got 2.5"),
    "half-of-a-float": (
        lambda: mh.Region.half(8.0), InvalidParameter, "n_sites must be an integer, got 8.0"),
    # a bool is not read as a tolerance of 1, nor a string parsed as one
    "clip-a-bool": (
        lambda: mh.regularize_correlators(PAIR, True), InvalidParameter,
        "min_gap must be a real number, got True"),
    "kms-clip-a-string": (
        lambda: mh.run_kms_suite(STATE, mh.Region([1]), clip="1e-4"), InvalidParameter,
        "min_gap must be a real number, got '1e-4'"),
    "sing-tol-a-string": (
        lambda: mh.mn_kernels(PAIR, sing_tol="1e-10"), InvalidParameter,
        "sing_tol must be a real number, got '1e-10'"),
    "entropy-below-one-half": (
        lambda: mh.entanglement_entropy([0.3]), PositivityViolation,
        "spec(X_R P_R) reaches 9.000000000000e-02 < 1/4 - 1e-10"),
    "entropy-of-a-negative-c": (
        lambda: mh.entanglement_entropy([1.0, -1.0]), PositivityViolation,
        "spec(X_R P_R) reaches -1.000000000000e+00 < 1/4 - 1e-10"),
    "entropy-of-nan": (
        lambda: mh.entanglement_entropy([np.nan]), InvalidParameter,
        "entropy of a non-finite c-spectrum: [nan]"),
    "duplicate-region-sites": (
        lambda: mh.Region([1, 1]),
        InvalidParameter, "duplicate site indices in region: (1, 1)"),
    "sweep-not-nested": (
        lambda: nested_spectra(STATE, [range(0, 2), range(2, 4)]),
        InvalidParameter, "the site sets of a sweep must be nested"),
    "quad-tol-zero": (
        lambda: mh.lndelta_resolvent_quadrature(STATE, mh.Region([1]), quad_tol=0),
        InvalidParameter, "quad_tol must be finite and positive, got 0"),
    # a tolerance that is not finite and positive would switch its gate off
    "quad-tol-inf": (
        lambda: mh.lndelta_resolvent_quadrature(STATE, mh.Region([1]), quad_tol=np.inf),
        InvalidParameter, "quad_tol must be finite and positive, got inf"),
    "quad-tol-nan": (
        lambda: mh.route_agreement(STATE, mh.Region([1]), quad_tol=np.nan),
        InvalidParameter, "quad_tol must be finite and positive, got nan"),
    "sing-tol-nan": (
        lambda: mh.mn_kernels(PAIR, sing_tol=np.nan),
        InvalidParameter, "sing_tol must be finite and positive, got nan"),
    "sing-tol-negative": (
        lambda: mh.mn_kernels(PAIR, sing_tol=-1),
        InvalidParameter, "sing_tol must be finite and positive, got -1"),
    "via-G-sing-tol-inf": (
        lambda: mh.lndelta_region_via_G(PAIR, sing_tol=np.inf),
        InvalidParameter, "sing_tol must be finite and positive, got inf"),
    "branch-tol-nan": (
        lambda: mh.build_flow(mh.mn_kernels(PAIR), PAIR, branch_tol=np.nan),
        InvalidParameter, "branch_tol must be finite and positive, got nan"),
    "kms-clip-past-the-float-range": (
        # both modes (c = 0.52, 0.58) move to 6.2e76: P_R grows by (c'/c)^2 to
        # entries of 8.9e153, whose squares no longer sum in double precision
        lambda: mh.run_kms_suite(mh.vacuum_state(mh.build_harmonic_chain(12, 0.3)),
                                 mh.Region([5, 6]), clip=6.2e76),
        NumericalError,
        "P_R regularized to gap 6.2e+76 is not finite in double precision: ||P_R|| = inf"),
    "branch-tol-negative": (
        lambda: mh.build_flow(mh.mn_kernels(PAIR), PAIR, branch_tol=-1),
        InvalidParameter, "branch_tol must be finite and positive, got -1"),
    "flow-of-another-region": (
        lambda: mh.build_flow(mh.mn_kernels(mh.restrict_correlators(STATE, mh.Region([0]))),
                              mh.restrict_correlators(STATE, mh.Region([1]))),
        InvalidParameter, "kernels and correlators belong to different regions"),
    "flow-of-asymmetric-X_R": (
        # ||G^T - (G - i eps)|| = ||X_R - X_R^T|| = sqrt(2)
        lambda: mh.build_flow(mh.mn_kernels(PAIR), mh.RestrictedCorrelators(
            PAIR.region, PAIR.X_R + SKEW, PAIR.P_R)),
        NumericalError, "G^T != G - i eps beyond tolerance: 1.414e+00"),
    "state-of-asymmetric-X": (
        # ||X - X^T|| / ||X|| = sqrt(2) / sqrt(3)
        lambda: mh.GaussianState.from_correlators(np.eye(2) + SKEW, np.eye(2)),
        NumericalError, "X lost symmetry: 8.165e-01"),
    "restriction-below-uncertainty": (
        # the purity residual 1e-3 passes against ||X|| ||P|| = 2.5e7, and
        # the region's x p = 0.999 / 4 does not
        lambda: mh.restrict_correlators(
            mh.GaussianState(2, np.diag([1e-4, 1e4]), np.diag([0.999 / 4e-4, 1 / 4e4])),
            mh.Region([0])),
        PositivityViolation, "spec(X_R P_R) reaches 2.497500000000e-01 < 1/4 - 1e-10"),
    "state-of-indefinite-gram": (
        # pure and symmetric, with X and P negative on the second site
        lambda: mh.GaussianState(2, np.diag([0.25, -0.25]), np.diag([1.0, -1.0])),
        NumericalError, "mu Gram matrix not positive definite (min eig -2.500e-01)"),
    "bare-state-impure": (
        # the bare constructor checks what from_correlators checks
        lambda: mh.GaussianState(8, 2 * VACUUM_8.X_full, VACUUM_8.P_full),
        InvalidParameter, "state is not pure: ||4 X P - 1|| = 5.184e-01 (only pure states are "
        "supported; restrict a purification for mixed states)"),
    "state-of-a-nan-diagonal": (
        # NaN makes every `value > tol` False: it is refused before any such check
        lambda: mh.GaussianState.from_correlators(
            _with_entry(STATE.X_full, [(0, 0)], np.nan), STATE.P_full),
        InvalidParameter, "X must be finite, got nan at [0, 0]"),
    "state-of-a-nan-pair": (
        lambda: mh.GaussianState.from_correlators(
            _with_entry(STATE.X_full, [(1, 2), (2, 1)], np.nan), STATE.P_full),
        InvalidParameter, "X must be finite, got nan at [1, 2]"),
    "state-of-an-inf": (
        lambda: mh.GaussianState(4, STATE.X_full, _with_entry(STATE.P_full, [(3, 3)], -np.inf)),
        InvalidParameter, "P must be finite, got -inf at [3, 3]"),
    "state-of-complex-X": (
        lambda: mh.GaussianState.from_correlators(STATE.X_full + 0j, STATE.P_full),
        InvalidParameter, "X must be a real array, got dtype complex128"),
    "state-of-text": (
        lambda: mh.GaussianState.from_correlators(STATE.X_full, [["1"]]),
        InvalidParameter, "P must be a real array, got dtype <U1"),
    "state-on-a-bool-of-sites": (
        lambda: mh.GaussianState(True, np.eye(1), np.eye(1) / 4),
        InvalidParameter, "n_sites must be a positive integer, got True"),
    "state-on-a-float-of-sites": (
        lambda: mh.GaussianState(4.0, STATE.X_full, STATE.P_full),
        InvalidParameter, "n_sites must be a positive integer, got 4.0"),
    "state-of-the-wrong-size": (
        lambda: mh.GaussianState(3, STATE.X_full, STATE.P_full),
        DimensionMismatch, "X must be 3 x 3 for 3 sites, got (4, 4)"),
    "route-c-of-an-indefinite-hand-built-X_R": (
        # a restriction of a state keeps its Gram bound; a hand-built one need not
        lambda: _region_quadrature(mh.RestrictedCorrelators(
            mh.Region([0]), np.array([[-1.0]]), np.array([[1.0]])), 1e-10),
        NumericalError, "mu Gram matrix not positive definite (min eig -1.000e+00)"),
    "spectrum-of-indefinite-P": (
        lambda: product_spectrum(np.eye(2), -np.eye(2)),
        NumericalError, "P correlator is not positive definite"),
    "via-G-of-a-nearly-defective-pair": (
        # a hand-built X_R P_R = [[0.3, 1], [0, 0.3 + 1e-10]], a Jordan block split
        # by 1e-10: eig's eigenvectors have condition 3.7e10, and the complex
        # products leave ~eps times that in the imaginary part
        lambda: mh.lndelta_region_via_G(mh.RestrictedCorrelators(
            mh.Region([0, 1]), np.eye(2), np.array([[0.3, 1.0], [0.0, 0.3 + 1e-10]]))),
        NumericalError,
        re.compile(r"complex arccot path left imaginary residual \d\.\d{3}e-0[5-7]")),
    "via-G-at-c-one-half": (
        lambda: mh.lndelta_region_via_G(mh.RestrictedCorrelators(
            mh.Region([0]), np.array([[0.5]]), np.array([[0.5]]))),
        ModularDivergence,
        "eigenvalues of 2 eps G + i within tolerance of +-i; arccot diverges"),
    "spectrum-at-minus-one": (
        # gap -5.6e-17: the verdict accepts |eig| = 1 - 4.4e-16 >= 1 - 1e-9, and
        # route (a) finds that eigenvalue inside [-1, 1] (at m = 1, gap 6.7e-16,
        # |eig| rounds to 1 + 1.1e-15 and the expm gate fires instead)
        lambda: mh.modular_data_full(*_raw_half(8, 2.0)),
        SpectrumOutOfDomain, re.compile(r"\d eigenvalue\(s\) of A on L \+ IL inside \[-1, 1\]; "
                                        r"the modular generator is not representable for this "
                                        r"region \(nearly unentangled modes\)")),
    "expm-gate-of-a-raw-half": (
        # gap 1.7e-9, so Delta reaches ~6e8 and exp(ln Delta) misses
        # (A - 1)^{-1} (A + 1) by 1.5e-7 (by 0.39 on the 8-site half at m = 1)
        lambda: mh.modular_data_full(*_raw_half(6, 0.1)),
        NumericalError, re.compile(r"exp\(ln Delta\) disagrees with \(A-1\)\^\(-1\)\(A\+1\): "
                                   r"relative residual \d\.\d{3}e-07")),
    # a valid chain raises ZeroModeError first: the vacuum's spectral checks
    # are reached on crafted one-mode spectra
    "vacuum-spectra-impure": (
        lambda: _check_mode_spectra(np.array([0.5]), np.array([1.0])),
        InvalidParameter, "state is not pure: ||4 X P - 1|| = 1.000e+00 (only pure states are "
        "supported; restrict a purification for mixed states)"),
    "vacuum-mode-at-the-clamp": (
        lambda: _check_mode_spectra(np.array([1e-14]), np.array([0.25e14])),
        NumericalError, "mu Gram matrix not positive definite (min eig 1.000e-14)"),
    "fock-oracle-truncation": (
        # the periodic pair's soft mode (omega = 0.1) is squeezed far off the
        # site oscillators (omega = 1.42): 8 quanta per site do not hold it
        lambda: mh.oracle_reduced_density_matrix(
            mh.build_harmonic_chain(2, 0.1, 1.0, "periodic"), n_max=8),
        TruncationNotConverged,
        re.compile(r"entropy moved by \d\.\d{3}e-02 when raising n_max from 8 to 12")),
    "json-of-unsupported-type": (
        lambda: to_json_text(object()), TypeError, "cannot serialize object"),
    "json-of-bools": (
        lambda: to_json_text([True, False, None]), None, "[\n  true,\n  false,\n  null\n]"),
    "rel-diff-of-zeros": (
        lambda: rel_diff(np.zeros((2, 2)), np.zeros((2, 2))), None, 0.0),
}


@pytest.mark.parametrize("call, error, expected", CASES.values(), ids=CASES.keys())
def test_rare_sites(call, error, expected):
    # an error site raises exactly its class with its full message, or a
    # message matching a pattern where its digits are rounding; a branch
    # without an error returns its value
    if error is None:
        assert call() == expected
        return
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    if isinstance(expected, re.Pattern):
        assert expected.fullmatch(str(info.value))
    else:
        assert str(info.value) == expected
    if error is SpectrumOutOfDomain:
        assert info.value.eigenvalues and all(abs(e) <= 1.0 for e in info.value.eigenvalues)
