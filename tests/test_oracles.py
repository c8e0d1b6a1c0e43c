import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from modham import (
    DomainError,
    InvalidParameter,
    ModularDivergence,
    QuadratureNotConverged,
    Region,
    build_harmonic_chain,
    entanglement_entropy,
    mn_kernels,
    oracle_reduced_density_matrix,
    oracle_single_mode,
    restrict_correlators,
    vacuum_state,
)


def oracle_resolvent_scalar(z: float, quad_tol: float = 1e-10) -> float:
    """The absolute discrepancy of the scalar resolvent integral of
    ``1 / (1 - 4 t^2 z^2)`` over t in [1, inf), by multiprecision quadrature,
    from its closed form ``-(1/(4z)) ln((2z + 1)/(2z - 1))``.

    Raises :class:`DomainError` outside ``z^2 >= 1/4 + 1e-8`` and
    :class:`QuadratureNotConverged` when the quadrature error estimate
    exceeds ``quad_tol``.
    """
    if z * z < 0.25 + 1e-8:
        raise DomainError(f"z^2 = {z * z:.10f} below the validity bound 1/4 + 1e-8")
    with mpmath.workdps(30):
        mz = mpmath.mpf(z)
        value, err = mpmath.quad(lambda t: 1.0 / (1.0 - 4.0 * t * t * mz * mz),
                                 [1, mpmath.inf], error=True)
        if err > quad_tol:
            raise QuadratureNotConverged(
                f"multiprecision quadrature error {float(err):.3e} above {quad_tol:g}",
                achieved_error=float(err))
        closed = -mpmath.log((2 * mz + 1) / (2 * mz - 1)) / (4 * mz)
        return float(abs(value - closed))


class TestSingleModeOracle:
    def test_unit_correlators(self):
        result = oracle_single_mode(1.0, 1.0)
        assert result.c == pytest.approx(1.0, abs=1e-15)
        assert result.M == pytest.approx(np.log(3.0) / 2.0, abs=1e-15)
        assert result.N == pytest.approx(np.log(3.0) / 2.0, abs=1e-15)
        assert_allclose(
            result.L_2x2, [[0.0, np.log(3.0)], [-np.log(3.0), 0.0]], atol=1e-15
        )

    def test_asymmetric_correlators(self):
        # x = 2, p = 1: c = sqrt(2), N = x M / p = 2 M
        result = oracle_single_mode(2.0, 1.0)
        c = np.sqrt(2.0)
        f_val = np.log((2.0 * c + 1.0) / (2.0 * c - 1.0)) / (2.0 * c)
        assert result.c == pytest.approx(c, abs=1e-15)
        assert result.M == pytest.approx(f_val, abs=1e-15)
        assert result.N == pytest.approx(2.0 * f_val, abs=1e-15)

    def test_purity_boundary(self):
        with pytest.raises(ModularDivergence):
            oracle_single_mode(0.5, 0.5)

    def test_domain(self):
        with pytest.raises(DomainError):
            oracle_single_mode(0.4, 0.4)
        with pytest.raises(InvalidParameter):
            oracle_single_mode(-1.0, 1.0)

    def test_entropy_matches_direct_formula(self):
        result = oracle_single_mode(1.0, 1.0)
        expected = 1.5 * np.log(1.5) - 0.5 * np.log(0.5)
        assert result.entropy == pytest.approx(expected, abs=1e-15)


class TestFockOracle:
    def test_entropy_matches_correlator_route(self):
        model = build_harmonic_chain(2, 1.0)
        state = vacuum_state(model)
        kernels = mn_kernels(restrict_correlators(state, Region([0])))
        result = oracle_reduced_density_matrix(model, n_max=24)
        assert abs(result.entropy - entanglement_entropy(kernels)) <= 1e-6
        assert result.trace_defect <= 1e-8

    def test_geometric_spectrum(self):
        # consecutive eigenvalue ratios follow q = (c - 1/2)/(c + 1/2)
        model = build_harmonic_chain(2, 1.0)
        state = vacuum_state(model)
        rc = restrict_correlators(state, Region([0]))
        c = float(np.sqrt(rc.X_R[0, 0] * rc.P_R[0, 0]))
        q = (c - 0.5) / (c + 0.5)
        spec = oracle_reduced_density_matrix(model, n_max=24).occupation_spectrum
        for k in range(3):
            assert spec[k + 1] / spec[k] == pytest.approx(q, abs=1e-6)

    def test_nearly_decoupled_sites(self):
        model = build_harmonic_chain(2, 1.0, coupling=1e-8)
        result = oracle_reduced_density_matrix(model, n_max=12)
        assert result.entropy <= 1e-6

    def test_other_site_by_symmetry(self):
        model = build_harmonic_chain(2, 1.0)
        left = oracle_reduced_density_matrix(model, n_max=16, region=(0,))
        right = oracle_reduced_density_matrix(model, n_max=16, region=(1,))
        assert left.entropy == pytest.approx(right.entropy, abs=1e-12)

    def test_parameter_validation(self):
        model3 = build_harmonic_chain(3, 1.0)
        with pytest.raises(InvalidParameter):
            oracle_reduced_density_matrix(model3)
        model = build_harmonic_chain(2, 1.0)
        with pytest.raises(InvalidParameter):
            oracle_reduced_density_matrix(model, n_max=4)
        with pytest.raises(InvalidParameter):
            oracle_reduced_density_matrix(model, region=(0, 1))


class TestResolventOracle:
    def test_closed_form_at_one(self):
        assert oracle_resolvent_scalar(1.0) <= 1e-10

    def test_near_singular(self):
        assert oracle_resolvent_scalar(0.5001) <= 1e-8

    def test_domain(self):
        with pytest.raises(DomainError):
            oracle_resolvent_scalar(0.4)

    def test_negative_argument(self):
        assert oracle_resolvent_scalar(-1.0) <= 1e-10


def test_truncation_certificate_detects_movement():
    # below the contract floor the entropy still moves by far more than the
    # certificate threshold, so the n_max -> n_max + 4 comparison has teeth
    from modham.oracles import _truncated_vacuum_entropy

    model = build_harmonic_chain(2, 0.0, 1.0)
    s4, _, _ = _truncated_vacuum_entropy(model, 4, 0)
    s8, _, _ = _truncated_vacuum_entropy(model, 8, 0)
    assert abs(s4 - s8) > 1e-6
