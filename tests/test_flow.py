import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from modham import (
    BranchCutProximity,
    FlowOverflow,
    IndexOutOfRange,
    InvalidParameter,
    ModularFlow,
    NotStandard,
    Region,
    RestrictedCorrelators,
    build_flow,
    build_harmonic_chain,
    flow_at,
    group_residual,
    kms_residual,
    mn_kernels,
    regularize_correlators,
    restrict_correlators,
    run_kms_suite,
    symplectic_invariance_residual,
    vacuum_state,
)
from modham.kernels import DEFAULT_SING_TOL


def single_mode_flow(x=1.0, p=1.0, branch_tol=1e-8):
    rc = RestrictedCorrelators(Region([0]), np.array([[x]]), np.array([[p]]))
    return build_flow(mn_kernels(rc), rc, branch_tol=branch_tol), rc


@pytest.fixture(scope="module")
def small_flow():
    state = vacuum_state(build_harmonic_chain(8, 1.0))
    rc = restrict_correlators(state, Region([3, 4]))
    return build_flow(mn_kernels(rc), rc)


class TestBuildFlow:
    def test_transpose_relation_holds(self, small_flow):
        # G^T = G - i eps for the restricted two-point kernel
        g_r, eps_r = small_flow.G_R, small_flow.eps_R
        assert np.linalg.norm(g_r.T - (g_r - 1j * eps_r)) <= 1e-12

    def test_single_mode_generator(self):
        flow, _ = single_mode_flow()
        expected = np.array([[0.0, -np.log(3.0)], [np.log(3.0), 0.0]])
        assert_allclose(flow.generator, expected, atol=1e-14)
        assert flow.check_residual <= 1e-12

    def test_generator_constructions_agree(self, small_flow):
        assert small_flow.check_residual <= 1e-7

    def test_ratio_spectrum_reciprocal_pairs(self, small_flow):
        # (G|_R)^{-1} G^T|_R has positive real spectrum in reciprocal pairs
        ratio = np.linalg.solve(small_flow.G_R, small_flow.G_R.T)
        evals = np.linalg.eigvals(ratio)
        assert np.max(np.abs(evals.imag)) <= 1e-9 * np.max(np.abs(evals))
        logs = np.sort(np.log(evals.real))
        assert np.all(evals.real > 0)
        assert_allclose(logs, -logs[::-1], atol=1e-9)

    def test_branch_cut_guard(self, chain8):
        # a spectral gap at or below the branch tolerance aborts the construction
        _, state = chain8
        rc = restrict_correlators(state, Region.half(8))
        rc_reg, _ = regularize_correlators(rc, 1e-10)
        with pytest.raises(BranchCutProximity):
            build_flow(mn_kernels(rc_reg, sing_tol=1e-12), rc_reg, branch_tol=1e-8)


class TestKmsCertification:
    """The block generator is certified by KMS at t = 0, ``G^T K(-i) = G``."""

    @pytest.mark.parametrize("n", [32, 256])
    @pytest.mark.parametrize("size", [3, 4])
    def test_raw_small_gap_intervals(self, n, size):
        # centered m = 1 intervals with gaps 1.4e-6 and 3.3e-7, where the
        # logarithm of (G|_R)^-1 G^T|_R loses the generator
        state = vacuum_state(build_harmonic_chain(n, 1.0))
        region = Region.interval((n - size) // 2, size)
        rc = restrict_correlators(state, region)
        assert build_flow(mn_kernels(rc), rc).check_residual <= 1e-7
        report = run_kms_suite(state, region)
        assert not report.errors
        assert report.max_residual <= 1e-7

    def test_separation_at_the_smallest_admitted_gap(self, chain8, rng):
        # clip 1e-8 with the guard clip / 2: the gap sits just above the guard
        _, state = chain8
        rc, _ = regularize_correlators(restrict_correlators(state, Region.half(8)), 1e-8)
        flow = build_flow(mn_kernels(rc), rc, branch_tol=5e-9)
        assert flow.check_residual <= 1e-7
        noise = rng.standard_normal(flow.generator.shape)
        noise *= 1e-7 * np.linalg.norm(flow.generator) / np.linalg.norm(noise)
        perturbed = dataclasses.replace(flow, generator=flow.generator + noise)
        assert perturbed.check_residual > 1e-7

    def test_one_eigendecomposition_per_flow(self, monkeypatch):
        state = vacuum_state(build_harmonic_chain(16, 1.0))
        rc = restrict_correlators(state, Region([2, 3, 10, 11]))
        kernels = mn_kernels(rc)
        calls = []
        eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda a: calls.append(a) or eig(a))
        flow = build_flow(kernels, rc)
        for t in (-1.0, -0.5, 0.0, 0.5, 1.0):
            kms_residual(flow, t)
            symplectic_invariance_residual(flow, t)
            group_residual(flow, t, 0.3)
        assert len(calls) == 1


class TestFlowAt:
    def test_identity_at_zero(self, small_flow):
        assert_allclose(flow_at(small_flow, 0.0), np.eye(4), atol=1e-14)

    def test_single_mode_rotation(self):
        # closed form: exp(t L) with L = [[0, -w], [w, 0]] is the rotation
        # [[cos, -sin], [sin, cos]](w t)
        flow, _ = single_mode_flow()
        w = np.log(3.0)
        for t in (-1.3, 0.2, 2.0):
            expected = np.array(
                [
                    [np.cos(w * t), -np.sin(w * t)],
                    [np.sin(w * t), np.cos(w * t)],
                ]
            )
            assert_allclose(flow_at(flow, t), expected, atol=1e-12)

    def test_real_time_returns_real(self, small_flow):
        assert flow_at(small_flow, 0.7).dtype.kind == "f"
        assert flow_at(small_flow, 0.5 - 0.5j).dtype.kind == "c"

    def test_group_law_random_times(self, small_flow, rng):
        for _ in range(10):
            s, t = rng.uniform(-2.0, 2.0, size=2)
            assert group_residual(small_flow, s, t) <= 1e-9

    def test_time_guards(self, small_flow):
        with pytest.raises(InvalidParameter):
            flow_at(small_flow, 0.1 + 2.5j)
        with pytest.raises(InvalidParameter):
            flow_at(small_flow, float("nan"))

    def test_overflow_guard(self):
        # a generator with modular energy 40 gives |K(-i)| ~ e^40 > 1e15
        base, _ = single_mode_flow()
        w = 40.0
        big = dataclasses.replace(base, generator=np.array([[0.0, -w], [w, 0.0]]))
        with pytest.raises(FlowOverflow):
            flow_at(big, -1j)


class TestKmsResidual:
    def test_single_mode_against_closed_form(self):
        # independent check: K(-i) = [[cosh w, -i sinh w], [i sinh w, cosh w]]
        flow, rc = single_mode_flow()
        w = np.log(3.0)
        k_imag = flow_at(flow, -1j)
        expected = np.array(
            [
                [np.cosh(w), 1j * np.sinh(w)],
                [-1j * np.sinh(w), np.cosh(w)],
            ]
        )
        assert_allclose(k_imag, expected, atol=1e-12)
        assert kms_residual(flow, 0.0) <= 1e-10

    def test_small_region_sweep(self, small_flow):
        for t in (-1.0, -0.5, 0.0, 0.5, 1.0):
            assert kms_residual(small_flow, t) <= 1e-8

    def test_negative_control(self, small_flow, rng):
        base = kms_residual(small_flow, 0.5)
        noise = rng.standard_normal(small_flow.generator.shape)
        noise *= 0.01 * np.linalg.norm(small_flow.generator) / np.linalg.norm(noise)
        perturbed = dataclasses.replace(small_flow, generator=small_flow.generator + noise)
        bad = kms_residual(perturbed, 0.5)
        assert bad > 1e-4
        assert bad >= 1e3 * base


class TestSymplecticInvariance:
    def test_zero_time(self, small_flow):
        assert symplectic_invariance_residual(small_flow, 0.0) <= 1e-14

    def test_random_times(self, small_flow, rng):
        for t in rng.uniform(-3.0, 3.0, size=8):
            assert symplectic_invariance_residual(small_flow, float(t)) <= 1e-9

    def test_single_mode_exact(self):
        flow, _ = single_mode_flow()
        assert symplectic_invariance_residual(flow, 1.7) <= 1e-13


class TestKmsSuite:
    def test_default_grid(self):
        state = vacuum_state(build_harmonic_chain(16, 1.0))
        region = Region(list(range(2, 4)) + list(range(10, 12)))
        report = run_kms_suite(state, region)
        assert report.t_values == (-1.0, -0.5, 0.0, 0.5, 1.0)
        assert report.max_residual <= 1e-8
        assert not report.errors

    def test_near_divergent_warning(self, chain8):
        # at clip 1e-9 the flow is not representable; the report carries the
        # proximity warning and the construction error instead of raising
        _, state = chain8
        report = run_kms_suite(state, Region.half(8), clip=1e-9)
        assert any("BranchCutProximity" in w for w in report.warnings)
        assert report.clipped_modes
        assert report.errors and report.kms_residuals == ()

    def test_unbuilt_flow_reports_nan(self, chain8):
        # no flow, no measurement: the maximum residual is NaN, never 0.0
        _, state = chain8
        report = run_kms_suite(state, Region.half(8), clip=1e-9)
        assert report.method == "none"
        assert report.errors and report.kms_residuals == ()
        assert np.isnan(report.max_residual)

    def test_regularized_flow_clean_report(self, chain8):
        _, state = chain8
        report = run_kms_suite(state, Region.half(8), clip=1e-4)
        assert not report.errors
        assert report.max_residual <= 1e-8
        assert any("regularized" in w for w in report.warnings)

    def test_failed_points_are_recorded_in_sweep_order(self, monkeypatch):
        # a failing point reads NaN and adds one error entry; the sweep goes on
        from modham import flow as flow_module

        measured = flow_module.kms_residual

        def kms_overflowing_at_half(flow, t):
            if t == 0.5:
                raise FlowOverflow("kernel too large")
            return measured(flow, t)

        def group_overflowing(flow, s, t):
            raise FlowOverflow("kernel too large")

        monkeypatch.setattr(flow_module, "kms_residual", kms_overflowing_at_half)
        monkeypatch.setattr(flow_module, "group_residual", group_overflowing)
        state = vacuum_state(build_harmonic_chain(16, 0.5))
        report = run_kms_suite(state, Region([6, 7, 8]))

        kms = np.array(report.kms_residuals)
        assert np.isnan(kms[3]) and np.all(np.isfinite(np.delete(kms, 3)))
        assert len(report.group_residuals) == 5
        assert np.all(np.isnan(report.group_residuals))
        assert np.all(np.isfinite(report.symplectic_residuals))
        rng = np.random.default_rng(7)
        pairs = [rng.uniform(-2.0, 2.0, size=2) for _ in range(5)]
        assert report.errors == (
            "kms t=0.5: kernel too large",
            *(f"group s={s:.3f} t={t:.3f}: kernel too large" for s, t in pairs),
        )
        assert np.isfinite(report.max_residual) and report.method == "eig"

    def test_sweep_with_every_point_failed_reports_nan(self, monkeypatch):
        # a built flow whose every residual raises measured nothing: NaN, as
        # for an unbuilt flow, never 0.0
        from modham import flow as flow_module

        def overflowing(*args):
            raise FlowOverflow("kernel too large")

        state = vacuum_state(build_harmonic_chain(16, 0.5))
        pipeline = flow_module._RegionPipeline(state, Region([6, 7, 8]), None, DEFAULT_SING_TOL)
        assert isinstance(pipeline.flow, ModularFlow)  # built, and certified at t = 0
        for name in ("kms_residual", "symplectic_invariance_residual", "group_residual"):
            monkeypatch.setattr(flow_module, name, overflowing)
        report = flow_module._kms_sweep(pipeline)
        assert report.method == "eig" and len(report.errors) == 15
        assert np.isnan(report.max_residual)

    @pytest.mark.parametrize(
        "sites, error",
        [([], NotStandard), (range(8), NotStandard), ([3, 8], IndexOutOfRange)],
        ids=["empty", "full", "out-of-range"],
    )
    def test_clip_still_checks_the_region(self, chain8, sites, error):
        # a clip skips the standardness frame of a proper region only
        _, state = chain8
        with pytest.raises(error):
            run_kms_suite(state, Region(sites), clip=1e-4)

    def test_not_standard_without_clip(self, chain8):
        _, state = chain8
        with pytest.raises(NotStandard):
            run_kms_suite(state, Region(range(8)))
        from modham import ModularDivergence

        # the machine-degenerate half-chain refuses with whichever
        # construction guard trips first
        with pytest.raises((NotStandard, ModularDivergence)):
            run_kms_suite(state, Region.half(8))


def test_generator_is_time_derivative_of_kernel(small_flow):
    # independent finite-difference check of dK/dt at t = 0
    h = 1e-5
    derivative = (flow_at(small_flow, h) - flow_at(small_flow, -h)) / (2.0 * h)
    norm = np.linalg.norm(small_flow.generator)
    assert np.linalg.norm(derivative - small_flow.generator) <= 1e-7 * norm
