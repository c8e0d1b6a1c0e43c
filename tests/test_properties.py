"""Property-based checks over random chains and regions."""

import dataclasses

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import numpy as np

from modham import (
    Region,
    build_flow,
    build_harmonic_chain,
    entanglement_entropy,
    minimal_gap,
    mn_kernels,
    purify_restriction,
    regularize_correlators,
    restrict_correlators,
    route_agreement,
    run_kms_suite,
    symplectic_spectrum,
    vacuum_state,
)
from modham.kernels import restricted_spectrum

ROUTE_TOL = 1e-7
KMS_TOL = 1e-7
MIN_GAP = 1e-6


@st.composite
def chain_and_region(draw, min_mass=0.3):
    """A Dirichlet chain and a region of one or two separated intervals."""
    n = draw(st.integers(8, 40))
    mass = draw(st.floats(min_mass, 2.0))
    max_len = max(1, n // 8)
    lengths = draw(st.lists(st.integers(1, max_len), min_size=1, max_size=2))
    spacing = draw(st.integers(1, max(1, n // 4)))
    span = sum(lengths) + spacing * (len(lengths) - 1)
    start = draw(st.integers(0, n - span))
    sites = list(range(start, start + lengths[0]))
    if len(lengths) == 2:
        second = start + lengths[0] + spacing
        sites += list(range(second, second + lengths[1]))
    return n, mass, Region(sites)


@st.composite
def chain_and_interval(draw):
    """A Dirichlet or periodic chain and a proper interval of it.

    The c-spectrum depends on ``mass / sqrt(coupling)`` only, drawn in
    [1e-3, 1].  Heavier chains have entropies of 1e-2 and below, and there
    the modes at machine distance from 1/2 limit both routes to about
    1e-12 relative.
    """
    n = draw(st.integers(2, 48))
    boundary = draw(st.sampled_from(["dirichlet", "periodic"]))
    coupling = draw(st.floats(0.5, 2.0))
    mass = draw(st.floats(1e-3, 1.0)) * coupling**0.5
    length = draw(st.integers(1, n - 1))
    start = draw(st.integers(0, n - length))
    return build_harmonic_chain(n, mass, coupling, boundary), Region.interval(start, length)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(chain_and_interval())
def test_scan_spectrum_matches_the_mode_spectrum(case):
    # the scan's values-only c against the c of the restriction's mode data
    model, region = case
    state = vacuum_state(model)
    c = restricted_spectrum(state, region)
    c_modes = symplectic_spectrum(restrict_correlators(state, region))
    assert c[0] >= 0.5 - 1e-10 and c_modes[0] >= 0.5 - 1e-10
    # below a gap of 1e-10 both routes sit at the eps/gap level
    if c_modes[0] - 0.5 >= 1e-10:
        reference = entanglement_entropy(c_modes)
        assert abs(entanglement_entropy(c) - reference) <= 1e-12 * reference


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(chain_and_region())
def test_full_space_routes_agree(case):
    n, mass, region = case
    state = vacuum_state(build_harmonic_chain(n, mass))
    assume(minimal_gap(state, region) >= MIN_GAP)
    agreement = route_agreement(state, region)
    assert agreement.spectral_vs_quadrature <= ROUTE_TOL
    assert agreement.spectral_vs_blocks <= ROUTE_TOL
    assert agreement.blocks_vs_quadrature <= ROUTE_TOL
    assert agreement.kernel_vs_blocks <= ROUTE_TOL


@settings(max_examples=40, deadline=None, derandomize=True)
@given(chain_and_region(min_mass=0.1), st.floats(1e-6, 1e-2))
def test_regularize_then_purify_round_trip(case, clip):
    # the crosscheck's clipped path: regularize the restriction, purify it,
    # and restrict the pure state back to the embedded region
    n, mass, region = case
    rc = restrict_correlators(vacuum_state(build_harmonic_chain(n, mass)), region)
    regularized, _ = regularize_correlators(rc, clip)
    assert regularized.X_R is rc.X_R
    assert regularized.modes.c[0] >= 0.5 + clip - 1e-12
    pure, embedded = purify_restriction(regularized)
    back = restrict_correlators(pure, embedded)
    assert np.max(np.abs(back.X_R - rc.X_R)) <= 1e-10
    assert np.max(np.abs(back.P_R - regularized.P_R)) <= 1e-10


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(chain_and_region(min_mass=0.1))
def test_kms_certifies_the_block_generator(case):
    # down to the branch guard the true generator passes KMS at t = 0 and
    # the whole sweep, and a 1% perturbation of it fails the check
    n, mass, region = case
    state = vacuum_state(build_harmonic_chain(n, mass))
    assume(minimal_gap(state, region) > 1e-8)
    rc = restrict_correlators(state, region)
    flow = build_flow(mn_kernels(rc), rc)
    assert flow.check_residual <= KMS_TOL
    report = run_kms_suite(state, region)
    assert not report.errors
    assert report.max_residual <= KMS_TOL
    noise = np.random.default_rng(n).standard_normal(flow.generator.shape)
    noise *= 0.01 * np.linalg.norm(flow.generator) / np.linalg.norm(noise)
    perturbed = dataclasses.replace(flow, generator=flow.generator + noise)
    assert perturbed.check_residual > KMS_TOL
