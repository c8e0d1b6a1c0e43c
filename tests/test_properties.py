"""Property-based checks over random chains and regions."""

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from modham import Region, build_harmonic_chain, minimal_gap, route_agreement, vacuum_state

ROUTE_TOL = 1e-7
MIN_GAP = 1e-6


@st.composite
def chain_and_region(draw):
    """A Dirichlet chain and a region of one or two separated intervals."""
    n = draw(st.integers(8, 40))
    mass = draw(st.floats(0.3, 2.0))
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
