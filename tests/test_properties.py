"""Property-based checks over random chains and regions."""

import contextlib
import copy
import dataclasses
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import numpy as np
import scipy.linalg

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
from modham import errors
from modham.cli import main as cli_main
from modham.kernels import restricted_spectrum
from modham.runner import (
    _CONSTRUCTION_ERRORS,
    EXIT_CONSTRUCTION,
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
)

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
    # the scan's values-only c and the c of the restriction's mode frame
    # share one Cholesky similarity; the reference, the eigenvalues of the
    # nonsymmetric X_R P_R, shares no step with them
    model, region = case
    state = vacuum_state(model)
    c = restricted_spectrum(state, region)
    rc = restrict_correlators(state, region)
    c_modes = symplectic_spectrum(rc)
    assert c[0] >= 0.5 - 1e-10 and c_modes[0] >= 0.5 - 1e-10
    # below a gap of 1e-10 every route sits at the eps/gap level
    if c_modes[0] - 0.5 >= 1e-10:
        lam = scipy.linalg.eigvals(rc.X_R @ rc.P_R).real
        reference = entanglement_entropy(np.sqrt(np.clip(lam, 0.25, None)))
        for got in (c, c_modes):
            assert abs(entanglement_entropy(got) - reference) <= 1e-12 * reference


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


@st.composite
def run_config(draw):
    """A schema-valid configuration on at most 16 sites, any task mix."""
    n = draw(st.integers(2, 16))
    boundary = draw(st.sampled_from(["dirichlet", "periodic"]))
    # one draw in five is massless: a periodic one has a zero mode (exit 3)
    mass = draw(st.floats(0.05, 2.0)) if draw(st.integers(0, 4)) else 0.0
    length = draw(st.integers(1, n))
    region = draw(st.sampled_from([
        {"half": {}},
        {"interval": {"start": draw(st.integers(0, n - length)), "length": length}},
        {"sites": draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))},
    ]))
    tasks = draw(st.lists(
        st.sampled_from(["kernels", "flow", "kms", "crosscheck", "entropy_scan"]),
        min_size=1, max_size=5, unique=True,
    ))
    config = {
        "model": {"n_sites": n, "mass": mass, "coupling": 1.0, "boundary": boundary},
        "region": region,
        "tasks": tasks,
        # a 1e-15 route or KMS tolerance fails its residual check (exit 2)
        "tolerances": {
            "clip": draw(st.none() | st.floats(1e-6, 1e-2)),
            "route_tol": draw(st.sampled_from([1e-7, 1e-15])),
            "kms_tol": draw(st.sampled_from([1e-7, 1e-15])),
        },
        "output": {"directory": "unused", "formats": ["json", "csv"]},
    }
    if "entropy_scan" in tasks:
        lengths = draw(st.lists(st.integers(1, n), max_size=3, unique=True))
        config["scan"] = {"lengths": lengths, "start": None}
    return config


SCHEMA_MUTATIONS = {
    "unknown key": lambda cfg: cfg["model"].update(bogus=1),
    "nan": lambda cfg: cfg["model"].update(mass=float("nan")),
    "negative n_sites": lambda cfg: cfg["model"].update(n_sites=-cfg["model"]["n_sites"]),
}


def _cli_run(config, root: Path, name: str):
    config = copy.deepcopy(config)
    out = root / name
    config["output"]["directory"] = str(out)
    path = root / f"{name}.json"
    path.write_text(json.dumps(config))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli_main(["run", str(path)]), out


@settings(max_examples=25, deadline=None, derandomize=True)
@given(run_config(), st.sampled_from(sorted(SCHEMA_MUTATIONS)))
def test_cli_exit_code_contract(config, mutation):
    # a valid configuration exits 0, 2 or 3; error.json is written exactly
    # when the run aborts and names an exception the runner maps to its code
    mapped = {
        EXIT_VALIDATION: (errors.QuadratureNotConverged,),
        EXIT_CONSTRUCTION: _CONSTRUCTION_ERRORS,
    }
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        code, out = _cli_run(config, root, "valid")
        assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_CONSTRUCTION)
        # a run that completes writes metadata.json, one that aborts error.json
        aborted = (out / "error.json").exists()
        assert aborted != (out / "metadata.json").exists()
        if aborted:
            error = json.loads((out / "error.json").read_text())["error"]
            assert error["exit_code"] == code
            assert code in mapped
            assert issubclass(getattr(errors, error["type"]), mapped[code])
        else:
            assert code in (EXIT_OK, EXIT_VALIDATION)

        # one schema violation exits 4 before anything runs
        broken = copy.deepcopy(config)
        SCHEMA_MUTATIONS[mutation](broken)
        code, out = _cli_run(broken, root, "broken")
        assert code == EXIT_IO
        assert not out.exists()
