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
    modular_data_full,
    purify_restriction,
    regularize_correlators,
    restrict_correlators,
    route_agreement,
    run_kms_suite,
    standardness_check,
    symplectic_spectrum,
    vacuum_state,
)
from modham import errors
from modham._linalg import rel_diff, symmetrize
from modham.cli import main as cli_main
from modham.config import ScanConfig
from modham.kernels import nested_spectra
from modham.regions import phase_space_indices, region_mask
from modham.subspace import _spectral_lndelta, _verdict
from modham.runner import (
    EXIT_CONSTRUCTION,
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    _scan_rows,
)

from dense_forms import complex_structure, mu_gram

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
    # the scan's values-only c, here the last of a sweep that borders the
    # interval up one site at a time, and the c of the restriction's mode
    # frame share one Cholesky similarity; the reference, the eigenvalues
    # of the nonsymmetric X_R P_R, shares no step with them
    model, region = case
    state = vacuum_state(model)
    start = region.sites[0]
    prefixes = [range(start, start + k) for k in range(1, len(region) + 1)]
    c = nested_spectra(state, prefixes)[-1]
    rc = restrict_correlators(state, region)
    c_modes = symplectic_spectrum(rc)
    assert c[0] >= 0.5 - 1e-10 and c_modes[0] >= 0.5 - 1e-10
    # below a gap of 1e-10 every route sits at the eps/gap level
    if c_modes[0] - 0.5 >= 1e-10:
        lam = scipy.linalg.eigvals(rc.X_R @ rc.P_R).real
        reference = entanglement_entropy(np.sqrt(np.clip(lam, 0.25, None)))
        for got in (c, c_modes):
            assert abs(entanglement_entropy(got) - reference) <= 1e-12 * reference


@st.composite
def chain_and_scan(draw):
    """A Dirichlet or periodic chain of 2-64 sites and a centered or
    fixed-start scan: unsorted lengths with gaps and duplicates, plus one
    length that covers the chain and one that does not fit (at times no
    row reaches the sweep)."""
    n = draw(st.integers(2, 64))
    boundary = draw(st.sampled_from(["dirichlet", "periodic"]))
    coupling = draw(st.floats(0.5, 2.0))
    mass = draw(st.floats(1e-3, 1.0)) * coupling**0.5
    start = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    lengths = draw(st.lists(st.integers(1, max(1, n - 1)), max_size=12))
    lengths = draw(st.permutations(lengths + lengths[:1] + [n, n + 1]))
    return build_harmonic_chain(n, mass, coupling, boundary), ScanConfig(tuple(lengths), start)


def expected_scan_error(n, length, start):
    """The error string of a scan row that never reaches a restriction."""
    start = (n - length) // 2 if start is None else start
    try:
        Region.interval(start, min(length, n - start))
    except errors.ModhamError as exc:
        return f"{type(exc).__name__}: {exc}"
    if start + length > n:
        return f"IndexOutOfRange: interval of length {length} does not fit at start {start}"
    if length >= n:
        return f"NotStandard: interval of length {length} covers the full lattice"
    return None


@settings(max_examples=100, deadline=None, derandomize=True)
@given(chain_and_scan())
def test_nested_sweep_matches_every_interval_on_its_own(case):
    # every row of the one bordered sweep against its own restriction and
    # mode frame; rows keep the configured order, duplicates included
    model, scan = case
    state = vacuum_state(model)
    n = state.n_sites
    rows, trace = _scan_rows(state, scan)
    assert [row["length"] for row in rows] == list(scan.lengths)
    for row in rows:
        length = row["length"]
        error = expected_scan_error(n, length, scan.start)
        if error is not None:
            assert row == {"length": length, "error": error}
            continue
        start = (n - length) // 2 if scan.start is None else scan.start
        c = symplectic_spectrum(restrict_correlators(state, Region.interval(start, length)))
        assert set(row) == {"length", "entropy", "c_min", "c_max"}
        if c[0] - 0.5 >= 1e-10:
            reference = entanglement_entropy(c)
            assert abs(row["entropy"] - reference) <= 1e-12 * reference
    fitting = [row["length"] for row in rows if "error" not in row]
    assert trace["window_sites"] == max(fitting, default=0)
    assert trace["error_rows"] == len(rows) - len(fitting)


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


@st.composite
def chain_and_proper_region(draw):
    """A Dirichlet or periodic chain of 4-48 sites and a random proper region;
    regions of more than half the chain are not separating."""
    n = draw(st.integers(4, 48))
    boundary = draw(st.sampled_from(["dirichlet", "periodic"]))
    mass = draw(st.floats(0.1, 2.0))
    sites = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    return build_harmonic_chain(n, mass, 1.0, boundary), Region(sites)


def dense_frame_reference(state, region):
    """The verdict and route-(a) ``I ln Delta`` in dense 2n x 2n phase space:
    one eigh of ``diag(X, P)``, the dense symmetrized ``A`` and its
    eigvalsh, and the dense lift.  Returns ``(min_abs, separating,
    trivial_dim, i_ln_delta)``; ``i_ln_delta`` is None when A has an
    eigenvalue in [-1, 1] on H_L."""
    n = state.n_sites
    x, p = state.X_full, state.P_full
    w, u = np.linalg.eigh(scipy.linalg.block_diag(x, p))
    sqrt, inv_sqrt = (u * np.sqrt(w)) @ u.T, (u / np.sqrt(w)) @ u.T
    zero = np.zeros((n, n))
    i_mat = np.block([[zero, -2.0 * p], [2.0 * x, zero]])
    p_cut = np.diag(region_mask(region, n).astype(float))
    a_sym = symmetrize(sqrt @ (np.eye(2 * n) - p_cut + i_mat @ p_cut @ i_mat) @ inv_sqrt)
    min_abs = float(np.min(np.abs(np.linalg.eigvalsh(a_sym))))
    basis = np.eye(2 * n)[:, phase_space_indices(region, n)]
    u_svd, s, _ = np.linalg.svd(sqrt @ np.hstack([basis, i_mat @ basis]))
    k = 4 * len(region)
    separating = k <= 2 * n and s[-1] / s[0] > 1e-10
    q = u_svd[:, :k if separating else int(np.sum(s > 1e-10 * s[0]))]
    eigs, vecs = np.linalg.eigh(symmetrize(q.T @ a_sym @ q))
    i_ln_delta = None
    if np.all(np.abs(eigs) > 1.0):
        ln_hl = (vecs * (2.0 * np.arctanh(1.0 / eigs))) @ vecs.T
        i_ln_delta = i_mat @ inv_sqrt @ q @ ln_hl @ q.T @ sqrt
    return min_abs, separating, 2 * n - q.shape[1], i_ln_delta


@settings(max_examples=60, deadline=None, derandomize=True)
@given(chain_and_proper_region())
def test_frame_matches_the_dense_reference(case):
    # the verdict reads A on H_L only, the frame diagonalizes X and P
    # separately and route (a) lifts through thin factors; the reference
    # does each step densely in phase space
    model, region = case
    state = vacuum_state(model)
    report, sub = _verdict(state, region)
    min_abs, separating, trivial_dim, i_ln_delta = dense_frame_reference(state, region)
    assert (report.is_separating, report.trivial_dim) == (separating, trivial_dim)
    assert type(report.is_separating) is bool and type(report.is_standard) is bool
    assert report.is_standard == (min_abs >= 1.0 - 1e-9 and separating)
    assert abs(report.min_abs_eigenvalue - min_abs) <= 1e-10
    # below a gap of 1e-6 both evaluations of arcoth sit at the eps/gap level
    if report.is_standard and minimal_gap(state, region) >= MIN_GAP:
        got = sub.lift(_spectral_lndelta(sub), times_i=True)
        assert rel_diff(got, i_ln_delta) <= 1e-10


@settings(max_examples=60, deadline=None, derandomize=True)
@given(chain_and_proper_region())
def test_a_on_h_l_has_twice_the_symplectic_spectrum(case):
    # the identity the verdict reads: the two-point function fixes A on H_L,
    # whose eigenvalues are +-2c over the restricted spectrum, each 2c four times
    model, region = case
    state = vacuum_state(model)
    report, sub = _verdict(state, region)
    if report.is_standard and minimal_gap(state, region) >= MIN_GAP:
        two_c = 2.0 * restrict_correlators(state, region).modes.c
        got = np.sort(np.abs(sub.eigs))
        assert np.max(np.abs(got - np.repeat(np.sort(two_c), 4))) <= 1e-12 * two_c.max()


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(chain_and_proper_region())
def test_tomita_algebra_with_trivial_directions(case):
    # S is f + I g -> f - I g on H_L and time reversal on its complement; the
    # algebra holds on the whole phase space at the tolerances of the n = 8
    # Tomita tests
    model, region = case
    state = vacuum_state(model)
    report = standardness_check(state, region)
    assume(report.is_standard and report.trivial_dim > 0)
    assume(minimal_gap(state, region) >= MIN_GAP)
    md = modular_data_full(state, region)
    n = state.n_sites
    eye, i_mat, gram = np.eye(2 * n), complex_structure(state), mu_gram(state)
    h = eye[:, phase_space_indices(region, n)]
    assert np.linalg.norm(md.S_op @ h - h) <= 1e-8 * np.linalg.norm(h)
    norm_s = np.linalg.norm(md.S_op)
    assert np.linalg.norm(md.S_op @ md.S_op - eye) <= 1e-7 * norm_s
    assert np.linalg.norm(md.S_op @ i_mat + i_mat @ md.S_op) <= 1e-7 * norm_s
    assert np.linalg.norm(md.J_op @ md.J_op - eye) <= 1e-8
    assert np.linalg.norm(md.J_op @ i_mat + i_mat @ md.J_op) <= 1e-7
    assert np.linalg.norm(md.J_op.T @ gram @ md.J_op - gram) <= 1e-8 * np.linalg.norm(gram)
    half = scipy.linalg.expm(0.5 * md.lnDelta)
    assert np.linalg.norm(md.S_op - md.J_op @ half) <= 1e-7 * norm_s


@settings(max_examples=40, deadline=None, derandomize=True)
@given(chain_and_region(min_mass=0.1), st.floats(1e-6, 1e-2))
def test_regularize_then_purify_round_trip(case, clip):
    # the crosscheck's clipped path: regularize the restriction, purify it,
    # and restrict the pure state back to the embedded region; the raw
    # restriction takes the same round trip, and both return bit for bit
    n, mass, region = case
    rc = restrict_correlators(vacuum_state(build_harmonic_chain(n, mass)), region)
    regularized, _ = regularize_correlators(rc, clip)
    assert regularized.X_R is rc.X_R
    assert regularized.modes.c[0] >= 0.5 + clip - 1e-12
    for restriction in (rc, regularized):
        back = restrict_correlators(*purify_restriction(restriction))
        assert np.array_equal(back.X_R, restriction.X_R)
        assert np.array_equal(back.P_R, restriction.P_R)


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
    # when the run aborts and names an exception the runner maps to its code:
    # exit 3 is every modham error but the exit-2 and exit-4 classes
    exit_2_or_4 = (errors.QuadratureNotConverged, errors.SchemaError)
    mapped = {
        EXIT_VALIDATION: lambda t: issubclass(t, errors.QuadratureNotConverged),
        EXIT_CONSTRUCTION: lambda t: (issubclass(t, errors.ModhamError)
                                      and not issubclass(t, exit_2_or_4)),
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
            assert mapped[code](getattr(errors, error["type"]))
        else:
            assert code in (EXIT_OK, EXIT_VALIDATION)

        # one schema violation exits 4 before anything runs
        broken = copy.deepcopy(config)
        SCHEMA_MUTATIONS[mutation](broken)
        code, out = _cli_run(broken, root, "broken")
        assert code == EXIT_IO
        assert not out.exists()


LOOSE_VALUES = st.one_of(
    st.integers(-3, 12), st.floats(-10.0, 10.0), st.booleans(), st.text(max_size=4),
    st.none(), st.sampled_from([np.nan, np.inf, -np.inf, np.int64(2), np.float64(1e-4)]),
)
PROBE_STATE = vacuum_state(build_harmonic_chain(12, 0.3))
PROBE_REGION = Region([5, 6])
PROBE_RC = restrict_correlators(PROBE_STATE, PROBE_REGION)
ENTRY_POINTS = {
    "site": lambda v: Region([v]),
    "sites": lambda v: Region([v, 1]),
    "region": Region,
    "start": lambda v: Region.interval(v, 2),
    "length": lambda v: Region.interval(2, v),
    "half": Region.half,
    "min_gap": lambda v: regularize_correlators(PROBE_RC, v),
    "clip": lambda v: run_kms_suite(PROBE_STATE, PROBE_REGION, clip=v),
    "quad_tol": lambda v: route_agreement(PROBE_STATE, PROBE_REGION, quad_tol=v),
    "sing_tol": lambda v: mn_kernels(PROBE_RC, sing_tol=v),
}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(ENTRY_POINTS)), LOOSE_VALUES)
def test_loose_inputs_return_or_raise_a_modham_error(entry, value):
    # an int, float, bool, string, None or NaN where a site, a start, a
    # length or a tolerance belongs either runs or is refused with a
    # ModhamError: nothing is coerced into a different request, and no
    # TypeError or ValueError escapes
    try:
        ENTRY_POINTS[entry](value)
    except errors.ModhamError:
        return
    if entry in ("site", "sites", "start", "length", "half"):
        assert isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    elif entry != "region" and not (entry == "clip" and value is None):  # None: no clip
        assert isinstance(value, (int, float, np.integer, np.floating))
        assert not isinstance(value, bool) and 0 < value < np.inf
