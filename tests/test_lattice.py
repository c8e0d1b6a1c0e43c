import tracemalloc
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import hankel, toeplitz

from modham import (
    DimensionMismatch,
    GaussianState,
    InvalidParameter,
    LatticeModel,
    ModhamError,
    NumericalError,
    ZeroModeError,
    build_harmonic_chain,
    vacuum_state,
)
from modham.kernels import nested_spectra
from modham.lattice import (
    Boundary,
    _check_mode_spectra,
    _eps_matrix,
    _block,
    _laplacian,
    _mode_eigenvalues,
    _purity,
    _symbol,
    _windows,
)

from dense_forms import complex_structure, mu_gram, two_point_function


def assert_spectral_checks_match_dense(model):
    # the vacuum's checks on the mode spectra v of its stored X and P equal
    # from_correlators' dense ones: purity to 1e-14, and min v the lowest
    # eigenvalue within the margin 8 log2(2n + 2) eps ||v|| the check allows
    n = model.n_sites
    omega = np.sqrt(_mode_eigenvalues(n, model.mass, model.coupling, model.boundary))
    (phi_x, v_x), (phi_p, v_p) = (_symbol(model, f) for f in (0.5 / omega, 0.5 * omega))
    x, p = (_block(_windows(model, phi), ...) for phi in (phi_x, phi_p))
    norm = np.linalg.norm
    dense = _purity(norm(4.0 * x @ p - np.eye(n)), norm(x), norm(p))
    assert abs(_check_mode_spectra(v_x, v_p) - dense) <= 1e-14
    for mat, v in ((x, v_x), (p, v_p)):
        margin = 8.0 * np.log2(2 * n + 2) * np.finfo(float).eps * norm(v)
        assert abs(v.min() - np.linalg.eigvalsh(mat)[0]) <= margin


class TestBuildChain:
    def test_single_site_dirichlet(self):
        model = build_harmonic_chain(1, 1.0, 1.0, "dirichlet")
        assert_allclose(model.dynamical_matrix, [[3.0]])

    def test_massless_dirichlet_laplacian(self):
        model = build_harmonic_chain(2, 0.0, 1.0, "dirichlet")
        assert_allclose(model.dynamical_matrix, [[2.0, -1.0], [-1.0, 2.0]])

    def test_periodic_massless_zero_mode(self):
        with pytest.raises(ZeroModeError):
            build_harmonic_chain(3, 0.0, 1.0, "periodic")

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameter):
            build_harmonic_chain(0, 1.0)
        with pytest.raises(InvalidParameter):
            build_harmonic_chain(4, 1.0, coupling=0.0)
        with pytest.raises(InvalidParameter):
            build_harmonic_chain(4, -1.0)
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(InvalidParameter):
                build_harmonic_chain(4, bad)
            with pytest.raises(InvalidParameter):
                build_harmonic_chain(4, 1.0, coupling=bad)
        # a mass or coupling that is not a real number fails before any comparison
        for args, name, bad in (((4, "1.0"), "mass", "'1.0'"), ((4, None), "mass", "None"),
                                ((4, 1j), "mass", "1j"), ((4, True), "mass", "True"),
                                ((4, 1.0, "2"), "coupling", "'2'"),
                                ((4, 1.0, False), "coupling", "False")):
            with pytest.raises(InvalidParameter) as info:
                build_harmonic_chain(*args)
            assert str(info.value) == f"{name} must be a real number, got {bad}"
        with pytest.raises(InvalidParameter, match="n_sites must be a positive integer"):
            build_harmonic_chain(True, 1.0)
        with pytest.raises(InvalidParameter,
                           match="boundary must be 'dirichlet' or 'periodic', got 'open'"):
            build_harmonic_chain(4, 1.0, boundary="open")

    def test_dirichlet_spectrum_closed_form(self):
        # eigenvalues of m^2 + 2k(1 - cos(j pi / (n+1))), j = 1..n
        n, m, k = 12, 0.7, 1.3
        model = build_harmonic_chain(n, m, k)
        got = np.sort(np.linalg.eigvalsh(model.dynamical_matrix))
        j = np.arange(1, n + 1)
        expected = np.sort(m**2 + 2.0 * k * (1.0 - np.cos(j * np.pi / (n + 1))))
        assert_allclose(got, expected, atol=1e-12)


class TestLatticeModel:
    def test_periodic_massless_zero_mode(self):
        with pytest.raises(ZeroModeError):
            LatticeModel(3, 0.0, 1.0, Boundary.PERIODIC)

    def test_equals_the_built_chain(self):
        model = LatticeModel(4, 1.0, 1.0, "periodic")
        built = build_harmonic_chain(4, 1.0, boundary="periodic")
        assert model == built and model.boundary is Boundary.PERIODIC
        mine, theirs = vacuum_state(model), vacuum_state(built)
        assert np.array_equal(mine.X_full, theirs.X_full)
        assert np.array_equal(mine.P_full, theirs.P_full)

    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_dynamical_matrix_is_derived_and_read_only(self, boundary):
        n, m, g = 5, 0.7, 1.3
        model = LatticeModel(n, m, g, boundary)
        expected = m**2 * np.eye(n) + g * _laplacian(n, boundary)
        assert np.array_equal(model.dynamical_matrix, expected)
        with pytest.raises(FrozenInstanceError):
            model.dynamical_matrix = expected
        with pytest.raises(ValueError):
            model.dynamical_matrix[0, 0] = 0.0


class TestVacuumState:
    def test_scalar_square_root(self):
        model = build_harmonic_chain(1, np.sqrt(2.0), 1.0)
        assert_allclose(model.dynamical_matrix, [[4.0]])
        state = vacuum_state(model)
        assert_allclose(state.X_full, [[0.25]])
        assert_allclose(state.P_full, [[1.0]])

    def test_purity_two_site_massless(self):
        # independent oracle: V = [[2,-1],[-1,2]] has eigenvectors (1,+-1)/sqrt(2)
        model = build_harmonic_chain(2, 0.0, 1.0)
        state = vacuum_state(model)
        u = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        w = np.array([1.0, 3.0])
        x_expected = 0.5 * (u * w**-0.5) @ u.T
        p_expected = 0.5 * (u * w**0.5) @ u.T
        assert_allclose(state.X_full, x_expected, atol=1e-14)
        assert_allclose(state.P_full, p_expected, atol=1e-14)
        assert np.linalg.norm(4.0 * state.X_full @ state.P_full - np.eye(2)) <= 1e-12

    @pytest.mark.parametrize("n,m", [(4, 1.0), (8, 0.1), (16, 2.0)])
    def test_state_invariants(self, n, m):
        state = vacuum_state(build_harmonic_chain(n, m))
        eye = np.eye(2 * n)
        i_mat = complex_structure(state)
        assert np.linalg.norm(i_mat @ i_mat + eye) <= 1e-10
        assert np.linalg.norm(4.0 * state.X_full @ state.P_full - np.eye(n)) <= 1e-10
        gram = mu_gram(state)
        assert_allclose(gram, gram.T, atol=1e-14)
        assert np.linalg.eigvalsh(gram).min() > 0

    def test_complex_structure_matches_two_point_function(self, chain8):
        # eps I = 2 Re G with G = [[X, i/2], [-i/2, P]]
        _, state = chain8
        g, i_mat = two_point_function(state), complex_structure(state)
        eps = _eps_matrix(8)
        assert_allclose(eps @ i_mat, 2.0 * g.real, atol=1e-12)
        assert_allclose(2.0 * g, eps @ i_mat + 1j * eps, atol=1e-12)

    def test_sigma_mu_invariance_as_matrices(self, chain8):
        _, state = chain8
        i_mat, gram = complex_structure(state), mu_gram(state)
        assert np.linalg.norm(i_mat.T @ gram @ i_mat - gram) <= 1e-10
        half_eps = 0.5 * _eps_matrix(8)
        assert np.linalg.norm(i_mat.T @ half_eps @ i_mat - half_eps) <= 1e-10

    @pytest.mark.parametrize("n, mass", [
        (16, 1e-3), (16, 1e-2), (16, 1.0), (32, 1e-3), (32, 1e-2), (32, 1.0), (64, 1e-3),
    ])
    def test_closed_form_against_40_digit_sine_modes(self, n, mass, sine_mode_correlators):
        # the eigensolver route the closed form replaced was off by up to 4e-14
        x_ref, p_ref = (np.array(m.tolist(), dtype=float)
                        for m in sine_mode_correlators(n, mass))
        state = vacuum_state(build_harmonic_chain(n, mass))
        assert np.linalg.norm(state.X_full - x_ref) <= 1e-15 * np.linalg.norm(x_ref)
        assert np.linalg.norm(state.P_full - p_ref) <= 1e-15 * np.linalg.norm(p_ref)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(1, 40), mass=st.one_of(st.just(0.0), st.floats(0.2, 3.0)),
           coupling=st.floats(0.1, 4.0), boundary=st.sampled_from(list(Boundary)))
    def test_closed_form_matches_dense_roots_of_v(self, n, mass, coupling, boundary):
        # against 0.5 V^{-+1/2} from a dense eigh of V; the masses keep V's
        # condition number, and with it the reference's error, small
        assume(not (mass == 0.0 and boundary is Boundary.PERIODIC))  # zero mode
        model = build_harmonic_chain(n, mass, coupling, boundary)
        state = vacuum_state(model)
        w, u = np.linalg.eigh(model.dynamical_matrix)
        for got, power in ((state.X_full, -0.5), (state.P_full, 0.5)):
            expected = 0.5 * (u * w**power) @ u.T
            assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)
            assert np.array_equal(got, got.T)
        assert_spectral_checks_match_dense(model)

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 1024])
    @pytest.mark.parametrize("mass, boundary", [
        (0.0, Boundary.DIRICHLET), (1e-3, Boundary.DIRICHLET), (1.0, Boundary.DIRICHLET),
        (1e-3, Boundary.PERIODIC), (1.0, Boundary.PERIODIC),
    ])
    def test_mode_spectra_checks_match_dense(self, n, mass, boundary):
        # periodic n <= 2 are the folded chains
        assert_spectral_checks_match_dense(build_harmonic_chain(n, mass, 1.0, boundary))

    def test_vacuum_builds_without_dense_checks(self, monkeypatch):
        # the spectral checks run once, with no Cholesky and no
        # from_correlators; the tracemalloc peak is X and P and O(n) more
        # (4 n^2 doubles with the dense checks)
        def refuse(*args, **kwargs):
            raise AssertionError("dense check on the vacuum path")

        purities = []
        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        monkeypatch.setattr(GaussianState, "from_correlators", refuse)
        monkeypatch.setattr("modham.lattice._check_mode_spectra",
                            lambda v_x, v_p: purities.append(_check_mode_spectra(v_x, v_p)))
        n = 1024
        model = build_harmonic_chain(n, 1e-3)
        tracemalloc.start()
        try:
            state = vacuum_state(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.X_full.shape == state.P_full.shape == (n, n)
        assert len(purities) == 1 and purities[0] <= 1e-15
        assert peak <= 0.05 * n * n * 8  # the symbols; 2.03 n^2 with dense X and P

    def test_vacuum_scan_stays_below_the_dense_pair(self):
        # the sweep of a 1024-site scan reads one 256-site window of X and P
        n = 1024
        model = build_harmonic_chain(n, 1e-3)
        tracemalloc.start()
        try:
            state = vacuum_state(model)
            starts = {length: (n - length) // 2 for length in range(8, 257)}
            spectra = nested_spectra(state, [range(start, start + length)
                                             for length, start in starts.items()])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not any(isinstance(c, Exception) for c in spectra)
        assert not {"X_full", "P_full"} & set(vars(state))
        assert peak <= 0.5 * n * n * 8  # 0.385 n^2 doubles; 2.381 n^2 with dense X and P

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 257])
    @pytest.mark.parametrize("mass", [1e-3, 1.0])
    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_gather_is_the_dense_block(self, n, mass, boundary):
        # periodic n <= 2 are the folded chains
        state = vacuum_state(build_harmonic_chain(n, mass, 1.0, boundary))
        dense = GaussianState(n, state.X_full, state.P_full)
        rng = np.random.default_rng(n)
        sites = np.sort(rng.choice(n, size=max(1, n // 3), replace=False))
        others = np.setdiff1d(np.arange(n), sites)
        grids = [(sites, sites), (sites[::-1], rng.permutation(sites)), (others, sites),
                 (sites[-1:], range(n)), ([], sites), (sites, [])]
        for rows, cols in grids:
            grid = np.ix_(rows, cols)
            expected = (state.X_full[grid], state.P_full[grid])
            for gathered in (state.gather(rows, cols), dense.gather(rows, cols)):
                assert all(np.array_equal(got, want) and got.shape == want.shape
                           for got, want in zip(gathered, expected))
        for gathering in (state, dense):  # numpy's bounds check, as on the dense pair
            with pytest.raises(IndexError):
                gathering.gather(sites, [n])

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 257])
    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_dense_form_is_toeplitz_minus_hankel(self, n, boundary):
        # the lazy X and P, byte for byte: phi(|i - j|) - phi(i + j + 2), or phi(|i - j|)
        model = build_harmonic_chain(n, 0.3, 1.0, boundary)
        state = vacuum_state(model)
        omega = np.sqrt(_mode_eigenvalues(n, model.mass, model.coupling, model.boundary))
        for mode_values, name in ((0.5 / omega, "X_full"), (0.5 * omega, "P_full")):
            phi, _ = _symbol(model, mode_values)
            expected = toeplitz(phi[:n])
            if boundary is Boundary.DIRICHLET:
                expected = expected - hankel(phi[2:n + 2], phi[n + 1:2 * n + 1])
            assert np.array_equal(getattr(state, name), expected)
            assert getattr(state, name) is getattr(state, name)  # built once

    def test_from_correlators_rejects_singular_gram(self):
        # pure (4 X P = 1) but X has an eigenvalue below the clamp
        x = np.diag([0.5, 1e-15])
        p = np.diag([0.5, 0.25e15])
        with pytest.raises(NumericalError, match="Gram"):
            GaussianState.from_correlators(x, p)

    @pytest.mark.parametrize("swap", [False, True], ids=["X", "P"])
    @pytest.mark.parametrize("small, passes", [(2e-14, True), (5e-15, False)])
    def test_gram_clamp_boundary(self, small, passes, swap):
        # pure pair with one eigenvalue of X (or P) on either side of the
        # clamp 1e-14, as matrices and as a vacuum's spectra (margin 2.3e-15)
        x = np.array([0.5, small])
        p = np.array([0.5, 0.25 / small])
        if swap:
            x, p = p, x
        if passes:
            assert GaussianState.from_correlators(np.diag(x), np.diag(p)).n_sites == 2
            assert _check_mode_spectra(x, p) <= 1e-15
        else:
            with pytest.raises(NumericalError, match="Gram"):
                GaussianState.from_correlators(np.diag(x), np.diag(p))
            with pytest.raises(NumericalError, match="Gram"):
                _check_mode_spectra(x, p)

    def test_from_correlators_rejects_impure(self):
        with pytest.raises(InvalidParameter):
            GaussianState.from_correlators(np.eye(2), np.eye(2))

    @pytest.mark.parametrize("x, p", [
        (np.eye(2), np.eye(2)),  # impure
        (np.eye(2) + np.triu(np.ones((2, 2)), 1), np.eye(2) / 4),  # asymmetric
        (np.diag([0.25, -0.25]), np.diag([1.0, -1.0])),  # indefinite Gram
        (np.diag([0.5, 1e-15]), np.diag([0.5, 0.25e15])),  # Gram below the clamp
        (np.diag([0.5, np.nan]), np.diag([0.5, 0.5])),  # not finite
        (np.eye(2, dtype=complex) / 2, np.eye(2) / 2),  # not real
        (np.eye(2) / 2, np.eye(3) / 2),  # unequal sizes
        (np.ones((2, 3)), np.ones((2, 3))),  # not square
    ], ids=["impure", "asymmetric", "indefinite", "clamp", "nan", "complex", "sizes", "square"])
    def test_constructor_refuses_as_from_correlators_does(self, x, p):
        # the bare constructor and from_correlators run one set of checks
        refusals = []
        for build in (lambda: GaussianState(2, x, p), lambda: GaussianState.from_correlators(x, p)):
            with pytest.raises(ModhamError) as info:
                build()
            refusals.append((type(info.value), str(info.value)))
        assert refusals[0] == refusals[1]


def sigma(f, g):
    """The symplectic form (1/2) f^T eps g of stacked 2n initial data."""
    return 0.5 * f.T @ _eps_matrix(f.shape[0] // 2) @ g


def mu(state, f, g):
    """The metric f^T diag(X, P) g of stacked 2n initial data."""
    return f.T @ mu_gram(state) @ g


class TestBilinearForms:
    def test_symplectic_unit_pair(self):
        f, g = np.eye(16)[0], np.eye(16)[8]
        assert sigma(f, g) == pytest.approx(0.5)
        assert sigma(g, f) == pytest.approx(-0.5)

    def test_symplectic_antisymmetry(self, rng):
        f, g = rng.standard_normal((2, 16))
        assert sigma(f, f) == pytest.approx(0.0, abs=1e-15)
        assert sigma(f, g) == pytest.approx(-sigma(g, f))

    def test_mu_single_site(self):
        state = vacuum_state(build_harmonic_chain(1, np.sqrt(2.0)))
        f = np.array([1.0, 0.0])
        assert mu(state, f, f) == pytest.approx(0.25)

    def test_mu_symmetry(self, chain8, rng):
        _, state = chain8
        f, g = rng.standard_normal((2, 16))
        assert mu(state, f, g) == pytest.approx(mu(state, g, f))

    def test_complex_structure_invariance_random(self, chain8, rng):
        # columns are 100 random pairs; I preserves sigma and mu, and
        # sigma(f, I g) = mu(f, g)
        _, state = chain8
        i_mat = complex_structure(state)
        f, g = rng.standard_normal((2, 16, 100))
        jf, jg = i_mat @ f, i_mat @ g
        scale = np.outer(np.linalg.norm(f, axis=0), np.linalg.norm(g, axis=0))
        assert np.all(np.abs(sigma(jf, jg) - sigma(f, g)) <= 1e-12 * scale)
        assert np.all(np.abs(mu(state, jf, jg) - mu(state, f, g)) <= 1e-10 * scale)
        assert np.all(np.abs(sigma(f, jg) - mu(state, f, g)) <= 1e-10 * scale)

    def test_cauchy_schwarz_bound(self, chain8_light, rng):
        _, state = chain8_light
        f, g = rng.standard_normal((2, 16, 100))
        bound = np.outer(np.diag(mu(state, f, f)), np.diag(mu(state, g, g)))
        assert np.all(sigma(f, g) ** 2 <= bound * (1.0 + 1e-12))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            GaussianState.from_correlators(np.eye(3), np.eye(4))
        with pytest.raises(DimensionMismatch):
            GaussianState.from_correlators(np.ones((2, 3)), np.ones((2, 3)))


class TestPeriodicBoundary:
    def test_periodic_laplacian_corners(self):
        model = build_harmonic_chain(4, 1.0, 1.0, "periodic")
        expected = np.array([
            [3.0, -1.0, 0.0, -1.0],
            [-1.0, 3.0, -1.0, 0.0],
            [0.0, -1.0, 3.0, -1.0],
            [-1.0, 0.0, -1.0, 3.0],
        ])
        assert_allclose(model.dynamical_matrix, expected)

    def test_periodic_spectrum_closed_form(self):
        # eigenvalues m^2 + 2k(1 - cos(2 pi j / n))
        n, m, k = 10, 0.5, 1.0
        model = build_harmonic_chain(n, m, k, "periodic")
        got = np.sort(np.linalg.eigvalsh(model.dynamical_matrix))
        j = np.arange(n)
        expected = np.sort(m**2 + 2.0 * k * (1.0 - np.cos(2.0 * np.pi * j / n)))
        assert_allclose(got, expected, atol=1e-12)

    def test_massive_periodic_vacuum(self):
        state = vacuum_state(build_harmonic_chain(6, 1.0, 1.0, "periodic"))
        assert np.linalg.norm(4.0 * state.X_full @ state.P_full - np.eye(6)) <= 1e-10

    def test_single_site_periodic_is_free(self):
        with pytest.raises(ZeroModeError):
            build_harmonic_chain(1, 0.0, 1.0, "periodic")


def test_mu_gram_from_symplectic_and_complex_structure(chain8):
    # the Gram matrix of mu is (1/2) eps I
    _, state = chain8
    assert_allclose(mu_gram(state), 0.5 * _eps_matrix(8) @ complex_structure(state),
                    atol=1e-13)


@pytest.mark.parametrize("boundary", list(Boundary))
@pytest.mark.parametrize("n", [1, 2, 3, 8, 64])
def test_zero_mode_guard_is_the_exact_lowest_eigenvalue(n, boundary):
    # the closed form covers the periodic fold at n <= 2 and the massless
    # periodic zero mode
    for mass, coupling in ((0.7, 1.3), (0.0, 1.0), (1e-3, 0.2)):
        v = mass**2 * np.eye(n) + coupling * _laplacian(n, boundary)
        w = np.linalg.eigvalsh(v)
        guard = _mode_eigenvalues(n, mass, coupling, boundary).min()
        assert guard == pytest.approx(w[0], rel=1e-12, abs=1e-14 * w[-1])
    with pytest.raises(ZeroModeError):
        build_harmonic_chain(n, 0.0, 1.0, Boundary.PERIODIC)
