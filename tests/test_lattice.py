from dataclasses import FrozenInstanceError

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from modham import (
    DimensionMismatch,
    GaussianState,
    InvalidParameter,
    LatticeModel,
    NumericalError,
    ZeroModeError,
    build_harmonic_chain,
    vacuum_state,
)
from modham.lattice import Boundary, _eps_matrix, _laplacian, _mode_eigenvalues


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
        assert np.linalg.norm(state.I_mat @ state.I_mat + eye) <= 1e-10
        assert np.linalg.norm(4.0 * state.X_full @ state.P_full - np.eye(n)) <= 1e-10
        gram = state.mu_gram
        assert_allclose(gram, gram.T, atol=1e-14)
        assert np.linalg.eigvalsh(gram).min() > 0

    def test_complex_structure_matches_two_point_function(self, chain8):
        # eps I = 2 Re G with G = [[X, i/2], [-i/2, P]]
        _, state = chain8
        g = state.two_point_function()
        eps = _eps_matrix(8)
        assert_allclose(eps @ state.I_mat, 2.0 * g.real, atol=1e-12)
        assert_allclose(2.0 * g, eps @ state.I_mat + 1j * eps, atol=1e-12)

    def test_sigma_mu_invariance_as_matrices(self, chain8):
        _, state = chain8
        i_mat = state.I_mat
        assert np.linalg.norm(i_mat.T @ state.mu_gram @ i_mat - state.mu_gram) <= 1e-10
        half_eps = 0.5 * _eps_matrix(8)
        assert np.linalg.norm(i_mat.T @ half_eps @ i_mat - half_eps) <= 1e-10

    @pytest.mark.parametrize("n, mass", [
        (16, 1e-3), (16, 1e-2), (16, 1.0), (32, 1e-3), (32, 1e-2), (32, 1.0), (64, 1e-3),
    ])
    def test_closed_form_against_40_digit_sine_modes(self, n, mass):
        # X_ij = sum_k u_ik u_jk / (2 omega_k) and P_ij = sum_k u_ik u_jk omega_k / 2
        # over the Dirichlet sine modes u_ik = sqrt(2/(n+1)) sin(pi k (i+1)/(n+1)),
        # summed at 40 digits; the eigensolver route it replaced was off by up to 4e-14
        x_ref, p_ref = np.empty((n, n)), np.empty((n, n))
        with mpmath.workdps(40):
            size = n + 1
            omega = [mpmath.sqrt(mpmath.mpf(mass) ** 2
                                 + 4 * mpmath.sin(mpmath.pi * k / (2 * size)) ** 2)
                     for k in range(1, size)]
            modes = [[mpmath.sqrt(mpmath.mpf(2) / size) * mpmath.sin(mpmath.pi * k * i / size)
                      for k in range(1, size)] for i in range(1, size)]
            for i in range(n):
                for j in range(i + 1):
                    pairs = [a * b for a, b in zip(modes[i], modes[j])]
                    x_ref[i, j] = x_ref[j, i] = mpmath.fsum(
                        c / w for c, w in zip(pairs, omega)) / 2
                    p_ref[i, j] = p_ref[j, i] = mpmath.fsum(
                        c * w for c, w in zip(pairs, omega)) / 2
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
        # clamp 1e-14
        x = np.diag([0.5, small])
        p = np.diag([0.5, 0.25 / small])
        if swap:
            x, p = p, x
        if passes:
            assert GaussianState.from_correlators(x, p).n_sites == 2
        else:
            with pytest.raises(NumericalError, match="Gram"):
                GaussianState.from_correlators(x, p)

    def test_from_correlators_rejects_impure(self):
        with pytest.raises(InvalidParameter):
            GaussianState.from_correlators(np.eye(2), np.eye(2))


def sigma(f, g):
    """The symplectic form (1/2) f^T eps g of stacked 2n initial data."""
    return 0.5 * f.T @ _eps_matrix(f.shape[0] // 2) @ g


def mu(state, f, g):
    """The metric f^T diag(X, P) g of stacked 2n initial data."""
    return f.T @ state.mu_gram @ g


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
        i_mat = state.I_mat
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
    assert_allclose(state.mu_gram, 0.5 * _eps_matrix(8) @ state.I_mat, atol=1e-13)


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
