from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose
from scipy.integrate import quad_vec
from scipy.linalg.lapack import dposv, dptsv

import modham
from modham import (
    IndexOutOfRange,
    NotStandard,
    QuadratureNotConverged,
    Region,
    SpectrumOutOfDomain,
    build_harmonic_chain,
    lndelta_resolvent_quadrature,
    minimal_gap,
    mn_kernels,
    modular_data_full,
    regularized_instance,
    restrict_correlators,
    route_agreement,
    standardness_check,
    vacuum_state,
)
from modham import subspace
from modham._linalg import rel_diff, symmetrize
from modham.regions import phase_space_indices, region_mask

from dense_forms import complex_structure, mu_gram


def _gram_cholesky(state):
    """The lower Cholesky factor L of the dense mu = diag(X, P), ``mu = L L^T``,
    independent of the frame's two block factors."""
    return np.linalg.cholesky(mu_gram(state))


def _to_frame(state, op):
    """``L^T op L^{-T}``: a mu-self-adjoint op becomes symmetric."""
    chol = _gram_cholesky(state)
    return scipy.linalg.solve_triangular(chol, (chol.T @ op).T, lower=True).T


def _symmetric_root_frame(state, region):
    """The frame as built before the Cholesky factors, the reference the frame
    reproduces: Gram^{+-1/2} from one eigh of the dense mu, the SVD of
    Gram^{1/2} [E_R, I E_R] and ``a_hl = q^T Gram^{1/2} A Gram^{-1/2} q`` with
    the dense A.  Returns ``a_hl`` and the lift
    ``op -> Gram^{-1/2} q op q^T Gram^{1/2}`` of a standard region."""
    w, u = np.linalg.eigh(mu_gram(state))
    root, inv_root = (u * np.sqrt(w)) @ u.T, (u / np.sqrt(w)) @ u.T
    units = np.eye(2 * state.n_sites)[:, phase_space_indices(region, state.n_sites)]
    i_mat = complex_structure(state)
    q = np.linalg.svd(root @ np.hstack([units, i_mat @ units]), full_matrices=False)[0]
    a_mat = np.eye(len(units)) - units @ units.T + i_mat @ units @ units.T @ i_mat
    a_hl = symmetrize(q.T @ root @ a_mat @ inv_root @ q)
    return a_hl, lambda op: inv_root @ q @ op @ q.T @ root


class TestCuttingProjection:
    # the cutting projection is the diagonal matrix of region_mask
    def test_single_site_of_two(self):
        assert_allclose(region_mask(Region([0]), 2), [True, False, True, False])

    def test_full_region_is_identity(self):
        assert_allclose(np.diag(region_mask(Region(range(3)), 3).astype(float)), np.eye(6))

    def test_idempotence_random_regions(self, rng):
        for _ in range(5):
            sites = rng.choice(10, size=rng.integers(1, 9), replace=False)
            p_cut = np.diag(region_mask(Region(sites), 10).astype(float))
            assert_allclose(p_cut @ p_cut, p_cut)

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            region_mask(Region([5]), 4)


class TestMuAdjoint:
    def test_cut_projection_adjoint(self, chain8, center_region):
        # the mu-adjoint Gram^{-1} P^T Gram of the cutting projection is -I P I
        _, state = chain8
        p_cut = np.diag(region_mask(center_region, 8).astype(float))
        i_mat = complex_structure(state)
        expected = -i_mat @ p_cut @ i_mat
        gram = mu_gram(state)
        assert np.linalg.norm(gram @ expected - p_cut.T @ gram) <= 1e-10


class TestStandardness:
    def test_full_region_not_standard(self, chain8):
        _, state = chain8
        report = standardness_check(state, Region(range(8)))
        assert not report.is_standard

    def test_empty_region_not_standard(self, chain8):
        _, state = chain8
        assert not standardness_check(state, Region([])).is_standard

    def test_half_chain_spectrum_bound(self, chain8_light):
        # the mu-spectrum magnitude never drops below 1 (up to 1e-9)
        _, state = chain8_light
        report = standardness_check(state, Region.half(8))
        assert report.min_abs_eigenvalue >= 1.0 - 1e-9

    def test_well_conditioned_region_is_standard(self, chain8, center_region):
        _, state = chain8
        report = standardness_check(state, center_region)
        assert report.is_standard and report.is_separating
        assert report.min_abs_eigenvalue >= 1.0 - 1e-9
        assert report.trivial_dim == 2 * 8 - 4 * 2

    def test_oversized_region_not_separating(self, chain8):
        _, state = chain8
        report = standardness_check(state, Region(range(6)))
        assert not report.is_separating and not report.is_standard


@pytest.fixture(scope="module")
def data8():
    state = vacuum_state(build_harmonic_chain(8, 1.0))
    return state, modular_data_full(state, Region([3, 4]))


class TestModularData:
    def test_a_operator_structure(self, data8):
        state, md = data8
        gram = mu_gram(state)
        # mu-self-adjoint and spectrum outside (-1, 1)
        assert np.linalg.norm(gram @ md.A - md.A.T @ gram) <= 1e-10
        sym = scipy.linalg.sqrtm(gram).real
        eigs = np.linalg.eigvalsh(sym @ md.A @ np.linalg.inv(sym))
        assert np.min(np.abs(eigs)) >= 1.0 - 1e-9

    def test_s_fixes_region_vectors(self, data8, rng):
        state, md = data8
        mask = region_mask(md.region, 8)
        h = rng.standard_normal((16, 10)) * mask[:, None]
        assert np.linalg.norm(md.S_op @ h - h) <= 1e-8 * np.linalg.norm(h)

    def test_tomita_algebra(self, data8):
        state, md = data8
        eye = np.eye(16)
        i_mat = complex_structure(state)
        norm_s = np.linalg.norm(md.S_op)
        assert np.linalg.norm(md.S_op @ md.S_op - eye) <= 1e-7 * norm_s
        assert np.linalg.norm(md.S_op @ i_mat + i_mat @ md.S_op) <= 1e-7 * norm_s
        assert np.linalg.norm(md.J_op @ md.J_op - eye) <= 1e-8
        assert np.linalg.norm(md.J_op @ i_mat + i_mat @ md.J_op) <= 1e-7
        gram = mu_gram(state)
        assert np.linalg.norm(md.J_op.T @ gram @ md.J_op - gram) <= 1e-8 * np.linalg.norm(gram)

    def test_polar_decomposition(self, data8):
        _, md = data8
        half = scipy.linalg.expm(0.5 * md.lnDelta)
        assert np.linalg.norm(md.S_op - md.J_op @ half) <= 1e-7 * np.linalg.norm(md.S_op)

    def test_lndelta_mu_self_adjoint(self, data8):
        state, md = data8
        gram = mu_gram(state)
        scale = np.linalg.norm(gram) * max(np.linalg.norm(md.lnDelta), 1.0)
        assert np.linalg.norm(gram @ md.lnDelta - md.lnDelta.T @ gram) <= 1e-9 * scale

    def test_delta_positive_and_consistent(self, data8):
        state, md = data8
        sym = scipy.linalg.sqrtm(mu_gram(state)).real
        eigs = np.linalg.eigvalsh(sym @ md.Delta @ np.linalg.inv(sym))
        assert eigs.min() > 0
        assert md.consistency_residual <= 1e-8

    def test_reconstruction_identity(self, data8):
        # A (1 - Delta) = -(1 + Delta) on H_L
        state, md = data8
        eye = np.eye(16)
        resid = (md.A @ (eye - md.Delta) + (eye + md.Delta)) @ md.projector
        assert np.linalg.norm(resid) <= 1e-7 * np.linalg.norm(md.A)

    def test_degenerate_region_raises(self):
        state = vacuum_state(build_harmonic_chain(16, 1.0))
        with pytest.raises((NotStandard, SpectrumOutOfDomain)):
            modular_data_full(state, Region.half(16))

    def test_empty_and_full_raise(self, chain8):
        _, state = chain8
        with pytest.raises(NotStandard):
            modular_data_full(state, Region([]))
        with pytest.raises(NotStandard):
            modular_data_full(state, Region(range(8)))


def _tanh_trapezoid(integrand, quad_tol):
    """Route (c)'s rule on the sech^2-weighted ``integrand(t)``, for the tests:
    ``h (f(0) / 2 + sum_k f(k h))``, h halving from 1 until two sums differ by
    at most ``quad_tol``, each sweep ending past t = 1 at its first term with
    ``h ||f|| < 1e-3 quad_tol``.  Returns the integral, the last difference
    and the number of evaluations."""
    values = [integrand(0.0)]

    def sweep(h, stride):
        total, k = 0.0, 1
        while True:
            values.append(integrand(k * h))
            total = total + h * values[-1]
            if k * h > 1.0 and h * np.linalg.norm(values[-1]) < 1e-3 * quad_tol:
                return total
            k += stride

    h, integral, err = 1.0, 0.5 * values[0] + sweep(1.0, 1), np.inf
    while err > quad_tol:
        h /= 2
        finer = 0.5 * integral + sweep(h, 2)
        err, integral = np.linalg.norm(finer - integral), finer
    return integral, err, len(values)


def _sech_sq(t):
    return 1.0 / np.cosh(t) ** 2


def _arcoth_at_40_digits(a_hl):
    """``2 arcoth(a_hl)`` from an eigendecomposition at 40 digits of the same
    double ``a_hl``: the reference of the double rules at gaps where two
    double evaluations differ by their rounding."""
    with mpmath.workdps(40):
        w, v = mpmath.eigsy(mpmath.matrix(a_hl.tolist()))
        f = mpmath.diag([2 * mpmath.acoth(x) for x in w])
        return np.array((v * f * v.T).tolist(), dtype=float)


class TestResolventQuadrature:
    def test_scalar_toy_closed_form(self):
        # 2 A (A^2 - s^2)^{-1} integrated over [0, 1] equals 2 arcoth(A), on
        # eigenvalues of either sign at gaps |a| - 1 from 2 down to 1e-4
        eigs = np.array([2.0, -3.0, 1.5, 1.0 + 1e-4])
        frame = SimpleNamespace(a_hl=np.diag(eigs))
        integral, err, _ = subspace._resolvent_quadrature(frame, 1e-10)
        assert_allclose(integral, np.diag(np.log((eigs + 1.0) / (eigs - 1.0))), atol=1e-10)
        assert err <= 1e-10

    def test_agrees_with_spectral_route(self, chain8, center_region):
        _, state = chain8
        md = modular_data_full(state, center_region)
        quad = lndelta_resolvent_quadrature(state, center_region, quad_tol=1e-10)
        assert np.linalg.norm(quad.lnDelta - md.lnDelta) <= 1e-8 * np.linalg.norm(md.lnDelta)
        assert quad.error_bound <= 1e-10

    def test_agrees_on_purified_half(self):
        state = vacuum_state(build_harmonic_chain(16, 0.1))
        pure, region, _ = regularized_instance(state, Region.half(16), 1e-6)
        md = modular_data_full(pure, region)
        quad = lndelta_resolvent_quadrature(pure, region, quad_tol=1e-10)
        assert np.linalg.norm(quad.lnDelta - md.lnDelta) <= 1e-8 * np.linalg.norm(md.lnDelta)

    def test_empty_region_raises(self, chain8):
        _, state = chain8
        with pytest.raises(NotStandard):
            lndelta_resolvent_quadrature(state, Region([]))

    @pytest.mark.parametrize(
        "n, sites",
        [(20, [8, 9, 10]), (24, [5, 6, 15, 16])],
        ids=["interval3", "two_intervals"],
    )
    def test_reduced_basis_matches_full_space_integrand(self, n, sites):
        # the full-space integrand in s = tanh t, as the route's,
        # sech^2 t proj ((A^2 - 1) + sech^2 t)^-1 2 proj A proj, solved with
        # 2n x 2n systems, against the route's solves in the H_L basis
        quad_tol = 1e-10
        state = vacuum_state(build_harmonic_chain(n, 0.5))
        region = Region(sites)
        sub = subspace._require_standard(state, region)
        a_sym = symmetrize(_to_frame(state, sub.A))
        eye = np.eye(2 * n)
        a_sq_m1 = symmetrize(a_sym @ a_sym) - eye
        proj = sub.q_basis @ sub.q_basis.T
        numerator = 2.0 * proj @ a_sym @ proj

        def full_integrand(t):
            shift = _sech_sq(t)
            return shift * proj @ np.linalg.solve(a_sq_m1 + shift * eye, numerator)

        full, full_err, full_evals = _tanh_trapezoid(full_integrand, quad_tol)
        quad = lndelta_resolvent_quadrature(state, region, quad_tol=quad_tol)
        assert sub.q_basis.shape[1] == 4 * len(region)
        assert quad.n_evals == full_evals
        assert np.linalg.norm(_to_frame(state, quad.lnDelta) - full) <= 10 * quad_tol
        assert max(quad.error_bound, full_err) <= quad_tol

    @pytest.mark.parametrize("clip", [1e-2, 1e-4, 1e-6, 1e-8, 1e-9])
    @pytest.mark.parametrize("mass", [0.1, 0.5])
    def test_tanh_rule_matches_plain_rule_in_fewer_evaluations(self, mass, clip):
        # the plain integrand 2 A (A^2 - s^2)^-1 over s, built here only and
        # integrated by scipy's adaptive Gauss-Kronrod quad_vec, against the
        # route's tanh rule on purified halves with gaps down to 1e-9
        quad_tol = 1e-10
        state = vacuum_state(build_harmonic_chain(8, mass))
        pure, region, _ = regularized_instance(state, Region.half(8), clip)
        sub = subspace._require_standard(pure, region)
        a_hl = sub.a_hl
        a_sq = symmetrize(a_hl @ a_hl)
        eye = np.eye(a_hl.shape[0])

        def plain(s):
            return np.linalg.solve(a_sq - s * s * eye, 2.0 * a_hl)

        # the relative target keeps quad_vec's estimate off the plain
        # integrand's rounding floor at gap 1e-9 (with epsabs alone it
        # stalls after 4.4e6 evaluations at m = 0.1)
        plain_hl, _, info = quad_vec(plain, 0.0, 1.0, epsabs=quad_tol, epsrel=1e-11,
                                     full_output=True)
        tanh_hl, tanh_err, tanh_evals = subspace._resolvent_quadrature(sub, quad_tol)
        spectral_hl = subspace._spectral_lndelta(sub)
        assert info.success and tanh_err <= quad_tol
        if clip >= 1e-6:
            assert rel_diff(tanh_hl, plain_hl) <= 1e-10
        else:
            # at gaps of 1e-8 and below both rules sit on the rounding floor
            # of A^2 - 1 (1e-10 to 1e-9 from 2 arcoth at 40 digits), so the
            # tanh rule is judged against that value, as close as the plain rule
            exact = _arcoth_at_40_digits(a_hl)
            assert rel_diff(tanh_hl, exact) <= min(1e-9, 1.25 * rel_diff(plain_hl, exact))
        assert rel_diff(tanh_hl, spectral_hl) <= 1e-7
        assert rel_diff(plain_hl, spectral_hl) <= 1e-7
        assert tanh_evals < info.neval

        # the crosscheck's region columns are those of the public full integral
        root_r = sub.root_q[sub.sel].T
        cols, cols_err, _ = subspace._resolvent_quadrature(sub, quad_tol, columns=root_r)
        full = lndelta_resolvent_quadrature(pure, region, quad_tol=quad_tol).lnDelta
        full_cols = sub.q_basis.T @ _gram_cholesky(pure).T @ full[:, sub.sel]
        assert cols_err <= quad_tol
        assert np.linalg.norm(cols - full_cols) <= 10 * quad_tol

    @pytest.mark.parametrize("clip", [1e-2, 1e-4, 1e-6, 1e-8, 1e-9])
    @pytest.mark.parametrize("mass", [0.1, 0.5])
    def test_tridiagonal_solves_match_dense_cholesky(self, monkeypatch, mass, clip):
        # the integrand without the Householder reduction, one dense Cholesky
        # solve of (A^2 - 1) + sech^2 t per node, on the purified halves of the
        # plain-rule test, compared node for node with the route's tridiagonal
        # solves lifted by Q; both for the full H_L integral and for the
        # crosscheck's region columns
        quad_tol = 1e-10
        state = vacuum_state(build_harmonic_chain(8, mass))
        pure, region, _ = regularized_instance(state, Region.half(8), clip)
        sub = subspace._require_standard(pure, region)
        a_hl = sub.a_hl
        eye = np.eye(a_hl.shape[0])
        a_sq_m1 = symmetrize(a_hl @ a_hl) - eye
        _, q = scipy.linalg.hessenberg(a_sq_m1, calc_q=True)
        tridiagonal = []

        def recorded(*args):
            out = dptsv(*args)
            tridiagonal.append(q @ out[2])
            return out

        monkeypatch.setattr(subspace, "dptsv", recorded)
        exact = _arcoth_at_40_digits(a_hl) if clip < 1e-6 else None
        for columns in (None, sub.root_q[sub.sel].T):
            rhs = 2.0 * (a_hl if columns is None else a_hl @ columns)
            dense = []

            def weighted(t, rhs=rhs):
                _, sol, info = dposv(a_sq_m1 + _sech_sq(t) * eye, rhs)
                assert info == 0
                dense.append(sol)
                return _sech_sq(t) * sol

            tridiagonal.clear()
            ref, _, ref_evals = _tanh_trapezoid(weighted, quad_tol)
            got, err, evals = subspace._resolvent_quadrature(sub, quad_tol, columns=columns)
            assert err <= quad_tol and evals == len(tridiagonal)
            # two backward-stable solves differ by rounding times the
            # condition number of (A^2 - 1) + sech^2 t, which grows like 1/gap;
            # both rules visit the same nodes, one of them perhaps at one more h
            assert max(map(rel_diff, tridiagonal, dense)) <= 1e-16 / clip
            if clip >= 1e-6:
                assert evals == ref_evals
                assert rel_diff(got, ref) <= 1e-12
                continue
            # at gaps of 1e-8 and below the measured h vs h/2 difference of
            # either sum stops on rounding, so the step where it stops and the
            # sums' 1e-10 agreement are not resolved; both are judged against
            # 2 arcoth of the same a_hl at 40 digits, the route as close as the
            # dense reference, and within 1e-9 for the whole ln Delta on H_L
            if columns is None:
                assert rel_diff(got, exact) <= min(1e-9, 1.25 * rel_diff(ref, exact))
            else:
                assert rel_diff(got, exact @ columns) <= 1.25 * rel_diff(ref, exact @ columns)

    @pytest.mark.parametrize("mass", [0.1, 0.5, 1.0])
    def test_routes_against_the_exact_block(self, mass, exact_block):
        # the three routes of the crosscheck on the purified 8-site half at
        # clip 1e-9, judged against the block route at 60 digits on the same
        # double X_R, P_R; measured: (b) 3.3e-9, 2.5e-9, 6.7e-10, (a) 1.1e-8,
        # 6.0e-9, 3.2e-8, (c) 6.1e-9, 1.2e-8, 3.2e-8 for m = 0.1, 0.5, 1
        state = vacuum_state(build_harmonic_chain(8, mass))
        pure, region, _ = regularized_instance(state, Region.half(8), 1e-9)
        rc = restrict_correlators(pure, region)
        exact = exact_block(rc.X_R, rc.P_R)
        sub = subspace._require_standard(pure, region)
        grid = np.ix_(sub.sel, sub.sel)
        spectral = sub.lift(subspace._spectral_lndelta(sub), times_i=True)[grid]
        cols, _, _ = subspace._resolvent_quadrature(sub, 1e-10, columns=sub.root_q[sub.sel].T)
        assert rel_diff(mn_kernels(rc).L_block, exact) <= 1e-8
        assert rel_diff(spectral, exact) <= 1e-7
        assert rel_diff(sub.i_inv_root_q[sub.sel] @ cols, exact) <= 1e-7

    def test_no_spectral_step(self, monkeypatch):
        # route (c) certifies route (a), which takes eigh of a_hl: with every
        # eigensolver and the SVD patched to raise, the quadrature still runs
        # and returns the same floats
        state = vacuum_state(build_harmonic_chain(64, 0.3))
        pure, region, _ = regularized_instance(state, Region.half(64), 1e-4)
        sub = subspace._require_standard(pure, region)
        columns = sub.root_q[sub.sel].T
        expected = subspace._resolvent_quadrature(sub, 1e-10, columns=columns)

        def forbidden(*args, **kwargs):
            raise AssertionError("route (c) called a spectral routine")

        for module, name in [(np.linalg, "eig"), (np.linalg, "eigh"), (np.linalg, "eigvalsh"),
                             (np.linalg, "svd"), (scipy.linalg, "eigh")]:
            monkeypatch.setattr(module, name, forbidden)
        got = subspace._resolvent_quadrature(sub, 1e-10, columns=columns)
        assert np.array_equal(got[0], expected[0])
        assert got[1:] == expected[1:] and got[2] == 164

    def test_evaluation_cap(self, monkeypatch):
        # the cap stops the rule mid-sweep and reports the last measured
        # difference, which has not reached the tolerance
        state = vacuum_state(build_harmonic_chain(8, 0.5))
        sub = subspace._require_standard(state, Region.interval(3, 2))
        full = subspace._resolvent_quadrature(sub, 1e-10)
        monkeypatch.setattr(subspace, "MAX_QUAD_EVALS", full[2] - 10)
        with pytest.raises(QuadratureNotConverged) as info:
            subspace._resolvent_quadrature(sub, 1e-10)
        assert 1e-10 < info.value.achieved_error < np.inf
        assert str(info.value) == (f"quadrature error {info.value.achieved_error:.3e} above "
                                   f"tolerance 1.000e-10 after {full[2] - 10} evaluations")


def test_route_agreement_builds_one_frame(monkeypatch, chain8, center_region):
    _, state = chain8
    builds = []

    class CountingFrame(subspace._SubspaceFrame):
        def __init__(self, *args):
            builds.append(args)
            super().__init__(*args)

    monkeypatch.setattr(subspace, "_SubspaceFrame", CountingFrame)
    agreement = route_agreement(state, center_region)
    assert len(builds) == 1
    assert agreement.spectral_vs_quadrature <= 1e-10


def test_frame_decomposes_a_hl_once(monkeypatch):
    # the verdict, route (a) and Delta^{-1/2} read the frame's one eigh of the
    # 12 x 12 a_hl, and the Tomita operator its SVD factor instead of a pinv;
    # on the trivial directions S is time reversal, with no second SVD and no
    # Schur pairing
    state = vacuum_state(build_harmonic_chain(64, 0.3))
    region = Region.interval(30, 3)
    calls = []
    for module, name in [(np.linalg, "eigh"), (np.linalg, "eigvalsh"), (np.linalg, "pinv"),
                         (np.linalg, "svd"), (scipy.linalg, "schur")]:
        def recorded(a, *args, _name=name, _original=getattr(module, name), **kwargs):
            calls.append((_name, a.shape))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(module, name, recorded)
    route_agreement(state, region)
    assert [call for call in calls if call[1] == (12, 12)] == [("eigh", (12, 12))]
    calls.clear()
    modular_data_full(state, region)
    assert [call for call in calls if call[1] == (12, 12)] == [("eigh", (12, 12))]
    assert [call for call in calls if call[0] in ("svd", "schur", "pinv")] == [("svd", (128, 12))]


@pytest.mark.parametrize(
    "region, clip, cap",
    [(Region.half(64), 1e-4, 170), (Region.interval(30, 3), None, 170)],
    ids=["clipped_half", "centered3"],
)
def test_route_agreement_evaluation_count_is_pinned(region, clip, cap):
    # solves are deterministic: the tanh rule takes 164 and 161 here, the
    # graded Gauss-Kronrod panels took 345 and 285, the plain s-rule 675 and 615
    state = vacuum_state(build_harmonic_chain(64, 0.3))
    if clip is not None:
        state, region, _ = regularized_instance(state, region, clip)
    assert route_agreement(state, region).quad_evals <= cap


def test_certify_configurations_take_at_most_648_solves():
    # route (c) on the benchmark's four certify configurations: 161, 140, 164
    # and 161 solves, 626 in all, where the Gauss-Kronrod panels took 285,
    # 165, 345 and 285 (1080); the bound is 60% of that
    small, large = (vacuum_state(build_harmonic_chain(n, 0.3)) for n in (64, 128))
    half = regularized_instance(small, Region.half(64), 1e-4)[:2]
    cases = [((small, Region.interval(30, 3)), 285), ((large, Region.interval(62, 3)), 285),
             ((small, Region([29, 30, 33, 34])), 165), (half, 345)]
    counts = [route_agreement(*case).quad_evals for case, _ in cases]
    assert all(count < before for count, (_, before) in zip(counts, cases))
    assert sum(counts) <= 648


def test_absolute_tolerance_converges_on_a_large_generator():
    # the purified 16-site half at gap 2e-9, where ||ln Delta|| is about 95:
    # the Gauss-Kronrod panels stalled at 3.7e-10 > quad_tol 1e-10 after
    # 200 025 evaluations; the tanh rule converges in 785 solves
    state = vacuum_state(build_harmonic_chain(16, 0.1))
    pure, region, _ = regularized_instance(state, Region.half(16), 2e-9)
    agreement = route_agreement(pure, region, quad_tol=1e-10)
    assert agreement.quad_error_bound <= 1e-10
    assert agreement.quad_evals <= 1000
    assert agreement.spectral_vs_quadrature <= 1e-7
    assert agreement.blocks_vs_quadrature <= 1e-7


def test_kernel_route_is_measured_not_copied():
    # the two-point-kernel route diagonalizes 2 eps G + i on its own, so its
    # residual against the block route is a rounding-level number, never 0
    state = vacuum_state(build_harmonic_chain(64, 0.3))
    agreement = route_agreement(state, Region.interval(30, 3))
    assert 0.0 < agreement.kernel_vs_blocks <= 1e-7


def _arccot_split(state, region):
    # the crosscheck's split with the region block of mn_kernels at its default sing_tol
    rc = restrict_correlators(state, region)
    return subspace._arccot_split(subspace._require_standard(state, region), rc,
                                  mn_kernels(rc).L_block)


class TestArccotSplit:
    def test_matches_full_space_product(self, chain8, center_region):
        _, state = chain8
        md = modular_data_full(state, center_region)
        split = _arccot_split(state, center_region)
        full = complex_structure(state) @ md.lnDelta
        assert np.linalg.norm(split - full) <= 1e-8 * np.linalg.norm(full)

    def test_off_blocks_vanish(self, chain8, center_region):
        # I ln Delta leaves both the region and its complement invariant
        _, state = chain8
        md = modular_data_full(state, center_region)
        full = complex_structure(state) @ md.lnDelta
        mask = region_mask(center_region, 8)
        off = full[np.ix_(mask, ~mask)]
        off2 = full[np.ix_(~mask, mask)]
        assert max(np.abs(off).max(), np.abs(off2).max()) <= 1e-9

    def test_mirror_antisymmetry_on_true_half(self):
        # even chain, true half: the complement block is the spatial mirror
        # of the region block with opposite overall sign
        n = 4
        state = vacuum_state(build_harmonic_chain(n, 0.1))
        region = Region.half(n)
        assert minimal_gap(state, region) > 1e-7
        split = _arccot_split(state, region)
        sel_r = phase_space_indices(region, n)
        sel_c = phase_space_indices(region.complement(n), n)
        blk_r = split[np.ix_(sel_r, sel_r)]
        blk_c = split[np.ix_(sel_c, sel_c)]
        r = n // 2
        mirror = np.zeros((2 * r, 2 * r))
        flip = np.eye(r)[::-1]
        mirror[:r, :r] = flip
        mirror[r:, r:] = flip
        assert np.linalg.norm(blk_c + mirror @ blk_r @ mirror) <= 1e-8 * np.linalg.norm(blk_r)

    def test_purified_half_matches(self):
        state = vacuum_state(build_harmonic_chain(16, 1.0))
        pure, region, _ = regularized_instance(state, Region.half(16), 1e-6)
        md = modular_data_full(pure, region)
        split = _arccot_split(pure, region)
        full = complex_structure(pure) @ md.lnDelta
        assert np.linalg.norm(split - full) <= 1e-7 * np.linalg.norm(full)

    def test_region_block_equals_mn(self, chain8, center_region):
        _, state = chain8
        split = _arccot_split(state, center_region)
        kernels = mn_kernels(restrict_correlators(state, center_region))
        sel = phase_space_indices(center_region, 8)
        blk = split[np.ix_(sel, sel)]
        assert np.linalg.norm(blk - kernels.L_block) <= 1e-7 * np.linalg.norm(kernels.L_block)

    @pytest.mark.parametrize("n, mass, length, bound", [
        (24, 0.1, 5, 5e-10),  # gap 1.0e-7
        (32, 0.05, 6, 5e-10),  # gap 1.3e-8
        (32, 0.05, 7, 5e-8),  # gap 9.2e-11, below the default sing_tol
    ])
    def test_complement_block_against_40_digit_reference(self, n, mass, length, bound,
                                                         sine_mode_correlators, exact_block):
        # the reference restricts the complement at 40 digits and takes its own
        # Williamson frame, with f on the modes with c - 1/2 > 1e-25 (the rest
        # carry ln Delta = 0); the complement block is minus the block formula
        state = vacuum_state(build_harmonic_chain(n, mass))
        region = Region.interval((n - length) // 2, length)
        comp = region.complement(n).sites
        rc = restrict_correlators(state, region)
        block = mn_kernels(rc, sing_tol=1e-11).L_block
        split = subspace._arccot_split(subspace._require_standard(state, region), rc, block)
        x, p = sine_mode_correlators(n, mass)
        x_c, p_c = ([[m[i, j] for j in comp] for i in comp] for m in (x, p))
        ref = -exact_block(x_c, p_c, dps=40, floor=1e-25)
        sel = phase_space_indices(region.complement(n), n)
        got = split[np.ix_(sel, sel)]
        assert np.linalg.norm(got - ref) <= bound * np.linalg.norm(ref)

    def test_route_agreement_at_a_gap_between_sing_tol_and_1e_9(self):
        # the split takes the region block of the kernels, at sing_tol, and the
        # complement needs no threshold of its own
        state = vacuum_state(build_harmonic_chain(64, 0.05))
        region = Region(range(29, 36))
        assert 1e-10 < minimal_gap(state, region) < 1e-9
        agreement = route_agreement(state, region, quad_tol=1e-8)
        assert agreement.max_residual <= 1e-7


TRIVIAL_DIRECTIONS = pytest.mark.parametrize(
    "n, boundary, sites",
    [(64, "dirichlet", range(30, 33)), (24, "dirichlet", [5, 6, 15, 16]),
     (32, "periodic", range(10, 14))],
    ids=["interval", "two_intervals", "periodic"],
)


@TRIVIAL_DIRECTIONS
def test_frame_reads_frame_cond_and_a_off_the_two_point_function(monkeypatch, n, boundary, sites):
    # frame_cond is s_max / s_min of L^T [E_R, I E_R], mu = L L^T, with no
    # n x n eigh; A from the gathered columns P[:, R], X[:, R] is the dense
    # 1 - P + I P I; root_q and inv_root_q are L q and L^{-T} q, and
    # i_inv_root_q is I L^{-T} q
    state = vacuum_state(build_harmonic_chain(n, 0.3, 1.0, boundary))
    region = Region(sites)
    units = np.eye(2 * n)[:, phase_space_indices(region, n)]
    i_mat = complex_structure(state)
    s = np.linalg.svd(_gram_cholesky(state).T @ np.hstack([units, i_mat @ units]),
                      compute_uv=False)
    original = np.linalg.eigh
    shapes = []

    def counted(a, *args, **kwargs):
        shapes.append(a.shape)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    sub = subspace._require_standard(state, region)
    assert shapes == [(4 * len(region),) * 2]
    assert sub.frame_cond == pytest.approx(float(s[0] / s[-1]), rel=1e-10)
    p_cut = np.diag(region_mask(region, n).astype(float))
    assert rel_diff(sub.A, np.eye(2 * n) - p_cut + i_mat @ p_cut @ i_mat) <= 1e-13
    assert_allclose(sub.root_q, mu_gram(state) @ sub.inv_root_q, atol=1e-12)
    assert_allclose(sub.i_inv_root_q, i_mat @ sub.inv_root_q, atol=1e-12)
    assert_allclose(sub.inv_root_q.T @ sub.root_q, np.eye(sub.q_basis.shape[1]), atol=1e-12)


def _purified_half():
    state = vacuum_state(build_harmonic_chain(16, 0.1))
    return regularized_instance(state, Region.half(16), 1e-6)[:2]


@pytest.mark.parametrize("instance", [
    lambda: (vacuum_state(build_harmonic_chain(64, 0.3)), Region(range(30, 33))),
    lambda: (vacuum_state(build_harmonic_chain(24, 0.3)), Region([5, 6, 15, 16])),
    lambda: (vacuum_state(build_harmonic_chain(32, 0.3, 1.0, "periodic")), Region(range(10, 14))),
    _purified_half,
], ids=["raw", "two_intervals", "periodic", "purified"])
def test_cholesky_frame_reproduces_the_symmetric_root_frame(instance):
    # any F with F^T F = mu gives the same H_L coordinates: the Cholesky frame
    # and the symmetric-root frame have the same |eig a_hl|, lift ln_hl to the
    # same ln Delta and give the same projector onto H_L; measured at most
    # 3.8e-15, 8.9e-11 (purified, gap 2e-6) and 2.3e-14
    state, region = instance()
    sub = subspace._require_standard(state, region)
    a_hl, lift = _symmetric_root_frame(state, region)
    eigs, vecs = np.linalg.eigh(a_hl)
    assert_allclose(np.sort(np.abs(sub.eigs)), np.sort(np.abs(eigs)), rtol=1e-12)
    ln_hl = (vecs * (2.0 * np.arctanh(1.0 / eigs))) @ vecs.T
    assert rel_diff(sub.lift(subspace._spectral_lndelta(sub)), lift(ln_hl)) <= 1e-9
    eye_hl = np.eye(len(eigs))
    assert rel_diff(sub.lift(eye_hl), lift(eye_hl)) <= 1e-12


@TRIVIAL_DIRECTIONS
def test_a_is_the_identity_on_the_trivial_directions(n, boundary, sites):
    # the pure-state identity behind the verdict, which reads the spectrum
    # of A from a_hl alone: A = 1 on the trivial directions T, and A maps
    # them nowhere into H_L
    state = vacuum_state(build_harmonic_chain(n, 0.3, 1.0, boundary))
    sub = subspace._require_standard(state, Region(sites))
    a_sym = _to_frame(state, sub.A)
    basis = scipy.linalg.null_space(sub.q_basis.T)
    assert basis.shape[1] == sub.trivial_dim > 0
    assert np.linalg.norm(basis.T @ a_sym @ basis - np.eye(sub.trivial_dim)) <= 1e-12
    assert np.linalg.norm(basis.T @ a_sym @ sub.q_basis) <= 1e-12


@TRIVIAL_DIRECTIONS
def test_s_is_time_reversal_on_the_trivial_directions(n, boundary, sites):
    # with no phi-pi correlation, T = diag(1, -1) maps L onto itself and is
    # mu-orthogonal, so it commutes with the projector Pi onto H_L, and S
    # extends by T on the complement
    state = vacuum_state(build_harmonic_chain(n, 0.3, 1.0, boundary))
    md = modular_data_full(state, Region(sites))
    assert md.trivial_dim > 0
    time_reversal = np.diag(np.repeat([1.0, -1.0], n))
    complement = np.eye(2 * n) - md.projector
    assert np.linalg.norm(md.S_op @ complement - time_reversal @ complement) <= 1e-10
    assert np.linalg.norm(time_reversal @ md.projector - md.projector @ time_reversal) <= 1e-10
