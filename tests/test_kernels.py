import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from modham import (
    EmptyRegion,
    InvalidParameter,
    ModularDivergence,
    PositivityViolation,
    Region,
    RestrictedCorrelators,
    build_flow,
    build_harmonic_chain,
    compute_C,
    entanglement_entropy,
    lndelta_region_via_G,
    mn_kernels,
    purify_restriction,
    regularize_correlators,
    restrict_correlators,
    run_kms_suite,
    symplectic_spectrum,
    vacuum_state,
)
from modham.kernels import restricted_spectrum


def analytic_two_site_correlators(mass):
    """Closed-form X, P of a two-site Dirichlet chain via (1, +-1) modes."""
    u = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    w = np.array([mass**2 + 1.0, mass**2 + 3.0])
    return 0.5 * (u * w**-0.5) @ u.T, 0.5 * (u * w**0.5) @ u.T


def spd_pair_with_gap(rng, size, c_targets):
    """Random SPD pair whose product spectrum is c_targets^2 (independent route)."""
    q, _ = np.linalg.qr(rng.standard_normal((size, size)))
    x = q @ np.diag(rng.uniform(0.5, 2.0, size)) @ q.T
    w, u = np.linalg.eigh(x)
    x_sqrt = (u * np.sqrt(w)) @ u.T
    x_inv_sqrt = (u / np.sqrt(w)) @ u.T
    q2, _ = np.linalg.qr(rng.standard_normal((size, size)))
    sym = q2 @ np.diag(np.asarray(c_targets) ** 2) @ q2.T
    p = x_inv_sqrt @ sym @ x_inv_sqrt
    return 0.5 * (x + x.T), 0.5 * (p + p.T)


class TestRestrictCorrelators:
    def test_full_region_spectrum_is_quarter(self, chain8):
        _, state = chain8
        rc = restrict_correlators(state, Region(range(8)))
        c = symplectic_spectrum(rc)
        assert_allclose(c, 0.5, atol=1e-12)

    def test_two_site_single_site_values(self):
        state = vacuum_state(build_harmonic_chain(2, 1.0))
        x_exp, p_exp = analytic_two_site_correlators(1.0)
        rc = restrict_correlators(state, Region([0]))
        assert rc.X_R[0, 0] == pytest.approx(x_exp[0, 0], abs=1e-14)
        assert rc.P_R[0, 0] == pytest.approx(p_exp[0, 0], abs=1e-14)
        assert rc.X_R[0, 0] * rc.P_R[0, 0] > 0.25

    def test_submatrix_symmetry(self, chain8_light, rng):
        _, state = chain8_light
        for _ in range(5):
            sites = rng.choice(8, size=rng.integers(1, 8), replace=False)
            rc = restrict_correlators(state, Region(sites))
            assert_allclose(rc.X_R, rc.X_R.T, atol=1e-14)
            assert_allclose(rc.P_R, rc.P_R.T, atol=1e-14)

    def test_positivity_bound_across_regions(self):
        for n, m in [(8, 0.1), (16, 1.0), (32, 0.1)]:
            state = vacuum_state(build_harmonic_chain(n, m))
            for region in (Region.half(n), Region.interval(n // 4, n // 2)):
                c = symplectic_spectrum(restrict_correlators(state, region))
                assert np.min(c**2) >= 0.25 - 1e-10

    def test_empty_region(self, chain8):
        _, state = chain8
        with pytest.raises(EmptyRegion):
            restrict_correlators(state, Region([]))


class TestComputeC:
    def test_scalar_trivial(self):
        rc = RestrictedCorrelators(Region([0]), np.array([[1.0]]), np.array([[1.0]]))
        assert_allclose(compute_C(rc), [[1.0]])

    def test_purity_boundary(self):
        rc = RestrictedCorrelators(Region([0]), np.array([[0.5]]), np.array([[0.5]]))
        assert_allclose(compute_C(rc), [[0.5]])

    def test_square_recovers_product(self, rng):
        x, p = spd_pair_with_gap(rng, 4, [0.6, 0.8, 1.5, 3.0])
        rc = RestrictedCorrelators(Region(range(4)), x, p)
        c_mat = compute_C(rc)
        xp = x @ p
        assert np.linalg.norm(c_mat @ c_mat - xp) <= 1e-10 * np.linalg.norm(xp)


class TestMnKernels:
    def test_scalar_formula(self):
        rc = RestrictedCorrelators(Region([0]), np.array([[1.0]]), np.array([[1.0]]))
        kernels = mn_kernels(rc)
        expected = np.log(3.0) / 2.0
        assert kernels.M[0, 0] == pytest.approx(expected, abs=1e-15)
        assert kernels.N[0, 0] == pytest.approx(expected, abs=1e-15)
        assert_allclose(
            kernels.L_block,
            [[0.0, np.log(3.0)], [-np.log(3.0), 0.0]],
            atol=1e-14,
        )

    def test_resolvent_integral_identity(self):
        # 4 * integral_1^inf dt / (1 - 4 t^2 z^2) = -(1/z) ln((2z+1)/(2z-1)) at z = 1
        with mpmath.workdps(30):
            val = 4 * mpmath.quad(lambda t: 1 / (1 - 4 * t * t), [1, mpmath.inf])
            assert float(abs(val + mpmath.log(3))) <= 1e-12

    def test_mn_symmetry(self, chain8_light):
        _, state = chain8_light
        kernels = mn_kernels(restrict_correlators(state, Region([1, 2, 5])))
        assert np.linalg.norm(kernels.M - kernels.M.T) <= 1e-8 * np.linalg.norm(kernels.M)
        assert np.linalg.norm(kernels.N - kernels.N.T) <= 1e-8 * np.linalg.norm(kernels.N)

    def test_generator_metric_antisymmetry(self, chain8):
        # diag(X_R, P_R) L_block is antisymmetric
        _, state = chain8
        rc = restrict_correlators(state, Region([3, 4]))
        kernels = mn_kernels(rc)
        gram_r = np.block([
            [rc.X_R, np.zeros((2, 2))],
            [np.zeros((2, 2)), rc.P_R],
        ])
        product = gram_r @ kernels.L_block
        assert np.linalg.norm(product + product.T) <= 1e-8 * np.linalg.norm(product)

    def test_divergence_on_full_region(self, chain8):
        # the restriction to the full lattice is pure: every mode sits at 1/2
        _, state = chain8
        rc = restrict_correlators(state, Region(range(8)))
        with pytest.raises(ModularDivergence) as info:
            mn_kernels(rc)
        assert info.value.count == 8

    def test_explicit_clip_reports_modes(self, chain8):
        # the pure full-region state has no generator until it is regularized
        _, state = chain8
        rc = restrict_correlators(state, Region(range(8)))
        regularized, clipped_modes = regularize_correlators(rc, 1e-8)
        assert len(clipped_modes) == 8
        kernels = mn_kernels(regularized)
        assert np.all(np.isfinite(kernels.L_block))
        assert_allclose(kernels.c_spectrum, 0.5 + 1e-8, rtol=1e-12)

    def test_clip_reaches_modes_above_sing_tol(self, chain8_light):
        # gap 3.4e-5 lies between sing_tol and the clip: the raw kernels
        # exist, a sing_tol at the clip flags the mode, and the clip moves it
        # to 1/2 + clip
        _, state = chain8_light
        rc = restrict_correlators(state, Region([2, 3, 4]))
        gap = float(symplectic_spectrum(rc)[0]) - 0.5
        assert 1e-10 < gap < 1e-4
        with pytest.raises(ModularDivergence):
            mn_kernels(rc, sing_tol=1e-4)
        regularized, clipped_modes = regularize_correlators(rc, 1e-4)
        assert clipped_modes == (0,)
        clipped = mn_kernels(regularized)
        raw = mn_kernels(rc)
        assert_allclose(clipped.c_spectrum[0], 0.5 + 1e-4, rtol=1e-12)
        change = np.linalg.norm(clipped.L_block - raw.L_block)
        assert change > 1e-2 * np.linalg.norm(raw.L_block)

    def test_c_spectrum_invariant(self, chain8_light):
        _, state = chain8_light
        kernels = mn_kernels(restrict_correlators(state, Region([2, 3])))
        assert np.all(kernels.c_spectrum >= 0.5 - 1e-10)
        # C^2 = X P within 1e-9 relative
        rc = restrict_correlators(state, Region([2, 3]))
        xp = rc.X_R @ rc.P_R
        assert np.linalg.norm(kernels.C @ kernels.C - xp) <= 1e-9 * np.linalg.norm(xp)


class TestViaG:
    def test_single_mode(self):
        rc = RestrictedCorrelators(Region([0]), np.array([[1.0]]), np.array([[1.0]]))
        block = lndelta_region_via_G(rc)
        assert_allclose(block, [[0.0, np.log(3.0)], [-np.log(3.0), 0.0]], atol=1e-14)

    def test_matches_mn_kernels(self, chain8):
        _, state = chain8
        rc = restrict_correlators(state, Region([2, 3, 4]))
        kernels = mn_kernels(rc)
        block = lndelta_region_via_G(rc)
        assert np.linalg.norm(block - kernels.L_block) <= 1e-8 * np.linalg.norm(kernels.L_block)

    def test_reads_no_mode_data(self, monkeypatch, chain8):
        import modham.kernels as kernels_module

        _, state = chain8
        rc = restrict_correlators(state, Region([2, 3, 4]))
        reference = mn_kernels(rc).L_block

        def forbidden(*args):
            raise AssertionError("the two-point-kernel route used the mode data")

        monkeypatch.setattr(kernels_module, "product_spectrum", forbidden)
        fresh = RestrictedCorrelators(rc.region, rc.X_R, rc.P_R)
        block = lndelta_region_via_G(fresh)
        assert "modes" not in vars(fresh)
        assert np.linalg.norm(block - reference) <= 1e-8 * np.linalg.norm(reference)

    def test_complex_path_is_real_and_agrees(self, chain8):
        _, state = chain8
        rc = restrict_correlators(state, Region([3, 4]))
        kernels = mn_kernels(rc)
        block = lndelta_region_via_G(rc)
        assert block.dtype.kind == "f"
        assert np.linalg.norm(block - kernels.L_block) <= 1e-8 * np.linalg.norm(kernels.L_block)


class TestComplement:
    def test_two_site_mirror(self):
        state = vacuum_state(build_harmonic_chain(2, 1.0))
        region = Region([0])
        kernels = mn_kernels(restrict_correlators(state, region))
        comp = mn_kernels(restrict_correlators(state, region.complement(2)))
        assert comp.region == Region([1])
        assert_allclose(comp.L_block, kernels.L_block, atol=1e-12)

    def test_half_chain_mirror(self):
        n = 4
        state = vacuum_state(build_harmonic_chain(n, 0.1))
        region = Region.half(n)
        kernels = mn_kernels(restrict_correlators(state, region))
        comp = mn_kernels(restrict_correlators(state, region.complement(n)))
        r = n // 2
        flip = np.eye(r)[::-1]
        mirror = np.block([
            [flip, np.zeros((r, r))],
            [np.zeros((r, r)), flip],
        ])
        assert np.linalg.norm(
            comp.L_block - mirror @ kernels.L_block @ mirror
        ) <= 1e-8 * np.linalg.norm(kernels.L_block)

    def test_complement_of_full_region(self, chain8):
        _, state = chain8
        with pytest.raises(EmptyRegion):
            restrict_correlators(state, Region(range(8)).complement(8))


class TestEntropy:
    def test_pure_restriction_is_zero(self):
        assert entanglement_entropy(np.full(5, 0.5)) == 0.0

    def test_single_mode_value(self):
        expected = 1.5 * np.log(1.5) - 0.5 * np.log(0.5)
        assert entanglement_entropy(np.array([1.0])) == pytest.approx(expected, abs=1e-15)

    def test_accepts_kernels(self, chain2):
        _, state = chain2
        kernels = mn_kernels(restrict_correlators(state, Region([0])))
        direct = entanglement_entropy(kernels.c_spectrum)
        assert entanglement_entropy(kernels) == pytest.approx(direct)


class TestRegularizeAndPurify:
    def test_regularize_pushes_gap(self, chain8):
        _, state = chain8
        rc = restrict_correlators(state, Region.half(8))
        rc2, clipped = regularize_correlators(rc, 1e-6)
        assert len(clipped) >= 1
        assert np.min(symplectic_spectrum(rc2)) >= 0.5 + 1e-6 * (1 - 1e-9)
        assert_allclose(rc2.X_R, rc.X_R)

    @pytest.mark.parametrize("clip", [0.0, -1e-4, float("nan"), float("inf")])
    def test_rejects_non_positive_clip(self, chain8, clip):
        # a gap is checked whenever it is given, not only when a mode needs it
        _, state = chain8
        rc = restrict_correlators(state, Region([3, 4]))
        with pytest.raises(InvalidParameter):
            regularize_correlators(rc, clip)
        with pytest.raises(InvalidParameter):
            run_kms_suite(state, Region([3, 4]), clip=clip)

    def test_regularize_noop_when_safe(self, chain8):
        _, state = chain8
        rc = restrict_correlators(state, Region([3, 4]))
        rc2, clipped = regularize_correlators(rc, 1e-8)
        assert clipped == ()
        assert rc2 is rc

    def test_purification_restores_correlators(self, chain8_light):
        _, state = chain8_light
        rc = restrict_correlators(state, Region([1, 2, 6]))
        pure, region = purify_restriction(rc)
        assert pure.n_sites == 6
        assert region == Region(range(3))
        assert_allclose(pure.X_full[:3, :3], rc.X_R, atol=1e-12)
        assert_allclose(pure.P_full[:3, :3], rc.P_R, atol=1e-12)
        assert np.linalg.norm(4 * pure.X_full @ pure.P_full - np.eye(6)) <= 1e-10

    def test_purify_rejects_invalid(self):
        rc = RestrictedCorrelators(Region([0]), np.array([[0.1]]), np.array([[0.1]]))
        with pytest.raises(PositivityViolation):
            purify_restriction(rc)


def test_one_mode_spectrum_per_restriction(monkeypatch, chain8_light):
    import modham.kernels as kernels_module

    original = kernels_module.product_spectrum
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(kernels_module, "product_spectrum", counted)
    _, state = chain8_light
    rc = restrict_correlators(state, Region([2, 3, 4]))
    c = symplectic_spectrum(rc)
    kernels = mn_kernels(rc)
    flow = build_flow(kernels, rc)
    assert len(calls) == 1
    assert_allclose(kernels.c_spectrum, c, rtol=0, atol=0)
    assert flow.check_residual <= 1e-7
    # a regularized restriction is a new instance with its own spectrum
    gap = float(c.max()) - 0.5
    rc_reg, clipped = regularize_correlators(rc, gap)
    kernels_reg = mn_kernels(rc_reg)
    build_flow(kernels_reg, rc_reg)
    assert len(clipped) == 2 and len(calls) == 2
    assert_allclose(kernels_reg.c_spectrum, np.maximum(c, 0.5 + gap), atol=1e-12)


def test_compute_c_rejects_ill_conditioned_x():
    from modham import NumericalError

    rc = RestrictedCorrelators(
        Region([0, 1]), np.diag([1.0, 1e-13]), np.diag([0.26, 0.26e13])
    )
    with pytest.raises(NumericalError):
        compute_C(rc)


def test_purification_ancilla_mirrors_spectrum(chain8_light):
    # pure two-block state: ancilla block carries the same c spectrum
    _, state = chain8_light
    rc = restrict_correlators(state, Region([1, 2, 6]))
    pure, region = purify_restriction(rc)
    c_region = symplectic_spectrum(restrict_correlators(pure, region))
    ancilla = Region(range(3, 6))
    c_ancilla = symplectic_spectrum(restrict_correlators(pure, ancilla))
    assert_allclose(c_region, c_ancilla, atol=1e-12)
    assert_allclose(c_region, symplectic_spectrum(rc), atol=1e-12)


def test_scan_entropies_against_40_digit_eigenvalues():
    # mpmath eigenvalues of the same double X_R P_R the scan reads
    n = 64
    state = vacuum_state(build_harmonic_chain(n, 0.1))
    for length in range(2, 13):
        region = Region.interval((n - length) // 2, length)
        rc = restrict_correlators(state, region)
        with mpmath.workdps(40):
            lam = mpmath.eig(
                mpmath.matrix(rc.X_R) * mpmath.matrix(rc.P_R), left=False, right=False
            )
            reference = 0
            for v in lam:
                c = mpmath.sqrt(mpmath.re(v))
                reference += (c + 0.5) * mpmath.log(c + 0.5)
                if c > 0.5:
                    reference -= (c - 0.5) * mpmath.log(c - 0.5)
            reference = float(reference)
        got = entanglement_entropy(restricted_spectrum(state, region))
        assert abs(got - reference) <= 1e-12 * reference


def test_block_generator_against_40_digit_logarithm():
    # -i ln((G|_R)^-1 G^T|_R) at 40 digits from the same double X_R, P_R; at
    # gaps near 1e-10 the generator's error scales like eps/gap, and the
    # Cholesky/Williamson frame keeps it below 1e-8 (X^{1/2} frame: 6e-8, 1e-7)
    for n, mass, start, length in [(64, 0.579, 43, 6), (32, 0.0434, 8, 7)]:
        rc = restrict_correlators(
            vacuum_state(build_harmonic_chain(n, mass)), Region.interval(start, length)
        )
        assert symplectic_spectrum(rc)[0] - 0.5 < 5e-10
        block = mn_kernels(rc).L_block
        eye = np.eye(length)
        g = np.block([[rc.X_R, 0.5j * eye], [-0.5j * eye, rc.P_R]])
        with mpmath.workdps(40):
            g_mp = mpmath.matrix(g.tolist())
            evals, vecs = mpmath.eig(mpmath.inverse(g_mp) * g_mp.T)
            logs = mpmath.diag([mpmath.log(e) for e in evals])
            log_ratio = vecs * logs * mpmath.inverse(vecs)
            reference = -np.array(
                [[float(mpmath.im(log_ratio[i, j])) for j in range(2 * length)]
                 for i in range(2 * length)]
            )
        assert np.linalg.norm(block - reference) <= 1e-8 * np.linalg.norm(reference)
