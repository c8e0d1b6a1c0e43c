"""Standard subspaces and full-space modular data.

For a region R of the chain, initial data supported in R spans a real-linear
subspace L of the 2n-dimensional phase space.  The cutting projection P
multiplies by the characteristic function of R on both the field and
momentum blocks; it is idempotent but not orthogonal for the metric mu, and
its mu-adjoint is ``-I P I``.

The central operator is ``A = 1 - P + I P I``.  It is mu-self-adjoint, its
mu-spectrum avoids the open interval (-1, 1), and the modular operator of
the subspace satisfies ``Delta = (A - 1)^{-1} (A + 1)`` together with
``ln Delta = 2 arcoth(A)``, understood through spectral calculus in the
Gram-symmetrized frame.

Lattice caveat: for a region of fewer than half the sites, L + I L is a
proper subspace of phase space (the lattice complex structure is not
anti-local).  The modular objects are constructed on H_L = L + I L and
extended by ``Delta = 1`` on its mu-orthogonal complement; those trivial
directions correspond to unentangled complement modes and are counted in
the standardness report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgesv

from ._linalg import (
    SymmetrizedFrame,
    adaptive_matrix_quadrature,
    rel_diff,
    symmetrize,
)
from .errors import (
    DecompositionSingular,
    InvalidParameter,
    ModularDivergence,
    NotStandard,
    NumericalError,
    SpectrumOutOfDomain,
)
from .kernels import RestrictedCorrelators, mn_block_generator, restrict_correlators
from .lattice import GaussianState
from .regions import (
    Region,
    phase_space_indices,
    region_mask,
    validate_region,
)

__all__ = [
    "Region",
    "StandardnessReport",
    "ModularData",
    "QuadratureResult",
    "standardness_check",
    "modular_data_full",
    "lndelta_resolvent_quadrature",
    "lndelta_arccot_split",
]

STANDARD_EIG_TOL = 1e-9
RANK_TOL = 1e-10
CONSISTENCY_TOL = 1e-8
PAIRING_TOL = 1e-8
QUAD_MAX_EVALS = 200_000
TRIVIAL_TOL = 1e-9


@dataclass(frozen=True)
class StandardnessReport:
    min_abs_eigenvalue: float
    is_standard: bool
    is_separating: bool
    trivial_dim: int


@dataclass(frozen=True)
class ModularData:
    """Full-space modular objects of a standard region.

    ``S_op`` and ``J_op`` represent the antilinear Tomita operator and
    modular conjugation as real matrices anticommuting with the complex
    structure.  ``projector`` is the mu-orthogonal projector onto
    H_L = L + I L; ``trivial_dim`` counts the directions where Delta is
    extended by 1.
    """

    region: Region
    A: np.ndarray = field(repr=False)
    lnDelta: np.ndarray = field(repr=False)
    Delta: np.ndarray = field(repr=False)
    S_op: np.ndarray = field(repr=False)
    J_op: np.ndarray = field(repr=False)
    projector: np.ndarray = field(repr=False)
    trivial_dim: int = 0
    consistency_residual: float = 0.0


@dataclass(frozen=True)
class QuadratureResult:
    """ln Delta estimate from the resolvent integral with its error bound."""

    lnDelta: np.ndarray = field(repr=False)
    error_bound: float = 0.0
    n_evals: int = 0


class _SubspaceFrame:
    """Shared symmetrized-frame data for one (state, region) pair."""

    def __init__(self, state: GaussianState, region: Region):
        self.state = state
        self.region = region
        n = state.n_sites
        self.mask = region_mask(region, n)
        self.frame = SymmetrizedFrame(state.mu_gram)

        i_mat = state.I_mat
        p_cut = np.diag(self.mask.astype(float))
        self.A = np.eye(2 * n) - p_cut + i_mat @ p_cut @ i_mat
        self.A_sym = symmetrize(self.frame.to_frame(self.A))

        cols = np.flatnonzero(self.mask)
        basis = np.eye(2 * n)[:, cols]
        self.w_cols = np.hstack([basis, i_mat @ basis])
        wt = self.frame.sqrt @ self.w_cols
        u_svd, s_svd, vt_svd = np.linalg.svd(wt, full_matrices=True)
        self._svd = (u_svd, s_svd, vt_svd)
        smax = float(s_svd[0]) if s_svd.size else 0.0
        self.rank_ratio = float(s_svd[-1] / smax) if smax > 0 else 0.0
        k = wt.shape[1]
        self.separating = k <= 2 * n and self.rank_ratio > RANK_TOL
        rank = k if self.separating else int(np.sum(s_svd > RANK_TOL * smax))
        self.q_basis = u_svd[:, :rank]
        self.trivial_basis = u_svd[:, rank:]

    @property
    def trivial_dim(self) -> int:
        return self.trivial_basis.shape[1]

    @cached_property
    def a_hl(self) -> np.ndarray:
        """A on H_L in the orthonormal basis ``q_basis`` (symmetrized frame)."""
        return symmetrize(self.q_basis.T @ self.A_sym @ self.q_basis)


def _verdict(state: GaussianState, region: Region, build_frame: bool = True):
    """The standardness report of a region and the frame it was read from.

    A region that is not a proper non-empty subset of the lattice fails
    without a frame.  Without ``build_frame`` only properness is decided,
    and a proper region gives ``(None, None)``.
    """
    n = state.n_sites
    if len(region) == 0:
        return StandardnessReport(1.0, False, True, 2 * n), None
    validate_region(region, n)
    if len(region) >= n:
        return StandardnessReport(1.0, False, False, 0), None
    if not build_frame:
        return None, None
    sub = _SubspaceFrame(state, region)
    min_abs = float(np.min(np.abs(np.linalg.eigvalsh(sub.A_sym))))
    ok = min_abs >= 1.0 - STANDARD_EIG_TOL and sub.separating
    return StandardnessReport(min_abs, ok, sub.separating, sub.trivial_dim), sub


def standardness_check(state: GaussianState, region: Region) -> StandardnessReport:
    """Numerical standardness of a region.

    A region is reported standard when the mu-spectrum of ``1 - P + I P I``
    stays outside (-1 + 1e-9, 1 - 1e-9), the region is a proper non-empty
    subset of the lattice, and the decomposition system [P | I P] has full
    column rank (the subspace is separating, which rules out regions
    covering more than half of a pure chain).
    """
    return _verdict(state, region)[0]


def _require_standard(state: GaussianState, region: Region, regularized: bool = False):
    """Raise :class:`NotStandard` unless :func:`standardness_check` passes.

    Returns the frame of the check.  A ``regularized`` caller acts on a
    clipped restriction, so the region only has to be a proper non-empty
    subset of the lattice; no frame is built and None is returned.
    """
    report, sub = _verdict(state, region, build_frame=not regularized)
    if report is not None and not report.is_standard:
        raise NotStandard(
            f"region {list(region.sites)} of the {state.n_sites}-site chain is "
            f"not standard ({report}); a clip regularizes a proper region"
        )
    return sub


def modular_data_full(state: GaussianState, region: Region) -> ModularData:
    """Construct S, J, Delta and ln Delta for a standard region.

    ``ln Delta`` is the spectral function ``2 arcoth`` of the restriction of
    ``A = 1 - P + I P I`` to H_L = L + I L, extended by zero on the trivial
    directions.  ``Delta`` is assembled from the independent block solve
    ``(A - 1)^{-1} (A + 1)`` and cross-checked against ``exp(ln Delta)``.
    S, J, Delta, the projector and that ``expm`` consistency gate are built
    here only: the route comparison of :mod:`modham.crosscheck` evaluates
    ``ln Delta`` alone.

    Raises
    ------
    NotStandard
        If the region fails :func:`standardness_check`.
    SpectrumOutOfDomain
        If eigenvalues of A on H_L reach [-1, 1]; this happens when region
        modes are unentangled to machine precision.  Regularize the
        restricted state and purify (see :mod:`modham.kernels`) instead of
        clipping here.
    DecompositionSingular
        If the h = f + I g decomposition system is rank deficient.
    """
    return _modular_data(_require_standard(state, region))


def _spectral_lndelta(sub: _SubspaceFrame):
    """``ln Delta = 2 arcoth(A)`` from the ``eigh`` of A on H_L, lifted to
    phase space and extended by zero on the trivial directions.

    Returns ``(ln_delta, eigs, vecs)``; the eigenpairs of ``a_hl`` are the
    ones :func:`_modular_data` reuses for Delta^{-1/2}.  Raises
    :class:`SpectrumOutOfDomain` when an eigenvalue lies in [-1, 1].
    """
    eigs, vecs = np.linalg.eigh(sub.a_hl)
    inside = np.abs(eigs) <= 1.0
    if inside.any():
        raise SpectrumOutOfDomain(
            f"{int(inside.sum())} eigenvalue(s) of A on L + IL inside [-1, 1]; "
            f"the modular generator is not representable for this region "
            f"(nearly unentangled modes)",
            eigenvalues=eigs[inside],
        )
    q = sub.q_basis
    ln_hl = (vecs * (2.0 * np.arctanh(1.0 / eigs))) @ vecs.T
    return sub.frame.from_frame(q @ ln_hl @ q.T), eigs, vecs


def _modular_data(sub: _SubspaceFrame) -> ModularData:
    n = sub.state.n_sites
    a_hl = sub.a_hl
    ln_delta, eigs, vecs = _spectral_lndelta(sub)

    q = sub.q_basis
    eye_hl = np.eye(q.shape[1])
    delta_hl = np.linalg.solve(a_hl - eye_hl, a_hl + eye_hl)
    proj_sym = q @ q.T
    delta_sym = q @ delta_hl @ q.T + (np.eye(2 * n) - proj_sym)
    delta = sub.frame.from_frame(delta_sym)

    consistency = rel_diff(scipy.linalg.expm(ln_delta), delta)
    if consistency > CONSISTENCY_TOL:
        raise NumericalError(
            f"exp(ln Delta) disagrees with (A-1)^(-1)(A+1): relative "
            f"residual {consistency:.3e}"
        )

    s_op = _tomita_operator(sub)
    # Delta^{-1/2} assembled from the A eigenbasis: the eigenproblem of A is
    # well conditioned even when Delta's spectrum spans many decades, while
    # re-diagonalizing Delta itself loses the small eigenvalues.
    inv_sqrt_vals = np.sqrt((eigs - 1.0) / (eigs + 1.0))
    inv_sqrt_sym = q @ ((vecs * inv_sqrt_vals) @ vecs.T) @ q.T
    inv_sqrt_sym += np.eye(2 * n) - proj_sym
    j_op = s_op @ sub.frame.from_frame(inv_sqrt_sym)
    projector = sub.frame.from_frame(proj_sym)

    return ModularData(
        region=sub.region,
        A=sub.A,
        lnDelta=ln_delta,
        Delta=delta,
        S_op=s_op,
        J_op=j_op,
        projector=projector,
        trivial_dim=sub.trivial_dim,
        consistency_residual=consistency,
    )


def _tomita_operator(sub: _SubspaceFrame) -> np.ndarray:
    """Solve h = f + I g columnwise and assemble S: f + I g -> f - I g.

    On the trivial directions S acts as conjugation along a deterministically
    chosen mu-orthonormal basis {u, I u}, which keeps S^2 = 1 and the
    anticommutation with I exact there.
    """
    u_svd, s_svd, vt_svd = sub._svd
    k = sub.w_cols.shape[1]
    if sub.rank_ratio <= RANK_TOL:
        raise DecompositionSingular(
            f"[P | I P] decomposition system rank-deficient: relative "
            f"smallest singular value {sub.rank_ratio:.3e} <= {RANK_TOL:g}"
        )
    # Least-squares coefficients in the symmetrized frame: coef = V S^{-1} U^T.
    coef = (vt_svd.T[:, :k] / s_svd) @ u_svd[:, :k].T
    signs = np.concatenate([np.ones(k // 2), -np.ones(k // 2)])
    w_signed = sub.w_cols * signs
    s_main = (sub.frame.sqrt @ w_signed) @ coef

    if sub.trivial_dim:
        i_sym = sub.frame.to_frame(sub.state.I_mat)
        s_main = s_main + _trivial_conjugation(sub.trivial_basis, i_sym)
    return sub.frame.inv_sqrt @ s_main @ sub.frame.sqrt


def _trivial_conjugation(basis: np.ndarray, i_sym: np.ndarray) -> np.ndarray:
    """Conjugation u -> u, I u -> -I u on the span of an I-invariant basis.

    In the symmetrized frame I is orthogonal and antisymmetric, so on an
    I-invariant span with orthonormal basis T the compression
    ``K = T^T I T`` is orthogonal and antisymmetric too.  One real Schur
    decomposition ``K = Z S Z^T`` brings it to 2x2 blocks
    ``[[0, -b], [b, 0]]`` with b = +-1.  The two columns z_1, z_2 of a block
    give the pair u = T z_1, I u = b T z_2, so every pair comes at once and
    the reflection is ``R = U U^T - V V^T`` with ``U = T Z[:, 0::2]`` and
    ``V = T Z[:, 1::2]``.

    Raises :class:`NumericalError` when the dimension is odd or a block's
    off-diagonal entry is not +-1 within 1e-8: the span is then not
    I-invariant.
    """
    k = basis.T @ i_sym @ basis
    schur_form, z = scipy.linalg.schur(0.5 * (k - k.T), output="real")
    couplings = np.abs(np.diag(schur_form, -1)[::2])
    deviation = float(np.max(np.abs(couplings - 1.0), initial=0.0))
    if basis.shape[1] % 2 or deviation > PAIRING_TOL:
        raise NumericalError(
            f"span of dimension {basis.shape[1]} is not I-invariant: the "
            f"Schur couplings of T^T I T deviate from 1 by up to {deviation:.3e}"
        )
    u = basis @ z[:, 0::2]
    v = basis @ z[:, 1::2]
    return u @ u.T - v @ v.T


def lndelta_resolvent_quadrature(
    state: GaussianState,
    region: Region,
    quad_tol: float = 1e-10,
    max_evals: int = QUAD_MAX_EVALS,
) -> QuadratureResult:
    """ln Delta from the resolvent integral, no spectral calculus involved.

    Integrates ``2 A (A^2 - s^2)^{-1}`` over s in (0, 1] (the substitution
    t = 1/s of the arcoth resolvent integral over t in [1, inf)) using
    adaptive Gauss-Kronrod panels and dense linear solves.  Both H_L and its
    mu-orthogonal complement are invariant under A, and ln Delta vanishes on
    the complement, so the solves run in the 4r-dimensional orthonormal
    basis of H_L (r region sites) and the integral is lifted to phase space
    once at the end.  The lift is an isometry, so the Frobenius error
    estimate, the adaptive panels and ``n_evals`` are those of the
    full-space integrand.

    Raises :class:`QuadratureNotConverged` when the error bound cannot be
    pushed below ``quad_tol`` within ``max_evals`` integrand evaluations;
    regions with machine-degenerate modes stall this way.  Raises
    :class:`NumericalError` when a resolvent ``A^2 - s^2`` is exactly
    singular to its LU factorization.
    """
    return _resolvent_quadrature(_require_standard(state, region), quad_tol, max_evals)


def _resolvent_quadrature(
    sub: _SubspaceFrame, quad_tol: float, max_evals: int = QUAD_MAX_EVALS
) -> QuadratureResult:
    if quad_tol <= 0:
        raise InvalidParameter(f"quad_tol must be positive, got {quad_tol!r}")
    q = sub.q_basis
    a_hl = sub.a_hl
    a_sq = np.asfortranarray(symmetrize(a_hl @ a_hl))
    rhs = np.asfortranarray(2.0 * a_hl)
    eye = np.eye(a_hl.shape[0], order="F")

    def integrand(s: float) -> np.ndarray:
        # LU with partial pivoting, as np.linalg.solve, without its wrapper
        _, _, sol, info = dgesv(a_sq - s * s * eye, rhs, overwrite_a=True)
        if info > 0:
            raise NumericalError(
                f"resolvent A^2 - s^2 singular at s = {s!r}: zero LU pivot "
                f"{info} of {a_hl.shape[0]}"
            )
        return sol

    integral, err, n_evals = adaptive_matrix_quadrature(
        integrand, 0.0, 1.0, abs_tol=quad_tol, max_evals=max_evals
    )
    ln_delta = sub.frame.from_frame(q @ integral @ q.T)
    return QuadratureResult(ln_delta, err, n_evals)


def lndelta_arccot_split(
    state: GaussianState,
    region: Region,
    trivial_tol: float = TRIVIAL_TOL,
) -> np.ndarray:
    """I ln Delta assembled from the two invariant subspace blocks.

    The generator splits into an arccot of the complex structure cut to the
    region (giving the region block) minus the same construction on the
    complement (giving the complement block); both blocks are evaluated by
    spectral calculus on the restricted correlators.  Complement modes that
    are unentangled within ``trivial_tol`` carry ln Delta = 0 and are mapped
    accordingly; unentangled *region* modes raise
    :class:`ModularDivergence`.

    Returns the full 2n x 2n matrix equal to ``I_mat @ lnDelta`` of
    :func:`modular_data_full`.
    """
    sub = _require_standard(state, region)
    return _arccot_split(sub, restrict_correlators(state, region), trivial_tol)


def _arccot_split(
    sub: _SubspaceFrame, rc: RestrictedCorrelators, trivial_tol: float = TRIVIAL_TOL
) -> np.ndarray:
    state, region = sub.state, sub.region
    n = state.n_sites
    out = np.zeros((2 * n, 2 * n))

    block_r, _ = mn_block_generator(rc)
    c_region = rc.modes.c
    if np.any(c_region - 0.5 <= trivial_tol):
        bad = c_region[c_region - 0.5 <= trivial_tol]
        raise ModularDivergence(
            f"{bad.size} region mode(s) within {trivial_tol:g} of c = 1/2; "
            f"the region block of I ln Delta diverges",
            eigenvalues=bad,
        )
    sel_r = phase_space_indices(region, n)
    out[np.ix_(sel_r, sel_r)] = block_r

    comp = region.complement(n)
    rc_c = restrict_correlators(state, comp)
    block_c, _ = mn_block_generator(rc_c, zero_below=0.5 + trivial_tol)
    sel_c = phase_space_indices(comp, n)
    out[np.ix_(sel_c, sel_c)] = -block_c
    return out
