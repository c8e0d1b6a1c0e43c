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
from scipy.linalg.lapack import dposv

from ._linalg import (
    SymmetrizedFrame,
    adaptive_matrix_quadrature,
    rel_diff,
    symmetrize,
)
from .errors import (
    InvalidParameter,
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
    """Symmetrized-frame data of H_L = L + I L for one (state, region) pair,
    in O(n^2 r) beyond the frame's two n x n eigendecompositions: ``q_basis``
    spans H_L, and only :func:`modular_data_full` reads the dense ``A`` and
    ``trivial_basis``."""

    def __init__(self, state: GaussianState, region: Region):
        self.state, self.region = state, region
        n = state.n_sites
        self.sel = phase_space_indices(region, n)
        self.frame = SymmetrizedFrame(state.X_full, state.P_full)

        basis = np.eye(2 * n)[:, self.sel]
        w_cols = np.hstack([basis, _apply_i(state, basis)])  # [E_R, I E_R]
        self.w_sym = self.frame.root(w_cols)  # the system h = f + I g, in the frame
        u_svd, s_svd, _ = np.linalg.svd(self.w_sym, full_matrices=False)
        k = self.w_sym.shape[1]
        self.separating = k <= 2 * n and float(s_svd[-1] / s_svd[0]) > RANK_TOL
        rank = k if self.separating else int(np.sum(s_svd > RANK_TOL * s_svd[0]))
        self.q_basis = u_svd[:, :rank]
        self.trivial_dim = 2 * n - rank

        # from_frame(q X q^T) = inv_root_q X root_q^T, and I times it
        self.root_q = self.frame.root(self.q_basis)
        self.inv_root_q = self.frame.root(self.q_basis, inverse=True)
        self.i_inv_root_q = _apply_i(state, self.inv_root_q)
        # A on H_L, q^T Gram^{1/2} A Gram^{-1/2} q, where P = E_R E_R^T makes
        # A = 1 - E_R E_R^T + (I E_R) (E_R^T I)
        rows = np.vstack([-self.inv_root_q[self.sel], self.i_inv_root_q[self.sel]])
        self.a_hl = symmetrize(self.root_q.T @ (self.inv_root_q + w_cols @ rows))

    def lift(self, op_hl: np.ndarray, times_i: bool = False) -> np.ndarray:
        """``from_frame(q op_hl q^T)`` in phase space, or I times it."""
        left = self.i_inv_root_q if times_i else self.inv_root_q
        return left @ op_hl @ self.root_q.T

    @cached_property
    def A(self) -> np.ndarray:
        """The dense ``1 - P + I P I``."""
        i_mat = self.state.I_mat
        p_cut = np.diag(region_mask(self.region, self.state.n_sites).astype(float))
        return np.eye(len(p_cut)) - p_cut + i_mat @ p_cut @ i_mat

    @cached_property
    def trivial_basis(self) -> np.ndarray:
        """The complement of ``q_basis``, from the full SVD of ``w_sym``."""
        return np.linalg.svd(self.w_sym)[0][:, self.q_basis.shape[1]:]


def _apply_i(state: GaussianState, v: np.ndarray) -> np.ndarray:
    """``I v`` for the complex structure ``I = [[0, -2P], [2X, 0]]``."""
    n = state.n_sites
    return np.vstack([state.P_full @ v[n:] * -2.0, state.X_full @ v[:n] * 2.0])


def _verdict(state: GaussianState, region: Region, build_frame: bool = True):
    """The standardness report of a region and the frame it was read from.

    A region that is not a proper non-empty subset of the lattice fails
    without a frame.  Without ``build_frame`` only properness is decided,
    and a proper region gives ``(None, None)``.

    The mu-spectrum of A is read from ``a_hl`` alone.  For a pure state I is
    a mu-orthogonal complex structure, so H_L^perp is I-invariant.  For v in
    it and any w, ``mu(w, P v) = mu(P I w, I v) = 0`` (P has mu-adjoint
    ``-I P I`` and ``P I w`` lies in L), so ``P v = P I v = 0`` and
    ``A v = v``: A adds the eigenvalue 1 exactly when ``trivial_dim > 0``.
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
    eigs = np.abs(np.linalg.eigvalsh(sub.a_hl))
    min_abs = float(np.min(eigs, initial=1.0 if sub.trivial_dim else np.inf))
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
    regularized restriction, so the region only has to be a proper non-empty
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
    """
    return _modular_data(_require_standard(state, region))


def _spectral_lndelta(sub: _SubspaceFrame):
    """``ln Delta = 2 arcoth(A)`` on H_L from the ``eigh`` of ``a_hl``.

    Returns ``(ln_hl, eigs, vecs)`` in the basis ``q_basis``; ``sub.lift``
    extends ``ln_hl`` by zero.  :func:`_modular_data` reuses the eigenpairs
    for Delta^{-1/2} and the crosscheck ``eigs`` for its ``a_gap``.  Raises
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
    return (vecs * (2.0 * np.arctanh(1.0 / eigs))) @ vecs.T, eigs, vecs


def _modular_data(sub: _SubspaceFrame) -> ModularData:
    a_hl = sub.a_hl
    ln_hl, eigs, vecs = _spectral_lndelta(sub)
    ln_delta = sub.lift(ln_hl)

    # Delta and Delta^{-1/2} are 1 on the trivial directions: 1 + lift(f - 1)
    eye_hl = np.eye(a_hl.shape[0])
    eye = np.eye(2 * sub.state.n_sites)
    delta_hl = np.linalg.solve(a_hl - eye_hl, a_hl + eye_hl)
    delta = eye + sub.lift(delta_hl - eye_hl)

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
    inv_sqrt_hl = (vecs * np.sqrt((eigs - 1.0) / (eigs + 1.0))) @ vecs.T
    j_op = s_op @ (eye + sub.lift(inv_sqrt_hl - eye_hl))

    return ModularData(
        region=sub.region,
        A=sub.A,
        lnDelta=ln_delta,
        Delta=delta,
        S_op=s_op,
        J_op=j_op,
        projector=sub.lift(eye_hl),
        trivial_dim=sub.trivial_dim,
        consistency_residual=consistency,
    )


def _tomita_operator(sub: _SubspaceFrame) -> np.ndarray:
    """Solve h = f + I g columnwise and assemble S: f + I g -> f - I g.

    On the trivial directions S acts as conjugation along a deterministically
    chosen mu-orthonormal basis {u, I u}, which keeps S^2 = 1 and the
    anticommutation with I exact there.
    """
    # least squares in the frame: a standard region's system has full rank
    signs = np.repeat([1.0, -1.0], sub.w_sym.shape[1] // 2)
    s_main = (sub.w_sym * signs) @ np.linalg.pinv(sub.w_sym)

    if sub.trivial_dim:
        i_sym = sub.frame.to_frame(sub.state.I_mat)
        s_main = s_main + _trivial_conjugation(sub.trivial_basis, i_sym)
    return sub.frame.from_frame(s_main)


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
    t = 1/s of the arcoth resolvent integral over t in [1, inf)), graded by
    s = 1 - u^2 towards the steep end, using adaptive Gauss-Kronrod panels
    and Cholesky solves.  Both H_L and its mu-orthogonal complement are
    invariant under A, and ln Delta vanishes on the complement, so the
    solves run in the 4r-dimensional orthonormal basis of H_L (r region
    sites) and the integral is lifted to phase space once at the end.  The
    lift is an isometry, so the Frobenius error estimate, the adaptive panels
    and ``n_evals`` are those of the full-space integrand; ``quad_tol`` is an
    absolute bound on that estimate for the whole ln Delta.

    Raises :class:`QuadratureNotConverged` when the error bound cannot be
    pushed below ``quad_tol`` within ``max_evals`` integrand evaluations;
    regions with machine-degenerate modes stall this way.  Raises
    :class:`NumericalError` when a resolvent ``A^2 - s^2`` is not positive
    definite to its Cholesky factorization.
    """
    sub = _require_standard(state, region)
    integral, err, n_evals = _resolvent_quadrature(sub, quad_tol, max_evals)
    return QuadratureResult(sub.lift(integral), err, n_evals)


def _resolvent_quadrature(
    sub: _SubspaceFrame, quad_tol: float, max_evals: int = QUAD_MAX_EVALS, columns=None
):
    """``(integral, error_bound, n_evals)`` in the basis ``q_basis``, or the
    integral times ``columns``; the bound is the absolute Frobenius estimate of
    what is returned.  With s = 1 - u^2, ``A^2 - s^2 = (A^2 - 1) + u^2 (2 - u^2)``
    is SPD when every |eig a_hl| > 1, and ``A^2 - (1 - u^2)^2`` would cancel."""
    if quad_tol <= 0:
        raise InvalidParameter(f"quad_tol must be positive, got {quad_tol!r}")
    a_hl = sub.a_hl
    eye = np.eye(a_hl.shape[0], order="F")
    a_sq_m1 = np.asfortranarray(symmetrize(a_hl @ a_hl)) - eye
    rhs = np.asfortranarray(2.0 * (a_hl if columns is None else a_hl @ columns))

    def integrand(u: float) -> np.ndarray:
        _, sol, info = dposv(a_sq_m1 + u * u * (2.0 - u * u) * eye, rhs, overwrite_a=True)
        if info > 0:
            raise NumericalError(
                f"resolvent A^2 - s^2 not positive definite at s = {1.0 - u * u!r}: "
                f"Cholesky pivot {info} of {a_hl.shape[0]}"
            )
        return 2.0 * u * sol

    return adaptive_matrix_quadrature(
        integrand, 0.0, 1.0, abs_tol=quad_tol, max_evals=max_evals
    )


def lndelta_arccot_split(state: GaussianState, region: Region) -> np.ndarray:
    """I ln Delta assembled from the two invariant subspace blocks.

    The generator splits into an arccot of the complex structure cut to the
    region (giving the region block) minus the same construction on the
    complement (giving the complement block); both blocks are evaluated by
    spectral calculus on the restricted correlators.  Complement modes that
    are unentangled within ``TRIVIAL_TOL`` carry ln Delta = 0 and are mapped
    accordingly; unentangled *region* modes raise
    :class:`ModularDivergence`.

    Returns the full 2n x 2n matrix equal to ``I_mat @ lnDelta`` of
    :func:`modular_data_full`.
    """
    sub = _require_standard(state, region)
    return _arccot_split(sub, restrict_correlators(state, region))


def _arccot_split(sub: _SubspaceFrame, rc: RestrictedCorrelators) -> np.ndarray:
    state, region = sub.state, sub.region
    n = state.n_sites
    out = np.zeros((2 * n, 2 * n))
    out[np.ix_(sub.sel, sub.sel)] = mn_block_generator(rc, divergence_tol=TRIVIAL_TOL)

    comp = region.complement(n)
    rc_c = restrict_correlators(state, comp)
    block_c = mn_block_generator(rc_c, zero_below=0.5 + TRIVIAL_TOL)
    sel_c = phase_space_indices(comp, n)
    out[np.ix_(sel_c, sel_c)] = -block_c
    return out
