"""Standard subspaces and full-space modular data.

For a region R of the chain, initial data supported in R spans a real-linear
subspace L of the 2n-dimensional phase space.  The cutting projection P
multiplies by the characteristic function of R on both the field and
momentum blocks; it is idempotent but not orthogonal for the metric mu, and
its mu-adjoint is ``-I P I``.

The central operator is ``A = 1 - P + I P I``.  It is mu-self-adjoint, its
mu-spectrum avoids the open interval (-1, 1), and the modular operator of
the subspace satisfies ``Delta = (A - 1)^{-1} (A + 1)`` together with
``ln Delta = 2 arcoth(A)``, understood through spectral calculus on the
symmetric ``L^T A L^{-T}``, L the Cholesky factor of the Gram matrix.

Lattice caveat: for a region of fewer than half the sites, L + I L is a
proper subspace of phase space (the lattice complex structure is not
anti-local).  The modular objects are constructed on H_L = L + I L and
extended by ``Delta = 1`` on its mu-orthogonal complement; those trivial
directions correspond to unentangled complement modes and are counted in
the standardness report.  There S and J are time reversal
``T = diag(1, -1)``, a conjugation because the states here carry no phi-pi
correlation (see :mod:`modham.lattice`).

The resolvent integral ``ln Delta = int_0^1 2 A (A^2 - s^2)^{-1} ds`` is one
trapezoid sum in s = tanh t (:func:`_tanh_rule`), over tridiagonal solves of
a symmetric Z after one Householder reduction, with no eigenvalue.  It has
two callers.  :func:`lndelta_resolvent_quadrature` integrates the full
ln Delta on the frame, ``Z = a_hl^2 - 1`` against ``2 a_hl``.  Route (c) of
:mod:`modham.crosscheck` integrates the region block from X_R and P_R alone,
``Z = 4 R^T P_R R - 1`` with ``X_R = R R^T``, r x r (:func:`_region_quadrature`).
So route (c) shares no ``a_hl`` with route (a): (a) is the frame's Cholesky
factors of X and P and ``eigh`` of ``a_hl``, (b) the Cholesky factor of P_R
and ``eigh``, (c) the Cholesky factor of X_R, a Householder reduction and
``dptsv``, and the kernel route a nonsymmetric ``eig``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dptsv

from ._linalg import (
    frob,
    rel_diff,
    require_tolerance,
    symmetrize,
)
from .errors import (
    NotStandard,
    NumericalError,
    QuadratureNotConverged,
    SpectrumOutOfDomain,
)
from .kernels import RestrictedCorrelators, _log_ratio
from .lattice import GaussianState, _gram_factor
from .regions import (
    Region,
    phase_space_indices,
    validate_region,
)

STANDARD_EIG_TOL = 1e-9
RANK_TOL = 1e-10
CONSISTENCY_TOL = 1e-8
MAX_QUAD_EVALS = 200_000


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
    structure.  ``projector`` is the mu-orthogonal projector Pi onto
    H_L = L + I L; ``trivial_dim`` counts the directions where Delta is
    extended by 1 and S and J by time reversal, ``S (1 - Pi) = T (1 - Pi)``.
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
    """Frame data of H_L = L + I L for one (state, region) pair.

    With the block Cholesky factor L of the Gram matrix ``diag(X, P) = L L^T``
    (any F with ``F^T F = Gram`` gives the same ``a_hl``), ``L^T A L^{-T}`` is
    symmetric; the state's constructor refused a Gram eigenvalue at or below
    ``EIG_CLAMP``, so each block is factored once.  Beyond the two
    factorizations everything takes O(n^2 r): ``q_basis`` spans H_L in the
    frame, operators move in and out as thin factors, I acts on them as
    ``-2 eps Gram``, and only :func:`modular_data_full` reads the dense
    ``A``.  Its readers share the eigenpairs ``eigs``, ``vecs`` of ``a_hl``
    and the factor F of the one thin SVD of the system ``w_sym = q_basis F``,
    whose singular values give ``frame_cond``, the ratio ``RANK_TOL`` judges.
    """

    def __init__(self, state: GaussianState, region: Region):
        self.state, self.region = state, region
        n, r, idx = state.n_sites, len(region), region.indices()
        self.sel = phase_space_indices(region, n)
        chol = [_gram_factor(m) for m in (state.X_full, state.P_full)]
        # [E_R, I E_R], with I E_R = [[0, -2 P[:, R]], [2 X[:, R], 0]]
        w_cols = np.zeros((2 * n, 4 * r))
        w_cols[self.sel, np.arange(2 * r)] = 1.0
        w_cols[n:, 2 * r:3 * r] = 2.0 * state.X_full[:, idx]
        w_cols[:n, 3 * r:] = -2.0 * state.P_full[:, idx]
        # the system h = f + I g in the frame, L^T w_cols
        w_sym = np.vstack([c.T @ half for c, half in zip(chol, np.split(w_cols, 2))])
        u_svd, s_svd, vt_svd = np.linalg.svd(w_sym, full_matrices=False)
        self.separating = 4 * r <= 2 * n and float(s_svd[-1] / s_svd[0]) > RANK_TOL
        rank = 4 * r if self.separating else int(np.sum(s_svd > RANK_TOL * s_svd[0]))
        self.frame_cond = float(s_svd[0] / s_svd[rank - 1])
        self.q_basis = u_svd[:, :rank]
        self.factor = s_svd[:rank, None] * vt_svd[:rank]
        self.trivial_dim = 2 * n - rank

        # L^{-T} q X q^T L^T = inv_root_q X root_q^T, and I L^{-T} q = -2 eps L q
        halves = list(zip(chol, np.split(self.q_basis, 2)))
        self.root_q = np.vstack([c @ half for c, half in halves])
        self.inv_root_q = np.vstack([scipy.linalg.solve_triangular(c, half, trans="T", lower=True)
                                     for c, half in halves])
        self.i_inv_root_q = 2.0 * np.vstack([-self.root_q[n:], self.root_q[:n]])
        # A on H_L, q^T L^T A L^{-T} q, where P = E_R E_R^T makes
        # A = 1 - E_R E_R^T + (I E_R) (E_R^T I)
        rows = np.vstack([-self.inv_root_q[self.sel], self.i_inv_root_q[self.sel]])
        self.a_hl = symmetrize(self.root_q.T @ (self.inv_root_q + w_cols @ rows))
        self.eigs, self.vecs = np.linalg.eigh(self.a_hl)

    def lift(self, op_hl: np.ndarray, times_i: bool = False) -> np.ndarray:
        """``L^{-T} q op_hl q^T L^T`` in phase space, or I times it."""
        left = self.i_inv_root_q if times_i else self.inv_root_q
        return left @ op_hl @ self.root_q.T

    @cached_property
    def A(self) -> np.ndarray:
        """The dense ``1 - P + I P I``, with the region's site mask m:
        ``blkdiag(1 - m - 4 P[:, R] X[R, :], 1 - m - 4 X[:, R] P[R, :])``."""
        x, p, idx = self.state.X_full, self.state.P_full, self.region.indices()
        outside = np.eye(len(x))
        outside[idx, idx] = 0.0
        return scipy.linalg.block_diag(outside - 4.0 * p[:, idx] @ x[idx],
                                       outside - 4.0 * x[:, idx] @ p[idx])


def _verdict(state: GaussianState, region: Region):
    """The standardness report of a region and the frame it was read from.

    A region that is not a proper non-empty subset of the lattice fails
    without a frame.

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
    sub = _SubspaceFrame(state, region)
    eigs = np.abs(sub.eigs)
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


def _require_standard(state: GaussianState, region: Region):
    """Raise :class:`NotStandard` unless :func:`standardness_check` passes;
    returns the frame of the check."""
    report, sub = _verdict(state, region)
    if not report.is_standard:
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
    S maps f + I g to f - I g on H_L and is time reversal ``T = diag(1, -1)``
    on the trivial directions, where Delta = 1 makes J = T as well.
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


def _spectral_lndelta(sub: _SubspaceFrame) -> np.ndarray:
    """``ln Delta = 2 arcoth(A)`` on H_L from the frame's eigenpairs of ``a_hl``,
    in the basis ``q_basis``; ``sub.lift`` extends it by zero.  Raises
    :class:`SpectrumOutOfDomain` when an eigenvalue lies in [-1, 1].
    """
    eigs, vecs = sub.eigs, sub.vecs
    inside = np.abs(eigs) <= 1.0
    if inside.any():
        raise SpectrumOutOfDomain(
            f"{int(inside.sum())} eigenvalue(s) of A on L + IL inside [-1, 1]; "
            f"the modular generator is not representable for this region "
            f"(nearly unentangled modes)",
            eigenvalues=eigs[inside],
        )
    return (vecs * (2.0 * np.arctanh(1.0 / eigs))) @ vecs.T


def _modular_data(sub: _SubspaceFrame) -> ModularData:
    a_hl, eigs, vecs = sub.a_hl, sub.eigs, sub.vecs
    ln_delta = sub.lift(_spectral_lndelta(sub))

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

    projector = sub.lift(eye_hl)
    s_op = _tomita_operator(sub, projector)
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
        projector=projector,
        trivial_dim=sub.trivial_dim,
        consistency_residual=consistency,
    )


def _tomita_operator(sub: _SubspaceFrame, projector: np.ndarray) -> np.ndarray:
    """Solve h = f + I g columnwise and assemble S: f + I g -> f - I g on H_L,
    and time reversal ``T = diag(1, -1)`` on the trivial directions.

    T relies on the phi-pi block of the two-point function being zero: then
    the Gram matrix ``diag(X, P)`` makes T mu-orthogonal, ``T I T = -I``, and
    T maps L onto itself.  So T commutes with the projector Pi onto H_L and
    ``T (1 - Pi)`` is a conjugation on H_L^perp, with S^2 = 1 and SI = -IS
    exact there.
    """
    # a standard region's system q F has full rank: S = q F diag(+-1) F^{-1} q^T
    factor, n = sub.factor, sub.state.n_sites
    signs = np.repeat([1.0, -1.0], len(factor) // 2)
    time_reversal = np.repeat([1.0, -1.0], n)[:, None]
    return (sub.lift(np.linalg.solve(factor.T, (factor * signs).T).T)
            + time_reversal * (np.eye(2 * n) - projector))


def lndelta_resolvent_quadrature(
    state: GaussianState,
    region: Region,
    quad_tol: float = 1e-10,
) -> QuadratureResult:
    """ln Delta from the resolvent integral, no spectral calculus involved.

    Integrates ``2 A (A^2 - s^2)^{-1}`` over s in (0, 1] (the substitution
    t = 1/s of the arcoth resolvent integral over t in [1, inf)), as one
    trapezoid sum in s = tanh t over tridiagonal solves (:func:`_tanh_rule`)
    that share no step with route (a), which takes ``eigh`` of A and never
    forms A^2.  Both H_L and its mu-orthogonal complement are invariant
    under A, and ln Delta vanishes on the complement, so the solves run in
    the 4r-dimensional orthonormal basis of H_L (r region sites) and the
    integral is lifted to phase space once at the end.  The lift is an
    isometry, so the nodes, the Frobenius error estimate and ``n_evals``
    are those of the full-space integrand; ``quad_tol`` is an absolute bound
    on that estimate, the measured difference of the last two step sizes,
    for the whole ln Delta.

    Raises :class:`QuadratureNotConverged` when that difference cannot be
    pushed below ``quad_tol`` within ``MAX_QUAD_EVALS`` (200 000) solves.
    Raises :class:`NumericalError` when a resolvent ``A^2 - s^2`` is not
    positive definite to its tridiagonal LDL^T factorization.
    """
    sub = _require_standard(state, region)
    integral, err, n_evals = _resolvent_quadrature(sub, quad_tol)
    return QuadratureResult(sub.lift(integral), err, n_evals)


def _resolvent_quadrature(sub: _SubspaceFrame, quad_tol: float):
    """``(integral, error_bound, n_evals)`` of ln Delta on H_L in the basis
    ``q_basis``: :func:`_tanh_rule` on ``Z = a_hl^2 - 1`` against ``2 a_hl``,
    which is SPD when every |eig a_hl| > 1."""
    a_hl = sub.a_hl
    return _tanh_rule(symmetrize(a_hl @ a_hl) - np.eye(len(a_hl)), 2.0 * a_hl, quad_tol)


def _region_quadrature(rc: RestrictedCorrelators, quad_tol: float):
    """Route (c): ``(block, error_bound, n_evals)`` for the region block
    ``[[0, 2 M], [-2 N, 0]]`` of ``I ln Delta`` from the restriction alone.

    On H_L, A^2 is block-diagonal with the r x r blocks 4 P_R X_R and
    4 X_R P_R, so the resolvent integral is ``M = P_R g(4 X_R P_R)`` and
    ``N = X_R g(4 P_R X_R)``, ``g(l) = int_0^1 2 (l - s^2)^{-1} ds``.  With
    the Cholesky factor ``X_R = R R^T`` both are functions of the symmetric
    ``Z + 1 = 4 R^T P_R R``, of spectrum 4 c^2: ``G = g(Z + 1)`` gives
    ``M = P_R R G R^{-1}`` and ``N = R G R^T``.  G is :func:`_tanh_rule` on Z
    against 2; its measured error is that of the block it lifts to.  X_R, a
    principal block of a checked X kept by regularization, has its smallest
    eigenvalue above ``EIG_CLAMP`` too (Cauchy interlacing): it is factored once.
    """
    chol, r = _gram_factor(rc.X_R), rc.size
    p_chol = rc.P_R @ chol

    def block(g: np.ndarray) -> np.ndarray:
        out = np.zeros((2 * r, 2 * r))
        # P_R R G R^{-1}: solve R^T Y = (P_R R G)^T
        out[:r, r:] = 2.0 * scipy.linalg.solve_triangular(
            chol, (p_chol @ g).T, trans="T", lower=True).T
        out[r:, :r] = -2.0 * chol @ g @ chol.T
        return out

    z = symmetrize(4.0 * chol.T @ p_chol) - np.eye(r)
    return _tanh_rule(z, 2.0 * np.eye(r), quad_tol, lift=block)


def _tanh_rule(z: np.ndarray, rhs: np.ndarray, quad_tol: float, lift=None):
    """``(lift(F), error_bound, n_evals)`` for
    ``F = int_0^inf (Z + sech^2 t)^{-1} rhs sech^2 t dt``, Z symmetric with
    spectrum above -sech^2 t at every node; ``lift`` is linear, the identity
    by default.  With s = tanh t, F is ``int_0^1 (Z + 1 - s^2)^{-1} rhs ds``,
    whose resolvent ``Z + 1 - tanh^2 t`` would cancel.  For an eigenvalue
    l > 0 of Z the integrand 1 / (l cosh^2 t + 1) is even in t with its poles
    on Im t = +-pi/2 whatever l is, so the trapezoid sum
    ``h (f(0) / 2 + sum_k f(k h))`` converges like exp(-pi^2 / h) uniformly in
    the gap (Trefethen and Weideman, SIAM Rev. 56 (2014) 385).  h starts at 1
    and halves, each halving adding the odd nodes only, until the measured
    ``||lift(F_h) - lift(F_{h/2})||_F``, the returned bound, is at most
    ``quad_tol``; a sweep ends past t = 1 at its first term below
    1e-3 ``quad_tol``, where the terms decay like exp(-2 t).  One Householder
    reduction ``Q^T Z Q = T`` (``dgehrd``) makes T tridiagonal: each node is
    an O(k m) ``dptsv`` solve of T + sech^2 t against ``Q^T rhs``, and Q
    lifts each sum back."""
    require_tolerance("quad_tol", quad_tol)
    tri, q = scipy.linalg.hessenberg(z, calc_q=True)
    # dptsv's wrapper takes an off-diagonal of length max(k - 1, 1)
    diag, off = np.diag(tri), np.diag(tri, -1) if len(tri) > 1 else np.zeros(1)
    rhs = np.asfortranarray(q.T @ rhs)
    n_evals, err = 0, np.inf

    def node(t: float) -> np.ndarray:
        nonlocal n_evals
        if n_evals >= MAX_QUAD_EVALS:
            raise QuadratureNotConverged(
                f"quadrature error {err:.3e} above tolerance {quad_tol:.3e} "
                f"after {n_evals} evaluations",
                achieved_error=err,
            )
        decay = np.exp(-2.0 * t)
        sech_sq = 4.0 * decay / (1.0 + decay) ** 2  # underflows to 0, never overflows
        _, _, sol, info = dptsv(diag + sech_sq, off, rhs)
        if info > 0:
            raise NumericalError(
                f"resolvent Z + 1 - s^2 not positive definite at "
                f"s = {float((1.0 - decay) / (1.0 + decay))!r}: "
                f"Cholesky pivot {info} of {len(diag)}"
            )
        n_evals += 1
        return sech_sq * sol

    def sweep(h: float, stride: int) -> np.ndarray:
        """h times the sum of the nodes k h for k = 1, 1 + stride, ... to the sweep's end."""
        total, k = 0.0, 1
        while True:
            share = h * node(k * h)
            total = total + share
            if k * h > 1.0 and frob(share) < 1e-3 * quad_tol:
                return total
            k += stride

    def lifted(total: np.ndarray) -> np.ndarray:
        return q @ total if lift is None else lift(q @ total)

    h, integral = 1.0, 0.5 * node(0.0) + sweep(1.0, 1)
    value = lifted(integral)
    while err > quad_tol:
        h *= 0.5
        integral = 0.5 * integral + sweep(h, 2)
        finer = lifted(integral)
        err, value = frob(finer - value), finer
    return value, err, n_evals


def _arccot_split(sub: _SubspaceFrame, rc: RestrictedCorrelators, block) -> np.ndarray:
    """The region ``block`` beside the complement block, where ``rc``
    restricts the pure ``sub.state`` to ``sub.region``.

    Purity pairs each region mode (c, B, B^{-1}) with one complement mode at
    the same c and leaves the rest at c = 1/2, where ln Delta = 0 (Botero
    and Reznik, Phys. Rev. A 67, 052311 (2003)).  With ``a = X_CR B`` and
    ``p = P_CR B^{-T}``, ``4 X P = 1`` gives ``s^2 = c^2 - 1/4 = -diag(a^T p)``
    with no subtraction, and the complement's kernels, in O(n r^2), are
    ``M_C = p diag(c^2 f(c) / s^2) p^T`` and ``N_C = a diag(f(c) / s^2) a^T``.
    """
    state, n = sub.state, sub.state.n_sites
    comp = sub.region.complement(n).indices()
    x_cr, p_cr = state.gather(comp, sub.region.indices())
    c, frame, frame_inv = rc.modes
    a, p = x_cr @ frame, p_cr @ frame_inv.T
    vals = _log_ratio(c) / -np.einsum("ij,ij->j", a, p)
    out = np.zeros((2 * n, 2 * n))
    out[np.ix_(sub.sel, sub.sel)] = block
    out[np.ix_(comp, n + comp)] = -2.0 * (p * (c**2 * vals)) @ p.T
    out[np.ix_(n + comp, comp)] = 2.0 * (a * vals) @ a.T
    return out
