"""Restricted correlators, the operator C = sqrt(X P) and the M/N kernels.

Restricting the pure-state correlators to a region R gives SPD matrices
X_R, P_R whose product has spectrum bounded below by 1/4 (the uncertainty
bound of a valid state).  Writing ``C = sqrt(X_R P_R)`` with eigenvalues
``c >= 1/2``, the region block of the modular generator reads

    I ln Delta |_R = [[0, 2 M], [-2 N, 0]],
    M = P_R (2C)^{-1} ln((2C + 1)(2C - 1)^{-1}),
    N = (2C)^{-1} ln((2C + 1)(2C - 1)^{-1}) X_R ,

where every function of the non-symmetric product X_R P_R is evaluated in
its Williamson frame.  With the Cholesky factor ``P_R = L L^T`` and
``L^T X_R L = U diag(c^2) U^T``, the frame ``B = L U`` gives
``P_R = B B^T`` and ``X_R = B^{-T} diag(c^2) B^{-1}``, so that

    C = B^{-T} diag(c) B^T,   M = B f(c) B^T,   N = B^{-T} diag(c^2) f(c) B^{-1}

with ``f(c) = ln((2c + 1)/(2c - 1)) / (2c)``.

Eigenvalues at c = 1/2 are unentangled directions where the generator
diverges logarithmically; they are a hard error.  The one way off 1/2 is
:func:`regularize_correlators`, which rebuilds P_R into a nearby valid
state whose spectrum keeps an explicit gap, so every generator is the
generator of a state.  :func:`purify_restriction` turns a restricted state
into a pure two-block state on a doubled region, which is the clean way to
study degenerate regions with the full-space machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._linalg import ModeData, frob, product_spectrum, product_values, symmetrize
from .errors import (
    EmptyRegion,
    InvalidParameter,
    ModularDivergence,
    NumericalError,
    PositivityViolation,
)
from .lattice import GaussianState, _eps_matrix, _two_point_kernel
from .regions import Region, validate_region

POSITIVITY_TOL = 1e-10
SYMMETRY_TOL = 1e-12
DEFAULT_SING_TOL = 1e-10
PR_COND_LIMIT = 1e12


@dataclass(frozen=True)
class RestrictedCorrelators:
    """Field and momentum correlators restricted to a region.

    ``modes`` is the mode data of X_R P_R: the c-spectrum in ascending
    order and the Williamson frame B with its inverse (``P_R = B B^T``,
    ``X_R = B^{-T} diag(c^2) B^{-1}``).  It is computed on first access,
    once per instance, and every spectral function of the restriction
    reads it.
    """

    region: Region
    X_R: np.ndarray = field(repr=False)
    P_R: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.region)

    @cached_property
    def modes(self) -> ModeData:
        return product_spectrum(self.X_R, self.P_R)


@dataclass(frozen=True)
class RegionKernels:
    """The region-restricted generator data.

    ``L_block`` is the 2r x 2r block matrix [[0, 2M], [-2N, 0]] equal to the
    region block of ``I ln Delta``.  ``c_spectrum`` holds the eigenvalues of
    C in ascending order.
    """

    region: Region
    C: np.ndarray = field(repr=False)
    M: np.ndarray = field(repr=False)
    N: np.ndarray = field(repr=False)
    L_block: np.ndarray = field(repr=False)
    c_spectrum: np.ndarray = field(repr=False)


def _log_ratio(c: np.ndarray) -> np.ndarray:
    """The scalar map f(c) = ln((2c + 1)/(2c - 1)) / (2c), c > 1/2."""
    return np.log((2.0 * c + 1.0) / (2.0 * c - 1.0)) / (2.0 * c)


def _checked_restriction(state: GaussianState, region: Region, spectrum):
    """The region's correlators and their c-spectrum ``spectrum(rc)``.

    Raises :class:`EmptyRegion` for an empty region and
    :class:`PositivityViolation` when the spectrum of X_R P_R drops below
    1/4 - 1e-10, which signals an invalid state or numerical breakdown.
    """
    if len(region) == 0:
        raise EmptyRegion("cannot restrict correlators to an empty region")
    validate_region(region, state.n_sites)
    idx = region.indices()
    grid = np.ix_(idx, idx)
    x_r = np.asarray(state.X_full[grid])
    p_r = np.asarray(state.P_full[grid])
    for name, mat in (("X_R", x_r), ("P_R", p_r)):
        asym = frob(mat - mat.T) / max(frob(mat), 1e-300)
        if asym > SYMMETRY_TOL:
            raise NumericalError(f"{name} lost symmetry: {asym:.3e}")
    rc = RestrictedCorrelators(region, symmetrize(x_r), symmetrize(p_r))
    c = spectrum(rc)
    c_min = float(c[0])
    if c_min**2 < 0.25 - POSITIVITY_TOL:
        raise PositivityViolation(
            f"spec(X_R P_R) reaches {c_min**2:.12e} < 1/4 - {POSITIVITY_TOL:g}"
        )
    return rc, c


def restrict_correlators(state: GaussianState, region: Region) -> RestrictedCorrelators:
    """Principal submatrices of the correlators on the region's sites,
    checked with their mode data (errors: see :func:`_checked_restriction`)."""
    return _checked_restriction(state, region, symplectic_spectrum)[0]


def restricted_spectrum(state: GaussianState, region: Region) -> np.ndarray:
    """The region's ascending c-spectrum, values only, under the checks of
    :func:`restrict_correlators` (positivity of ``L^T X_R L`` implies X_R > 0)."""
    return _checked_restriction(state, region, lambda rc: product_values(rc.X_R, rc.P_R))[1]


def symplectic_spectrum(rc: RestrictedCorrelators) -> np.ndarray:
    """Eigenvalues of C = sqrt(X_R P_R) in ascending order."""
    return rc.modes.c


def compute_C(rc: RestrictedCorrelators) -> np.ndarray:
    """The (generally non-symmetric) square root C with C^2 = X_R P_R.

    Raises :class:`NumericalError` when the condition number of P_R, whose
    factor the frame inverts, exceeds 1e12.
    """
    w = np.linalg.eigvalsh(rc.P_R)
    p_cond = float(w[-1] / w[0])
    if p_cond > PR_COND_LIMIT:
        raise NumericalError(
            f"P_R condition number {p_cond:.3e} exceeds {PR_COND_LIMIT:g}; "
            f"C = sqrt(X P) is unreliable"
        )
    c, frame, frame_inv = rc.modes
    return (frame_inv.T * c) @ frame.T


def mn_block_generator(
    rc: RestrictedCorrelators,
    divergence_tol: float = 0.0,
    zero_below: float | None = None,
) -> np.ndarray:
    """Assemble [[0, 2M], [-2N, 0]] from the mode data of a restriction.

    Low-level routine shared by the kernel and subspace modules.  Modes with
    ``c <= zero_below`` contribute zero (the trivial-direction convention of
    the full-space machinery); modes with ``c - 1/2 <= divergence_tol`` that
    are not mapped to zero raise :class:`ModularDivergence`.
    """
    c, frame, frame_inv = rc.modes
    active = np.ones_like(c, dtype=bool) if zero_below is None else c > zero_below
    offending = (c - 0.5 <= divergence_tol) & active
    if offending.any():
        raise ModularDivergence(
            f"{int(offending.sum())} mode(s) within {divergence_tol:g} of "
            f"c = 1/2; the modular generator diverges on nearly "
            f"unentangled modes (regularize_correlators moves them off 1/2)",
            eigenvalues=c[offending],
        )
    vals = np.zeros_like(c)
    vals[active] = _log_ratio(c[active])
    m_kernel = (frame * vals) @ frame.T
    n_kernel = (frame_inv.T * (c**2 * vals)) @ frame_inv
    r = rc.size
    block = np.zeros((2 * r, 2 * r))
    block[:r, r:] = 2.0 * m_kernel
    block[r:, :r] = -2.0 * n_kernel
    return block


def mn_kernels(rc: RestrictedCorrelators, sing_tol: float = DEFAULT_SING_TOL) -> RegionKernels:
    """M and N kernels and the block generator of a restricted state.

    Modes with ``c - 1/2 <= sing_tol`` raise :class:`ModularDivergence`;
    :func:`regularize_correlators` gives the nearby state whose generator
    exists.
    """
    block = mn_block_generator(rc, divergence_tol=sing_tol)
    r = rc.size
    return RegionKernels(
        region=rc.region,
        C=compute_C(rc),
        M=0.5 * block[:r, r:],
        N=-0.5 * block[r:, :r],
        L_block=block,
        c_spectrum=rc.modes.c,
    )


def lndelta_region_via_G(
    rc: RestrictedCorrelators,
    sing_tol: float = DEFAULT_SING_TOL,
) -> np.ndarray:
    """Region generator from the two-point function kernel.

    Assembles the complex combination ``2 eps G|_R + i 1`` whose imaginary
    parts cancel exactly, leaving [[0, 2 P_R], [-2 X_R, 0]], diagonalizes
    it with a nonsymmetric eigensolver and applies ``-2 arccot`` (principal
    branch) to its purely imaginary eigenvalues ``+-2ic``.  No step uses
    the mode data ``rc.modes`` of the M/N route, so the result is an
    independent evaluation of ``L_block``.

    Raises :class:`ModularDivergence` when an eigenvalue comes within
    ``sing_tol`` of ``+-i`` (a mode at c = 1/2).  Returns the real 2r x 2r
    matrix equal to ``L_block`` of :func:`mn_kernels`.
    """
    r = rc.size
    g_r = _two_point_kernel(rc.X_R, rc.P_R)
    q_complex = 2.0 * _eps_matrix(r) @ g_r + 1j * np.eye(2 * r)
    imag_defect = float(np.max(np.abs(q_complex.imag)))
    if imag_defect > 1e-10:
        raise NumericalError(
            f"imaginary parts of 2 eps G + i did not cancel: {imag_defect:.3e}"
        )
    evals, vecs = np.linalg.eig(q_complex.real)
    if np.any(np.abs(evals - 1j) < sing_tol) or np.any(np.abs(evals + 1j) < sing_tol):
        raise ModularDivergence(
            "eigenvalues of 2 eps G + i within tolerance of +-i; arccot diverges",
            eigenvalues=np.abs(evals.imag) / 2.0,
        )
    arccot = (0.5 / 1j) * np.log((evals + 1j) / (evals - 1j))
    result = -2.0 * (vecs * arccot) @ np.linalg.inv(vecs)
    residual = float(np.max(np.abs(result.imag)))
    if residual > 1e-10 * max(1.0, float(np.max(np.abs(result.real)))):
        raise NumericalError(
            f"complex arccot path left imaginary residual {residual:.3e}"
        )
    return result.real


def entanglement_entropy(kernels) -> float:
    """Von Neumann entropy of the restricted Gaussian state.

    Accepts a :class:`RegionKernels` instance or a bare array of C
    eigenvalues.  The contribution of a mode is
    ``(c + 1/2) ln(c + 1/2) - (c - 1/2) ln(c - 1/2)``, continuously extended
    to zero at c = 1/2.
    """
    if isinstance(kernels, RegionKernels):
        c = np.asarray(kernels.c_spectrum, dtype=float)
    else:
        c = np.asarray(kernels, dtype=float)
    cp = c + 0.5
    cm = np.clip(c - 0.5, 0.0, None)
    plus = cp * np.log(cp)
    minus = np.where(cm > 0.0, cm * np.log(np.where(cm > 0.0, cm, 1.0)), 0.0)
    return float(np.sum(plus - minus))


def regularize_correlators(
    rc: RestrictedCorrelators, min_gap: float
) -> tuple[RestrictedCorrelators, tuple]:
    """Push the c-spectrum away from 1/2 by adjusting the momentum correlator.

    Keeps X_R and rebuilds P_R so that the spectrum of X_R P_R becomes
    ``max(c, 1/2 + min_gap)^2`` in the same frame,
    ``P' = B diag(max(c, 1/2 + min_gap)/c)^2 B^T``.  The result is a
    valid restricted Gaussian state within ``O(min_gap)`` of the input.
    Returns the new correlators and the indices of the adjusted modes.
    A ``min_gap`` that is not finite and positive raises
    :class:`InvalidParameter`.
    """
    if not 0 < min_gap < np.inf:
        raise InvalidParameter(f"min_gap must be finite and positive, got {min_gap!r}")
    c, frame, _ = rc.modes
    clipped = np.flatnonzero(c < 0.5 + min_gap)
    if clipped.size == 0:
        return rc, ()
    c_eff = np.maximum(c, 0.5 + min_gap)
    p_new = (frame * (c_eff / c) ** 2) @ frame.T
    out = RestrictedCorrelators(rc.region, rc.X_R, symmetrize(p_new))
    return out, tuple(int(i) for i in clipped)


def purify_restriction(rc: RestrictedCorrelators) -> tuple[GaussianState, Region]:
    """Embed a restricted state as the left half of a pure two-block state.

    Each mode of C with eigenvalue c is paired with an ancilla mode in a
    two-mode squeezed configuration, giving a pure Gaussian state on 2r
    sites whose restriction to the first r sites reproduces X_R and P_R
    exactly.  Returns the pure state and the embedded region.

    Modes must satisfy c >= 1/2; regularize first if the input contains
    machine-degenerate modes and downstream code needs a spectral gap.
    """
    c, frame, frame_inv = rc.modes
    if np.any(c < 0.5 - POSITIVITY_TOL):
        raise PositivityViolation(
            f"cannot purify: min c = {c.min():.12f} below 1/2"
        )
    c = np.maximum(c, 0.5)
    r = rc.size
    squeeze = np.sqrt(c**2 - 0.25)

    # S = B^{-T} diag(c)^{1/2} gives S diag(c) S^T = X_R and
    # S^{-T} diag(c) S^{-1} = P_R with S^{-T} = B diag(c)^{-1/2}.
    s_mat = frame_inv.T * np.sqrt(c)
    s_inv_t = frame / np.sqrt(c)

    x_nf = np.block([
        [np.diag(c), np.diag(squeeze)],
        [np.diag(squeeze), np.diag(c)],
    ])
    p_nf = np.block([
        [np.diag(c), -np.diag(squeeze)],
        [-np.diag(squeeze), np.diag(c)],
    ])
    zero = np.zeros((r, r))
    eye = np.eye(r)
    s_x = np.block([[s_mat, zero], [zero, eye]])
    s_p = np.block([[s_inv_t, zero], [zero, eye]])
    x_big = symmetrize(s_x @ x_nf @ s_x.T)
    p_big = symmetrize(s_p @ p_nf @ s_p.T)
    return GaussianState.from_correlators(x_big, p_big), Region(range(r))
