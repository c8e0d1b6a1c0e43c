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

with ``f(c) = ln((2c + 1)/(2c - 1)) / (2c)``.  In a pure state the same frame
gives the complement's kernels, for the split of :func:`modham.crosscheck.route_agreement`.

Eigenvalues at c = 1/2 are unentangled directions where the generator
diverges logarithmically; they are a hard error.  The one way off 1/2 is
:func:`regularize_correlators`, which rebuilds P_R into a nearby valid
state whose spectrum keeps an explicit gap, so every generator is the
generator of a state.  :func:`purify_restriction` turns a restricted state
into a pure state on a doubled region that restricts back to it bit for
bit, the clean way to study degenerate regions with the full-space machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg.blas import dsyr2k
from scipy.linalg.lapack import dpotrf

from ._linalg import ModeData, frob, product_spectrum, require_tolerance, symmetrize
from .errors import (
    EmptyRegion,
    InvalidParameter,
    ModhamError,
    ModularDivergence,
    NumericalError,
    PositivityViolation,
)
from .lattice import GaussianState, _eps_matrix, _two_point_kernel
from .regions import Region, validate_region

POSITIVITY_TOL = 1e-10
DEFAULT_SING_TOL = 1e-10


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
    M: np.ndarray = field(repr=False)
    N: np.ndarray = field(repr=False)
    L_block: np.ndarray = field(repr=False)
    c_spectrum: np.ndarray = field(repr=False)


def _log_ratio(c: np.ndarray) -> np.ndarray:
    """The scalar map f(c) = ln((2c + 1)/(2c - 1)) / (2c), c > 1/2."""
    return np.log((2.0 * c + 1.0) / (2.0 * c - 1.0)) / (2.0 * c)


def _require_positive(c: np.ndarray) -> np.ndarray:
    """An ascending c-spectrum, once its first entry has ``c |c| >= 1/4 - POSITIVITY_TOL``
    (``c |c|`` is the spectrum c^2 of X_R P_R, and negative for an unphysical c < 0)."""
    signed_square = c[0] * abs(c[0])
    if signed_square < 0.25 - POSITIVITY_TOL:
        raise PositivityViolation(
            f"spec(X_R P_R) reaches {signed_square:.12e} < 1/4 - {POSITIVITY_TOL:g}"
        )
    return c


def restrict_correlators(state: GaussianState, region: Region) -> RestrictedCorrelators:
    """Principal submatrices of the correlators on the region's sites,
    checked with their mode data (the state stores X and P exactly symmetric).

    Raises :class:`EmptyRegion` for an empty region and
    :class:`PositivityViolation` when the spectrum of X_R P_R drops below
    1/4 - 1e-10, which signals an invalid state or numerical breakdown.
    """
    if len(region) == 0:
        raise EmptyRegion("cannot restrict correlators to an empty region")
    validate_region(region, state.n_sites)
    rc = RestrictedCorrelators(region, *state.gather(region.indices(), region.indices()))
    _require_positive(symplectic_spectrum(rc))
    return rc


def nested_spectra(state: GaussianState, site_sets) -> list:
    """The c-spectrum of each of a family of nested, non-empty sets of
    sites (sequences such as ``range(start, stop)`` or ``Region.sites``), or
    the error :func:`restrict_correlators` raises for it, in the given order.

    Every set is a leading block of one window, its sites ordered by the
    smallest set that contains them.  The window's ``P = L L^T`` is
    factored once, and ``M_k = L_k^T X_k L_k`` grows by bordering: with the
    new rows ``[L_b, L_c]`` of L, columns ``[X_b; X_c]`` of X and
    ``A = L_k^T X_b``, its blocks are ``M_k + A L_b + L_b^T A^T + L_b^T X_c L_b``,
    ``(A + L_b^T X_c) L_c`` and ``L_c^T X_c L_c``.  Each length is checked as a
    restriction is: the gathered window is exactly symmetric.
    """
    window = []
    for sites in sorted(site_sets, key=len):
        window += sorted(set(sites).difference(window))
        if len(window) != len(sites):
            raise InvalidParameter("the site sets of a sweep must be nested")
    x_w, p_w = state.gather(window, window)
    chol, info = dpotrf(p_w, lower=True)
    m_w = np.zeros_like(x_w, order="F")  # lower triangle only, as eigvalsh reads it
    done, spectra = 0, {}
    for k in sorted({len(sites) for sites in site_sets}):
        try:
            if 0 < info <= k:
                raise NumericalError("P correlator is not positive definite")
            l_b, l_c = chol[done:k, :done], chol[done:k, done:k]
            a, y = chol[:done, :done].T @ x_w[:done, done:k], l_b.T @ x_w[done:k, done:k]
            if done:  # the top-left update is (A + Y/2) L_b + its transpose, Y = L_b^T X_c
                m_w[:done, :done] = dsyr2k(1.0, a + 0.5 * y, l_b.T, beta=1.0,
                                           c=m_w[:done, :done], lower=True)
            m_w[done:k, :done] = ((a + y) @ l_c).T
            m_w[done:k, done:k] = l_c.T @ x_w[done:k, done:k] @ l_c
            done = k
            lam = np.linalg.eigvalsh(m_w[:k, :k])
            spectra[k] = _require_positive(np.sqrt(np.clip(lam, 0.0, None)))
        except ModhamError as exc:
            spectra[k] = exc
    return [spectra[len(sites)] for sites in site_sets]


def symplectic_spectrum(rc: RestrictedCorrelators) -> np.ndarray:
    """Eigenvalues of C = sqrt(X_R P_R) in ascending order."""
    return rc.modes.c


def mn_kernels(rc: RestrictedCorrelators, sing_tol: float = DEFAULT_SING_TOL) -> RegionKernels:
    """M and N kernels and the block generator of a restricted state.

    Modes with ``c - 1/2 <= sing_tol`` raise :class:`ModularDivergence`;
    :func:`regularize_correlators` gives the nearby state whose generator
    exists.  A ``sing_tol`` that is not finite and positive raises
    :class:`InvalidParameter`.
    """
    require_tolerance("sing_tol", sing_tol)
    c, frame, frame_inv = rc.modes
    offending = c - 0.5 <= sing_tol
    if offending.any():
        raise ModularDivergence(
            f"{int(offending.sum())} mode(s) within {sing_tol:g} of "
            f"c = 1/2; the modular generator diverges on nearly "
            f"unentangled modes (regularize_correlators moves them off 1/2)",
            eigenvalues=c[offending],
        )
    vals = _log_ratio(c)
    m_kernel = (frame * vals) @ frame.T
    n_kernel = (frame_inv.T * (c**2 * vals)) @ frame_inv
    r = rc.size
    block = np.zeros((2 * r, 2 * r))
    block[:r, r:] = 2.0 * m_kernel
    block[r:, :r] = -2.0 * n_kernel
    return RegionKernels(region=rc.region, M=m_kernel, N=n_kernel, L_block=block, c_spectrum=c)


def lndelta_region_via_G(
    rc: RestrictedCorrelators,
    sing_tol: float = DEFAULT_SING_TOL,
) -> np.ndarray:
    """Region generator from the two-point function kernel.

    Assembles ``2 eps G|_R + i 1`` = [[0, 2 P_R], [-2 X_R, 0]]: its imaginary
    parts, the constants ``+-i/2`` of G against ``i 1``, cancel exactly in
    floating point too, so no check is needed.  It diagonalizes the real
    matrix with a nonsymmetric eigensolver and applies ``-2 arccot``
    (principal branch) to its purely imaginary eigenvalues ``+-2ic``.  No
    step uses the mode data ``rc.modes`` of the M/N route, so the result is
    an independent evaluation of ``L_block``.

    Raises :class:`ModularDivergence` when an eigenvalue comes within
    ``sing_tol`` of ``+-i`` (a mode at c = 1/2).  Returns the real 2r x 2r
    matrix equal to ``L_block`` of :func:`mn_kernels`; ``sing_tol`` is
    checked as there.
    """
    require_tolerance("sing_tol", sing_tol)
    r = rc.size
    g_r = _two_point_kernel(rc.X_R, rc.P_R)
    # the -i that the constants of G leave on the diagonal meets +i exactly
    q_real = (2.0 * _eps_matrix(r) @ g_r + 1j * np.eye(2 * r)).real
    evals, vecs = np.linalg.eig(q_real)
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
    to zero at c = 1/2.  A non-finite c raises :class:`InvalidParameter`, and
    a c below 1/2 by more than the restriction's check allows raises
    :class:`PositivityViolation`.
    """
    if isinstance(kernels, RegionKernels):
        kernels = kernels.c_spectrum
    c = np.asarray(kernels, dtype=float)
    if not np.isfinite(c).all():
        raise InvalidParameter(f"entropy of a non-finite c-spectrum: {c.tolist()}")
    if c.size:
        _require_positive(np.sort(c, axis=None))
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
    :class:`InvalidParameter`, and one so large that the new P_R has no
    finite Frobenius norm in double precision :class:`NumericalError`.
    """
    require_tolerance("min_gap", min_gap)
    c, frame, _ = rc.modes
    clipped = np.flatnonzero(c < 0.5 + min_gap)
    if clipped.size == 0:
        return rc, ()
    c_eff = np.maximum(c, 0.5 + min_gap)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        p_new = (frame * (c_eff / c) ** 2) @ frame.T
        p_norm = frob(p_new)
    if not np.isfinite(p_norm):
        raise NumericalError(f"P_R regularized to gap {min_gap:g} is not finite in double "
                             f"precision: ||P_R|| = {p_norm}")
    out = RestrictedCorrelators(rc.region, rc.X_R, symmetrize(p_new))
    return out, tuple(int(i) for i in clipped)


def purify_restriction(rc: RestrictedCorrelators) -> tuple[GaussianState, Region]:
    """Embed a restricted state as the left half of a pure two-block state.

    Each mode of C with eigenvalue c is paired with an ancilla mode in a
    two-mode squeezed state, the thermofield double (Botero and Reznik, Phys.
    Rev. A 67, 052311 (2003)).  With ``q = sqrt(c^2 - 1/4)``, the pure state
    on 2r sites has the blocks X_R and P_R on the region, diag(c) on the
    ancilla and ``B^{-T} diag(sqrt(c) q)``, ``-B diag(q / sqrt(c))`` across,
    symmetrized as assembled, so it restricts back to a symmetric X_R and
    P_R bit for bit.  Returns the pure state and the embedded region.

    Modes must satisfy c >= 1/2; regularize first if the input contains
    machine-degenerate modes and downstream code needs a spectral gap.
    """
    c, frame, frame_inv = rc.modes
    if np.any(c < 0.5 - POSITIVITY_TOL):
        raise PositivityViolation(f"cannot purify: min c = {c.min():.12f} below 1/2")
    c = np.maximum(c, 0.5)
    q = np.sqrt(c**2 - 0.25)
    x_cross, p_cross = frame_inv.T * (np.sqrt(c) * q), -frame * (q / np.sqrt(c))
    x_big, p_big = (symmetrize(np.block([[block, cross], [cross.T, np.diag(c)]]))
                    for block, cross in ((rc.X_R, x_cross), (rc.P_R, p_cross)))
    return GaussianState.from_correlators(x_big, p_big), Region(range(rc.size))
