"""Internal dense linear-algebra helpers.

Everything here reduces to symmetric eigenproblems, Cholesky factors or
linear solves:

- Functions of the non-symmetric product X P are evaluated in its Williamson
  frame: with the Cholesky factor P = L L^T and L^T X L = U diag(c^2) U^T,
  B = L U gives P = B B^T, X = B^{-T} diag(c^2) B^{-1} and
  f(X P) = B^{-T} f(c^2) B^T.
- Matrix-valued integrals use an adaptive Gauss-Kronrod 15(7) rule with a
  Frobenius-norm error estimate and a hard evaluation cap.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg

from .errors import InvalidParameter, NumericalError, QuadratureNotConverged

# Eigenvalues of an SPD matrix below this are treated as zero modes.
EIG_CLAMP = 1e-14
# Correlators whose relative asymmetry ||M - M^T|| / ||M|| exceeds this are refused.
SYMMETRY_TOL = 1e-12


def frob(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    """Relative Frobenius distance ||a - b|| / ||b|| (0 for two zero matrices)."""
    nb = frob(b)
    if nb == 0.0:
        return frob(a)
    return frob(a - b) / nb


def require_symmetric(x_asym: float, p_asym: float, suffix: str = "") -> None:
    """Raise :class:`NumericalError` for an asymmetry of X or P above ``SYMMETRY_TOL``."""
    for name, asym in (("X" + suffix, x_asym), ("P" + suffix, p_asym)):
        if asym > SYMMETRY_TOL:
            raise NumericalError(f"{name} lost symmetry: {asym:.3e}")


def symmetrize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


def require_tolerance(name: str, value: float) -> None:
    """Raise :class:`InvalidParameter` unless ``value`` is finite and positive."""
    if not 0 < value < np.inf:
        raise InvalidParameter(f"{name} must be finite and positive, got {value!r}")


class ModeData(NamedTuple):
    """Williamson frame of X P for SPD X, P: ``c`` are the square roots of the
    eigenvalues of X P in ascending order, and ``frame`` is B with
    ``P = B B^T`` and ``X = B^{-T} diag(c^2) B^{-1}``; ``frame_inv`` is B^{-1}."""

    c: np.ndarray
    frame: np.ndarray
    frame_inv: np.ndarray


def product_spectrum(x_mat: np.ndarray, p_mat: np.ndarray) -> ModeData:
    """Mode data of X P from one Cholesky factor ``P = L L^T`` and one
    eigendecomposition of the symmetric ``L^T X L = U diag(c^2) U^T``, which
    is similar to X P; the frame is B = L U."""
    try:
        chol = np.linalg.cholesky(p_mat)
    except np.linalg.LinAlgError:
        raise NumericalError("P correlator is not positive definite") from None
    lam, vecs = np.linalg.eigh(symmetrize(chol.T @ x_mat @ chol))
    c = np.sqrt(np.clip(lam, 0.0, None))
    # B^{-1} = U^T L^{-1}: solve L^T B^{-T} = U
    frame_inv_t = scipy.linalg.solve_triangular(chol, vecs, trans="T", lower=True)
    return ModeData(c, chol @ vecs, frame_inv_t.T)


# Gauss-Kronrod 15(7) nodes and weights on [-1, 1].
_GK_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_GK_KRONROD_W = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_GK_GAUSS_W = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])


def adaptive_matrix_quadrature(
    integrand: Callable[[float], np.ndarray],
    a: float,
    b: float,
    abs_tol: float,
    max_evals: int = 200_000,
):
    """Adaptively integrate a matrix-valued function over [a, b].

    Bisects the segment with the largest Kronrod-Gauss discrepancy until the
    summed error estimate drops below ``abs_tol``.  Raises
    :class:`QuadratureNotConverged` when the evaluation cap is reached.

    Returns ``(integral, error_bound, n_evals)``.
    """
    evals = 0

    def gk_segment(lo: float, hi: float):
        nonlocal evals
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        kronrod = gauss = 0.0  # summed in node order as evaluated: one value alive at a time
        for i, xi in enumerate(_GK_NODES):
            value = integrand(mid + half * xi)
            kronrod += _GK_KRONROD_W[i] * value
            if i % 2:
                gauss += _GK_GAUSS_W[i // 2] * value
        evals += len(_GK_NODES)
        kronrod, gauss = half * kronrod, half * gauss
        return kronrod, frob(kronrod - gauss)

    segments = [(a, b, *gk_segment(a, b))]
    while True:
        total_err = sum(seg[3] for seg in segments)
        if total_err <= abs_tol:
            break
        if evals >= max_evals:
            raise QuadratureNotConverged(
                f"quadrature error {total_err:.3e} above tolerance "
                f"{abs_tol:.3e} after {evals} evaluations",
                achieved_error=total_err,
            )
        segments.sort(key=lambda seg: seg[3], reverse=True)
        lo, hi, _, _ = segments.pop(0)
        mid = 0.5 * (lo + hi)
        segments.append((lo, mid, *gk_segment(lo, mid)))
        segments.append((mid, hi, *gk_segment(mid, hi)))

    return sum(seg[2] for seg in segments), total_err, evals
