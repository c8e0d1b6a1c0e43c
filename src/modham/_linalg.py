"""Internal dense linear-algebra helpers.

Everything here reduces to symmetric eigenproblems, Cholesky factors or
linear solves.  Functions of the non-symmetric product X P are evaluated in
its Williamson frame: with the Cholesky factor P = L L^T and
L^T X L = U diag(c^2) U^T, B = L U gives P = B B^T,
X = B^{-T} diag(c^2) B^{-1} and f(X P) = B^{-T} f(c^2) B^T.  Route (c)'s
matrix-valued resolvent integral is not here: it is one trapezoid sum in
s = tanh t over tridiagonal solves, in :mod:`modham.subspace`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import InvalidParameter, NumericalError

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
    """Raise :class:`InvalidParameter` unless ``value`` is a real number (not a
    bool) that is finite and positive."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise InvalidParameter(f"{name} must be a real number, got {value!r}")
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
