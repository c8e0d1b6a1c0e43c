"""Reference computations the benchmark checks modham's outputs against.

Nothing here imports modham: every reference is computed from the raw
correlator blocks (or from the closed-form chain modes) with numpy, scipy
and mpmath directly.
"""

from __future__ import annotations

import mpmath
import numpy as np
import scipy.linalg

ROUTE_GATE = 1e-7  # modham's gate for routes, the flow generator and KMS
ENTROPY_RTOL = 1e-9
T_GRID = (-1.0, -0.5, 0.0, 0.5, 1.0)


def rel(a, b) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def g_kernel(x_r, p_r) -> np.ndarray:
    """``G|_R = [[X_R, i/2], [-i/2, P_R]]``."""
    r = x_r.shape[0]
    eye = np.eye(r)
    return np.block([[x_r, 0.5j * eye], [-0.5j * eye, p_r]])


def eps_matrix(r: int) -> np.ndarray:
    eye, zero = np.eye(r), np.zeros((r, r))
    return np.block([[zero, eye], [-eye, zero]])


def mp_flow_generator(x_r, p_r, dps: int = 40) -> np.ndarray:
    """``-i ln((G|_R)^-1 G^T|_R)`` in mpmath at ``dps`` digits."""
    with mpmath.workdps(dps):
        g = mpmath.matrix(g_kernel(x_r, p_r).tolist())
        ratio = mpmath.inverse(g) * g.T
        evals, vecs = mpmath.eig(ratio)
        log_ratio = vecs * mpmath.diag([mpmath.log(e) for e in evals]) * mpmath.inverse(vecs)
        n = log_ratio.rows
        return np.array(
            [[float(mpmath.im(log_ratio[i, j])) for j in range(n)] for i in range(n)]
        )


def logm_flow_generator(x_r, p_r) -> np.ndarray:
    """The same closed form in double precision with ``scipy.linalg.logm``.

    Accurate only while the spectral gap c - 1/2 stays well above 1e-6.
    """
    g = g_kernel(x_r, p_r)
    return (-1j * scipy.linalg.logm(np.linalg.solve(g, g.T))).real


def _clipped_modes(x_r, p_r, gap: float):
    """``X_R P_R = V diag(c^2) V^-1`` from ``scipy.linalg.eig`` of the nonsymmetric
    product, with every c raised to at least 1/2 + gap.

    Returns ``(c_eff, V, V^-1)``.  No SPD square root or symmetric similarity
    is involved, so this shares no step with modham's mode route.
    """
    lam, vecs = scipy.linalg.eig(x_r @ p_r)
    c = np.sqrt(np.clip(lam.real, 0.25, None))
    return np.maximum(c, 0.5 + gap), vecs, np.linalg.inv(vecs)


def regularized_momentum(x_r, p_r, gap: float) -> np.ndarray:
    """P_R rebuilt so that X_R P_R keeps its eigenvectors and every c is at least 1/2 + gap."""
    c_eff, vecs, vecs_inv = _clipped_modes(x_r, p_r, gap)
    p_new = np.linalg.solve(x_r, ((vecs * c_eff**2) @ vecs_inv).real)
    return 0.5 * (p_new + p_new.T)


def clipped_block_generator(x_r, p_r, gap: float) -> np.ndarray:
    """``[[0, 2 P_R f], [-2 f X_R, 0]]`` with ``f = ln((2c+1)/(2c-1))/(2c)`` of X_R P_R
    evaluated at max(c, 1/2 + gap)."""
    c_eff, vecs, vecs_inv = _clipped_modes(x_r, p_r, gap)
    vals = np.log((2 * c_eff + 1) / (2 * c_eff - 1)) / (2 * c_eff)
    f = ((vecs * vals) @ vecs_inv).real
    r = x_r.shape[0]
    block = np.zeros((2 * r, 2 * r))
    block[:r, r:] = 2.0 * p_r @ f
    block[r:, :r] = -2.0 * f @ x_r
    return block


def expm_residuals(generator, x_r, p_r, t_grid=T_GRID):
    """Max KMS and symplectic residuals of ``K(t) = expm(t L)`` on a grid.

    KMS: ``G^T K(t - i) = G K(t)``; symplectic: ``K^T eps K = eps``.
    """
    g = g_kernel(x_r, p_r)
    eps = eps_matrix(x_r.shape[0])
    kms = symp = 0.0
    for t in t_grid:
        k_real = scipy.linalg.expm(t * generator)
        k_shift = scipy.linalg.expm((t - 1j) * generator)
        rhs = g @ k_real
        kms = max(kms, float(np.linalg.norm(g.T @ k_shift - rhs) / np.linalg.norm(rhs)))
        defect = k_real.T @ eps @ k_real - eps
        symp = max(symp, float(np.linalg.norm(defect) / np.linalg.norm(eps)))
    return kms, symp


def entropy_of_modes(c) -> float:
    c = np.asarray(c, dtype=float)
    cm = np.clip(c - 0.5, 0.0, None)
    minus = np.where(cm > 0.0, cm * np.log(np.where(cm > 0.0, cm, 1.0)), 0.0)
    return float(np.sum((c + 0.5) * np.log(c + 0.5) - minus))


def entropy_from_eigvals(x_r, p_r) -> float:
    """Entropy from the nonsymmetric eigenvalues of X_R P_R."""
    lam = scipy.linalg.eigvals(x_r @ p_r).real
    return entropy_of_modes(np.sqrt(np.clip(lam, 0.25, None)))


def dirichlet_correlators(n: int, mass: float):
    """Vacuum X and P of a Dirichlet chain from its closed-form sine modes."""
    k = np.arange(1, n + 1)
    j = np.arange(1, n + 1)
    modes = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(j, k) / (n + 1))
    omega = np.sqrt(mass**2 + 4.0 * np.sin(np.pi * k / (2.0 * (n + 1))) ** 2)
    x = (modes / (2.0 * omega)) @ modes.T
    p = (modes * (0.5 * omega)) @ modes.T
    return x, p


def interval_entropy_cholesky(x, p, start: int, length: int) -> float:
    """Entropy of sites ``start..start+length-1`` via a Cholesky similarity."""
    sl = slice(start, start + length)
    chol = np.linalg.cholesky(x[sl, sl])
    lam = scipy.linalg.eigvalsh(chol.T @ p[sl, sl] @ chol)
    return entropy_of_modes(np.sqrt(np.clip(lam, 0.25, None)))


def zero_mode_slope(lengths, entropies, mass: float) -> float:
    """``a`` of the fit ``S = a ln l + b ln ln(1/(m l)) + c``."""
    ell = np.asarray(lengths, dtype=float)
    design = np.vstack([np.log(ell), np.log(np.log(1.0 / (mass * ell))), np.ones_like(ell)]).T
    coef, *_ = np.linalg.lstsq(design, np.asarray(entropies), rcond=None)
    return float(coef[0])
