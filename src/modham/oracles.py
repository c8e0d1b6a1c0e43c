"""Independent brute-force oracles for tiny instances.

These deliberately avoid the main pipeline's code paths: scalar formulas
are evaluated in 50-digit arithmetic with mpmath, and the two-site oracle
diagonalizes the Hamiltonian in a truncated occupation basis and partial
traces the density matrix directly.  Each oracle is strictly more accurate
than the double-precision pipeline it validates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import mpmath
import numpy as np

from .errors import (
    DomainError,
    InvalidParameter,
    ModularDivergence,
    TruncationNotConverged,
)
from .lattice import LatticeModel

ORACLE_DPS = 50


@dataclass(frozen=True)
class SingleModeOracle:
    """Closed-form modular data of one mode with correlators (x, p)."""

    c: float
    M: float
    N: float
    L_2x2: np.ndarray = field(repr=False)
    entropy: float = 0.0


@dataclass(frozen=True)
class FockOracleResult:
    """Partial-trace data of the two-site truncated-Fock vacuum."""

    entropy: float
    occupation_spectrum: np.ndarray = field(repr=False)
    n_max: int = 0
    trace_defect: float = 0.0


def oracle_single_mode(x: float, p: float) -> SingleModeOracle:
    """Extended-precision scalar evaluation of c, M, N and the entropy.

    Raises :class:`DomainError` for ``x p < 1/4`` and
    :class:`ModularDivergence` on the purity boundary ``x p = 1/4`` where
    the logarithm diverges.
    """
    if x <= 0 or p <= 0:
        raise InvalidParameter(f"correlators must be positive, got x={x}, p={p}")
    with mpmath.workdps(ORACLE_DPS):
        mx, mp_ = mpmath.mpf(x), mpmath.mpf(p)
        prod = mx * mp_
        quarter = mpmath.mpf(1) / 4
        if prod < quarter:
            raise DomainError(f"x p = {float(prod):.12e} < 1/4")
        c = mpmath.sqrt(prod)
        gap = c - mpmath.mpf(1) / 2
        if gap <= 0:
            raise ModularDivergence(
                "x p = 1/4: unentangled mode, modular data diverges",
                eigenvalues=[float(c)],
            )
        log_ratio = mpmath.log((2 * c + 1) / (2 * c - 1))
        f_val = log_ratio / (2 * c)
        m_val = mp_ * f_val
        n_val = mx * f_val
        entropy = (c + mpmath.mpf(1) / 2) * mpmath.log(c + mpmath.mpf(1) / 2)
        entropy -= gap * mpmath.log(gap)
        l_mat = np.array(
            [[0.0, 2.0 * float(m_val)], [-2.0 * float(n_val), 0.0]]
        )
        return SingleModeOracle(
            c=float(c),
            M=float(m_val),
            N=float(n_val),
            L_2x2=l_mat,
            entropy=float(entropy),
        )


def _site_operators(dim: int, omega: float):
    """Position and momentum-squared operators in an omega oscillator basis."""
    lower = np.diag(np.sqrt(np.arange(1, dim)), k=1)
    raise_ = lower.T
    phi = (lower + raise_) / np.sqrt(2.0 * omega)
    pi_sq = -(omega / 2.0) * (raise_ - lower) @ (raise_ - lower)
    return phi, pi_sq


def _truncated_vacuum_entropy(model: LatticeModel, dim: int, site: int):
    v = model.dynamical_matrix
    omegas = np.sqrt(np.diag(v))
    phi0, pisq0 = _site_operators(dim, omegas[0])
    phi1, pisq1 = _site_operators(dim, omegas[1])
    eye = np.eye(dim)

    h = 0.5 * (np.kron(pisq0, eye) + np.kron(eye, pisq1))
    h += 0.5 * v[0, 0] * np.kron(phi0 @ phi0, eye)
    h += 0.5 * v[1, 1] * np.kron(eye, phi1 @ phi1)
    h += v[0, 1] * np.kron(phi0, phi1)

    _, vecs = np.linalg.eigh(h)
    psi = vecs[:, 0].reshape(dim, dim)
    if site == 1:
        psi = psi.T
    rho = psi @ psi.T
    trace_defect = abs(float(np.trace(rho)) - 1.0)
    spectrum = np.linalg.eigvalsh(rho)[::-1]
    spectrum = np.clip(spectrum, 0.0, None)
    positive = spectrum[spectrum > 1e-300]
    entropy = float(-np.sum(positive * np.log(positive)))
    return entropy, spectrum, trace_defect


def oracle_reduced_density_matrix(
    model: LatticeModel,
    n_max: int = 24,
    region=(0,),
) -> FockOracleResult:
    """Entropy and spectrum of a single site of a two-site chain.

    Builds the Hamiltonian in a truncated two-mode occupation basis,
    diagonalizes it for the vacuum, partial-traces the other site and
    diagonalizes the reduced density matrix.  The run is certified by
    repeating with ``n_max + 4``: an entropy change above 1e-6 raises
    :class:`TruncationNotConverged`, otherwise the finer result is
    returned.
    """
    if model.n_sites != 2:
        raise InvalidParameter("the truncated-Fock oracle needs a two-site chain")
    if n_max < 8:
        raise InvalidParameter(f"n_max must be at least 8, got {n_max}")
    sites = tuple(int(s) for s in getattr(region, "sites", region))
    if sites not in ((0,), (1,)):
        raise InvalidParameter(f"region must be a single site of the pair, got {sites}")
    site = sites[0]

    s_coarse, _, _ = _truncated_vacuum_entropy(model, n_max, site)
    s_fine, spectrum, trace_defect = _truncated_vacuum_entropy(model, n_max + 4, site)
    if abs(s_fine - s_coarse) > 1e-6:
        raise TruncationNotConverged(
            f"entropy moved by {abs(s_fine - s_coarse):.3e} when raising "
            f"n_max from {n_max} to {n_max + 4}"
        )
    if trace_defect > 1e-8:
        raise TruncationNotConverged(
            f"reduced density matrix trace defect {trace_defect:.3e}"
        )
    return FockOracleResult(
        entropy=s_fine,
        occupation_spectrum=spectrum,
        n_max=n_max + 4,
        trace_defect=trace_defect,
    )
