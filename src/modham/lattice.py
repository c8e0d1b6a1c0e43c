"""Harmonic chains and their Gaussian vacuum data.

A chain of ``n`` sites carries the quadratic Hamiltonian
``H = (1/2) sum pi_x^2 + (1/2) phi^T V phi`` with dynamical matrix
``V = mass^2 * 1 + coupling * Laplacian``.  The lattice spacing is fixed to
one, so sums over sites need no measure factors.

Phase-space conventions used throughout the package:

- initial data is a pair ``f = (f1, f2)`` of real n-vectors (field and
  conjugate momentum), stacked as ``[phi-block, pi-block]`` in every
  2n-dimensional object;
- the symplectic form is ``sigma(f, g) = (1/2) (f1 . g2 - g1 . f2)``, i.e.
  ``sigma = (1/2) f^T eps g`` with ``eps = [[0, 1], [-1, 0]]``;
- the vacuum correlators are ``X = <phi phi> = (1/2) V^{-1/2}`` and
  ``P = <pi pi> = (1/2) V^{1/2}``, so purity reads ``4 X P = 1``;
- the complex structure is the unique real matrix with
  ``eps I = 2 diag(X, P)``, explicitly ``I = [[0, -2P], [2X, 0]]``;
- the metric ``mu(f, g) = (1/2) f^T eps I g`` has Gram matrix ``diag(X, P)``.

V is diagonal in sine modes (Dirichlet) or plane waves (periodic), so the
vacuum X and P are each fixed by a symbol phi, one real FFT of their mode
values (Toeplitz minus Hankel, or circulant), checked on the spectrum that one
more FFT gives: no eigensolver, no n x n product.  A :class:`LatticeModel`
holds only ``(n_sites, mass, coupling, boundary)`` and derives V on first read.

A :class:`GaussianState` stores X and P, and ``gather(rows, cols)`` reads a
block; a vacuum keeps views of the symbols, gathers blocks from them and
builds X and P on first read.  A state is checked once, when it is made (a
vacuum on its mode spectra), and no route checks the blocks it gathers again.
No 2n x 2n I or ``diag(X, P)`` is formed: the subspace frame applies them
block by block.  Only pure
states with vanishing symmetric phi-pi cross correlations are supported.
Mixed states are reached by restricting a pure state on a larger lattice;
see :func:`modham.kernels.purify_restriction`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._linalg import EIG_CLAMP, frob, rel_diff, symmetrize
from .errors import (
    DimensionMismatch,
    InvalidParameter,
    NumericalError,
    ZeroModeError,
)

INVARIANT_TOL = 1e-10
# Correlators whose relative asymmetry ||M - M^T|| / ||M|| exceeds this are refused.
SYMMETRY_TOL = 1e-12
_GRAM_ERROR = "mu Gram matrix not positive definite (min eig {:.3e})"


class Boundary(str, enum.Enum):
    """Boundary condition of the discrete Laplacian."""

    DIRICHLET = "dirichlet"
    PERIODIC = "periodic"


@dataclass(frozen=True)
class LatticeModel:
    """A discretized free scalar on a 1D chain, checked at construction.

    Attributes
    ----------
    n_sites : int
        Number of lattice sites.
    mass : float
        Field mass in lattice units (non-negative).
    coupling : float
        Nearest-neighbour spring constant (positive).
    boundary : Boundary
        Dirichlet or periodic chain ends (a string is coerced).

    Raises
    ------
    InvalidParameter
        For a mass or coupling that is not a real number (or is a bool), a
        non-positive or non-finite coupling, a negative or non-finite mass, an
        ``n_sites`` not a positive integer (or a bool), or an unknown boundary.
    ZeroModeError
        If the dynamical matrix is singular, e.g. a periodic massless chain.
    """

    n_sites: int
    mass: float
    coupling: float
    boundary: Boundary

    def __post_init__(self):
        n_sites, mass, coupling = self.n_sites, self.mass, self.coupling
        if isinstance(n_sites, bool) or not isinstance(n_sites, (int, np.integer)) or n_sites < 1:
            raise InvalidParameter(f"n_sites must be a positive integer, got {n_sites!r}")
        for name, value in (("mass", mass), ("coupling", coupling)):
            if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
                raise InvalidParameter(f"{name} must be a real number, got {value!r}")
        if coupling <= 0.0:
            raise InvalidParameter(f"coupling must be positive, got {coupling!r}")
        if mass < 0.0:
            raise InvalidParameter(f"mass must be non-negative, got {mass!r}")
        for name, value in (("mass", mass), ("coupling", coupling)):
            if not np.isfinite(value):  # NaN passes the comparisons above
                raise InvalidParameter(f"{name} must be finite, got {value!r}")
        if self.boundary not in tuple(Boundary):
            raise InvalidParameter(
                f"boundary must be 'dirichlet' or 'periodic', got {self.boundary!r}")
        boundary = Boundary(self.boundary)
        w_min = _mode_eigenvalues(n_sites, mass, coupling, boundary).min()
        if w_min <= EIG_CLAMP:
            raise ZeroModeError(
                f"dynamical matrix has a zero mode (min eigenvalue "
                f"{w_min:.3e}); massless periodic chains are not supported"
            )
        for name, value in (("n_sites", int(n_sites)), ("mass", float(mass)),
                            ("coupling", float(coupling)), ("boundary", boundary)):
            object.__setattr__(self, name, value)

    @cached_property
    def dynamical_matrix(self) -> np.ndarray:
        """The SPD matrix ``V = mass^2 * 1 + coupling * Laplacian``, read-only;
        derived on first read, which a vacuum never needs."""
        v = self.mass**2 * np.eye(self.n_sites) + self.coupling * _laplacian(
            self.n_sites, self.boundary)
        v.flags.writeable = False
        return v


@dataclass(frozen=True)
class GaussianState:
    """Pure Gaussian state data on the full lattice, checked once, when it is made.

    Holds the correlators, of which :meth:`gather` reads a block; a
    :func:`vacuum_state`'s X and P are built on first read.  All arrays are
    treated as immutable.  The constructor checks that ``n_sites`` is a positive
    integer, that X and P are real, finite ``n_sites x n_sites`` arrays, symmetric to
    ``||M - M^T|| <= 1e-12 ||M||``, that the Gram matrix ``diag(X, P)`` has no
    eigenvalue at or below 1e-14, and purity, ``||4 X P - 1|| <= 1e-10 max(1, ||X||
    ||P||)`` (so ``I^2 = -1``); it stores the exactly symmetric ``(M + M^T) / 2``.
    """

    n_sites: int
    X_full: np.ndarray = field(repr=False)
    P_full: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = self.n_sites
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise InvalidParameter(f"n_sites must be a positive integer, got {n!r}")
        for name, m in (("X", self.X_full), ("P", self.P_full)):
            m = np.asarray(m)
            if m.dtype.kind not in "iuf":
                raise InvalidParameter(f"{name} must be a real array, got dtype {m.dtype}")
            m = m.astype(float, copy=False)
            if m.shape != (n, n):
                raise DimensionMismatch(f"{name} must be {n} x {n} for {n} sites, got {m.shape}")
            bad = np.argwhere(~np.isfinite(m))
            if bad.size:
                raise InvalidParameter(f"{name} must be finite, got {m[tuple(bad[0])]} at "
                                       f"{bad[0].tolist()}")
            asym = rel_diff(m, m.T)
            if not asym <= SYMMETRY_TOL:
                raise NumericalError(f"{name} lost symmetry: {asym:.3e}")
            m = vars(self)[f"{name}_full"] = symmetrize(m)
            try:
                np.linalg.cholesky(m - EIG_CLAMP * np.eye(n))
            except np.linalg.LinAlgError:
                raise NumericalError(_GRAM_ERROR.format(np.linalg.eigvalsh(m)[0])) from None
        x, p = self.X_full, self.P_full
        _purity(frob(4.0 * (x @ p) - np.eye(n)), frob(x), frob(p))
        vars(self)["n_sites"] = int(n)

    @classmethod
    def from_correlators(cls, x_full: np.ndarray, p_full: np.ndarray) -> "GaussianState":
        """The state of the correlators X, P on ``len(X)`` sites, with the constructor's checks."""
        x_full = np.asarray(x_full)
        return cls(x_full.shape[0] if x_full.ndim else 1, x_full, p_full)  # 0-d: refused

    def gather(self, rows, cols) -> tuple[np.ndarray, np.ndarray]:
        """``(X[rows, cols], P[rows, cols])`` on the grid of two sequences of sites."""
        grid = np.ix_(rows, cols)
        return self.X_full[grid], self.P_full[grid]


class _ChainVacuum(GaussianState):
    """A chain vacuum as views of the symbols of X and P, checked on their spectra."""

    def __init__(self, model: LatticeModel, *phis: np.ndarray):
        vars(self).update(n_sites=model.n_sites, windows=[_windows(model, phi) for phi in phis])

    def gather(self, rows, cols) -> tuple[np.ndarray, np.ndarray]:
        grid = np.ix_(rows, cols)
        return tuple(_block(windows, grid) for windows in self.windows)

    X_full = cached_property(lambda self: _block(self.windows[0], ...))
    P_full = cached_property(lambda self: _block(self.windows[1], ...))


def _gram_factor(m: np.ndarray) -> np.ndarray:
    """The Cholesky factor of X, P or a principal block, or :class:`NumericalError`."""
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise NumericalError(_GRAM_ERROR.format(np.linalg.eigvalsh(m)[0])) from None


def _purity(residual: float, x_norm: float, p_norm: float) -> float:
    """``||4 X P - 1|| / max(1, ||X|| ||P||)``, checked against ``INVARIANT_TOL``."""
    purity = residual / max(1.0, x_norm * p_norm)
    if not purity <= INVARIANT_TOL:  # NaN fails too
        raise InvalidParameter(f"state is not pure: ||4 X P - 1|| = {purity:.3e} (only pure states "
                               f"are supported; restrict a purification for mixed states)")
    return purity


def _two_point_kernel(x_mat: np.ndarray, p_mat: np.ndarray) -> np.ndarray:
    """``G = [[X, i/2], [-i/2, P]]`` of a correlator pair (full or restricted)."""
    eye = np.eye(x_mat.shape[0])
    return np.block([[x_mat, 0.5j * eye], [-0.5j * eye, p_mat]])


def _eps_matrix(n: int) -> np.ndarray:
    """The symplectic matrix ``eps = [[0, 1], [-1, 0]]`` on n sites."""
    eye, zero = np.eye(n), np.zeros((n, n))
    return np.block([[zero, eye], [-eye, zero]])


def _laplacian(n_sites: int, boundary: Boundary) -> np.ndarray:
    lap = 2.0 * np.eye(n_sites)
    lap -= np.eye(n_sites, k=1)
    lap -= np.eye(n_sites, k=-1)
    if boundary is Boundary.PERIODIC:
        # Wrap-around couplings; for n <= 2 they fold onto existing entries.
        lap[0, (n_sites - 1) % n_sites] -= 1.0
        lap[(n_sites - 1) % n_sites, 0] -= 1.0
    return lap


def _mode_eigenvalues(
    n_sites: int, mass: float, coupling: float, boundary: Boundary
) -> np.ndarray:
    """The eigenvalues ``omega_k^2`` of V: sine modes k = 1..n (Dirichlet) or
    plane waves k = 0..n-1 (periodic, also for the folded n <= 2)."""
    if boundary is Boundary.PERIODIC:
        angles = np.pi * np.arange(n_sites) / n_sites
    else:
        angles = np.pi * np.arange(1, n_sites + 1) / (2.0 * (n_sites + 1))
    return mass**2 + 4.0 * coupling * np.sin(angles) ** 2


def build_harmonic_chain(
    n_sites: int,
    mass: float,
    coupling: float = 1.0,
    boundary: Boundary | str = Boundary.DIRICHLET,
) -> LatticeModel:
    """Construct a harmonic chain model: the :class:`LatticeModel` of the
    parameters, with unit coupling and Dirichlet ends by default.  It raises
    what the model's checks raise.
    """
    return LatticeModel(n_sites, mass, coupling, boundary)


def _symbol(model: LatticeModel, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The symbol phi of f(V), ``values = f(omega_k^2)`` in :func:`_mode_eigenvalues`' order,
    through one real FFT of the mode values, and the spectrum v of f(V), through one FFT of phi.

    A periodic f(V) is the circulant ``phi(|i - j|)``, of eigenvalues v.  A Dirichlet f(V)
    is ``phi(|i - j|) - phi(i + j + 2)``, Toeplitz minus Hankel, where phi is the
    DCT-I of the modes: the real FFT of the even, zero-padded sequence
    ``[0, f_1..f_n, 0, f_n..f_1]`` over 2(n + 1), even about n + 1; f is never
    evaluated at k = 0 or n + 1.  The gather from phi is exactly symmetric and exactly
    ``S diag(v) S``, S the orthonormal DST-I (the k = 0, n + 1 sines vanish).
    """
    periodic = model.boundary is Boundary.PERIODIC
    even = values if periodic else np.concatenate([[0.0], values, [0.0], values[::-1]])
    half = np.fft.rfft(even).real / even.size
    phi = np.concatenate([half, half[even.size - half.size:0:-1]])  # phi(size - d) = phi(d)
    spectrum = np.fft.fft(phi).real
    return phi, spectrum if periodic else spectrum[1:model.n_sites + 1]


def _windows(model: LatticeModel, phi: np.ndarray) -> tuple:
    """The n x n views Toeplitz ``phi(|i - j|)`` and, Dirichlet, Hankel ``phi(i + j + 2)``."""
    n = model.n_sites
    toeplitz = sliding_window_view(np.concatenate([phi[n - 1:0:-1], phi[:n]]), n)[::-1]
    if model.boundary is Boundary.PERIODIC:
        return (toeplitz,)
    return toeplitz, sliding_window_view(phi[2:2 * n + 1], n)


def _block(windows: tuple, index) -> np.ndarray:
    """f(V)[index] from its :func:`_windows`, Toeplitz minus Hankel entrywise; ``...`` is all."""
    toeplitz = windows[0][index]
    return toeplitz - windows[1][index] if len(windows) == 2 else np.ascontiguousarray(toeplitz)


def _check_mode_spectra(x_modes: np.ndarray, p_modes: np.ndarray) -> float:
    """:meth:`GaussianState.from_correlators`' checks on the spectra v of a vacuum's stored
    X, P, which share an orthogonal eigenbasis; returns the purity.  A Gram eigenvalue
    passes above ``EIG_CLAMP + 8 log2(2n + 2) eps ||v||``, which bounds (Weyl) the rounding
    of ``T - H`` (``eps ||v||``, as ``||T||, ||H|| <= ||v||``) plus the FFT's (Higham, Thm
    24.2: ``~5 log2(2n + 2) eps ||v||``; below ``0.2 log2(2n + 2) eps ||v||`` measured)."""
    for v in (x_modes, p_modes):
        if v.min() - 8.0 * np.log2(2 * v.size + 2) * np.finfo(float).eps * frob(v) <= EIG_CLAMP:
            raise NumericalError(_GRAM_ERROR.format(v.min()))
    return _purity(frob(4.0 * x_modes * p_modes - 1.0), frob(x_modes), frob(p_modes))


def vacuum_state(model: LatticeModel) -> GaussianState:
    """Gaussian vacuum of a chain: ``X = V^{-1/2}/2``, ``P = V^{1/2}/2`` held as their symbols
    (:func:`_symbol`), checked on their mode spectra (:func:`_check_mode_spectra`)."""
    omega = np.sqrt(_mode_eigenvalues(model.n_sites, model.mass, model.coupling, model.boundary))
    (phi_x, x_modes), (phi_p, p_modes) = (_symbol(model, f) for f in (0.5 / omega, 0.5 * omega))
    _check_mode_spectra(x_modes, p_modes)
    return _ChainVacuum(model, phi_x, phi_p)
