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

V is diagonal in sine modes (Dirichlet) or plane waves (periodic) with
closed-form frequencies, so the vacuum X and P are each one real FFT of
their mode values (Toeplitz minus Hankel, or circulant): no eigensolver.
A :class:`LatticeModel` holds only ``(n_sites, mass, coupling, boundary)``
and derives V from them on first read; a vacuum never forms V.

A :class:`GaussianState` stores X and P; the 2n x 2n I and ``diag(X, P)``
are built on first use, eps (``_eps_matrix``) where needed.  Only pure
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

from ._linalg import EIG_CLAMP, frob, symmetrize
from .errors import (
    DimensionMismatch,
    InvalidParameter,
    NumericalError,
    ZeroModeError,
)

INVARIANT_TOL = 1e-10


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
    """Pure Gaussian state data on the full lattice.

    Holds the correlators; the complex structure and the Gram matrix of
    ``mu`` are built on first read.  All arrays are treated as immutable.
    """

    n_sites: int
    X_full: np.ndarray = field(repr=False)
    P_full: np.ndarray = field(repr=False)

    @classmethod
    def from_correlators(cls, x_full: np.ndarray, p_full: np.ndarray) -> "GaussianState":
        """Build the state data from the correlators X, P of a pure state.

        Checks purity, ``||4 X P - 1|| <= 1e-10 max(1, ||X|| ||P||)``, which
        also gives ``I^2 = -diag(4 P X, 4 X P) = -1``, and that the Gram
        matrix ``diag(X, P)`` has no eigenvalue at or below 1e-14.  I and
        the Gram matrix themselves are built on first read.
        """
        x_full = np.asarray(x_full, dtype=float)
        p_full = np.asarray(p_full, dtype=float)
        n = x_full.shape[0]
        if x_full.shape != (n, n) or p_full.shape != (n, n):
            raise DimensionMismatch("correlators must be square and equal-sized")
        scale = max(1.0, frob(x_full) * frob(p_full))
        purity = frob(4.0 * x_full @ p_full - np.eye(n)) / scale
        if purity > INVARIANT_TOL:
            raise InvalidParameter(
                f"state is not pure: ||4 X P - 1|| = {purity:.3e} "
                f"(only pure states are supported; restrict a purification "
                f"for mixed states)"
            )
        # M - clamp * 1 factorizes exactly when min eig(M) lies above the clamp
        for m in (x_full, p_full):
            try:
                np.linalg.cholesky(symmetrize(m) - EIG_CLAMP * np.eye(n))
            except np.linalg.LinAlgError:
                w_min = np.linalg.eigvalsh(symmetrize(m))[0]
                raise NumericalError(
                    f"mu Gram matrix not positive definite (min eig {w_min:.3e})"
                ) from None
        return cls(n, x_full, p_full)

    @cached_property
    def I_mat(self) -> np.ndarray:
        """The complex structure ``I = [[0, -2P], [2X, 0]]``."""
        zero = np.zeros_like(self.X_full)
        return np.block([[zero, -2.0 * self.P_full], [2.0 * self.X_full, zero]])

    @cached_property
    def mu_gram(self) -> np.ndarray:
        """The Gram matrix ``diag(X, P)`` of the metric ``mu``."""
        zero = np.zeros_like(self.X_full)
        return np.block([[self.X_full, zero], [zero, self.P_full]])

    def two_point_function(self) -> np.ndarray:
        """The complex 2n x 2n kernel G = [[X, i/2], [-i/2, P]]."""
        return _two_point_kernel(self.X_full, self.P_full)


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


def _function_of_v(model: LatticeModel, values: np.ndarray) -> np.ndarray:
    """The matrix f(V) from ``values = f(omega_k^2)`` in the order of
    :func:`_mode_eigenvalues`, through one real FFT of the mode values.

    A periodic f(V) is the circulant ``phi(|i - j|)``.  A Dirichlet f(V) is
    ``phi(|i - j|) - phi(i + j + 2)``, Toeplitz minus Hankel, where phi is the
    DCT-I of the modes: the real FFT of the even, zero-padded sequence
    ``[0, f_1..f_n, 0, f_n..f_1]`` over 2(n + 1), even about n + 1.  f is
    never evaluated at k = 0 or n + 1.  Every entry is gathered from phi, so
    the result is exactly symmetric.
    """
    n = model.n_sites
    periodic = model.boundary is Boundary.PERIODIC
    even = values if periodic else np.concatenate([[0.0], values, [0.0], values[::-1]])
    half = np.fft.rfft(even).real / even.size
    phi = np.concatenate([half, half[even.size - half.size:0:-1]])  # phi(size - d) = phi(d)
    toeplitz = sliding_window_view(np.concatenate([phi[n - 1:0:-1], phi[:n]]), n)[::-1]
    if periodic:
        return np.ascontiguousarray(toeplitz)
    return toeplitz - sliding_window_view(phi[2:2 * n + 1], n)


def vacuum_state(model: LatticeModel) -> GaussianState:
    """Gaussian vacuum of a chain: ``X = V^{-1/2}/2``, ``P = V^{1/2}/2`` in
    closed form (:func:`_function_of_v`), checked by
    :meth:`GaussianState.from_correlators`."""
    omega = np.sqrt(_mode_eigenvalues(
        model.n_sites, model.mass, model.coupling, model.boundary))
    return GaussianState.from_correlators(
        _function_of_v(model, 0.5 / omega), _function_of_v(model, 0.5 * omega)
    )
