"""Exception hierarchy for the modham package.

All library errors derive from :class:`ModhamError` so callers can catch a
single base class.  Construction-type failures (bad regions, zero modes,
modular divergences) are distinguished from validation-type failures
(residuals exceeding tolerances) by the CLI exit-code mapping in
``modham.runner``.
"""

from __future__ import annotations


class ModhamError(Exception):
    """Base class for all modham errors."""


class InvalidParameter(ModhamError):
    """A constructor or operation argument is out of its allowed range."""


class DimensionMismatch(ModhamError):
    """Vector or matrix dimensions are incompatible."""


class ZeroModeError(ModhamError):
    """The dynamical matrix is singular; the vacuum state does not exist."""


class NumericalError(ModhamError):
    """A dense linear-algebra step failed or lost too much accuracy."""


class IndexOutOfRange(ModhamError):
    """A region refers to site indices outside the lattice."""


class EmptyRegion(ModhamError):
    """An operation requires a non-empty region (or complement)."""


class NotStandard(ModhamError):
    """The region does not define a standard subspace."""


class SpectrumOutOfDomain(ModhamError):
    """Eigenvalues fall outside the domain of the requested scalar function."""

    def __init__(self, message: str, eigenvalues=None):
        super().__init__(message)
        self.eigenvalues = list(eigenvalues) if eigenvalues is not None else []


class QuadratureNotConverged(ModhamError):
    """The resolvent quadrature hit its evaluation cap before reaching tolerance."""

    def __init__(self, message: str, achieved_error: float = float("nan")):
        super().__init__(message)
        self.achieved_error = achieved_error


class PositivityViolation(ModhamError):
    """The restricted correlators violate the uncertainty bound spec(XP) >= 1/4."""


class ModularDivergence(ModhamError):
    """Symplectic eigenvalues too close to 1/2; the generator diverges.

    Carries the offending eigenvalues and their count so callers can report
    per-mode detail or regularize the restriction explicitly.
    """

    def __init__(self, message: str, eigenvalues=None):
        super().__init__(message)
        self.eigenvalues = list(eigenvalues) if eigenvalues is not None else []
        self.count = len(self.eigenvalues)


class BranchCutProximity(ModhamError):
    """An eigenvalue sits too close to the principal-log branch cut."""


class FlowOverflow(ModhamError):
    """A complex-time flow kernel exceeded the representable norm guard."""


class DomainError(ModhamError):
    """Scalar oracle input outside its validity domain."""


class TruncationNotConverged(ModhamError):
    """Fock-space truncation is not converged at the requested level."""


class SchemaError(ModhamError):
    """A configuration document violates the schema.

    ``path`` locates the offending key, e.g. ``"model.n_sites"``.
    """

    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path
