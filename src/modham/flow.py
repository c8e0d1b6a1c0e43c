"""Modular flow kernels and KMS verification.

Sign and direction conventions
------------------------------
The flow kernel ``K(t) = exp(t L)`` acts on region-supported initial data
and represents the modular evolution whose analytic continuation satisfies
the KMS boundary condition

    G^T|_R K(t - i) = G|_R K(t) ,

where ``G|_R = [[X_R, i/2], [-i/2, P_R]]`` is the restricted two-point
kernel and ``G^T|_R = G|_R - i eps``.  Solving this system together with
the group law fixes the generator uniquely:

    L = -i ln( (G|_R)^{-1} G^T|_R ) = [[0, -2M], [2N, 0]] ,

which is the *negative* of the region block ``I ln Delta|_R`` produced by
the kernel module.  Both constructions are computed here and must agree;
flipping the sign (i.e. generating the flow with ``I ln Delta|_R`` itself)
violates the boundary condition above by orders of magnitude, so the KMS
orientation is the binding one.

The matrix ``(G|_R)^{-1} G^T|_R`` has positive real spectrum consisting of
reciprocal pairs ``((2c+1)/(2c-1))^{+-1}``; as c -> 1/2 one eigenvalue of
each pair runs into the origin, i.e. the principal-branch logarithm's cut.
Eigenvalues within tolerance of the closed negative real axis (origin
included) therefore abort the construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np
import scipy.linalg

from ._linalg import frob, rel_diff
from .errors import (
    BranchCutProximity,
    FlowOverflow,
    InvalidParameter,
    ModhamError,
    NumericalError,
)
from .kernels import (
    RegionKernels,
    RestrictedCorrelators,
    mn_kernels,
    regularize_correlators,
    restrict_correlators,
)
from .lattice import GaussianState, _eps_matrix, _two_point_kernel
from .regions import Region
from .subspace import _require_standard

GENERATOR_AGREE_TOL = 1e-7
BRANCH_TOL = 1e-8
OVERFLOW_NORM = 1e15
IMAG_TIME_GUARD = 2.0
EIG_COND_LIMIT = 1e8
NEAR_DIVERGENT_GAP = 1e-6


@dataclass(frozen=True)
class ModularFlow:
    """Flow generator with cached evaluation data.

    ``generator`` is the KMS-oriented matrix ``-I ln Delta|_R``; the method
    field records whether ``flow_at`` uses the cached eigendecomposition or
    Pade scaling-and-squaring.
    """

    region: Region
    generator: np.ndarray = field(repr=False)
    G_R: np.ndarray = field(repr=False)
    eps_R: np.ndarray = field(repr=False)
    method: str = "pade"
    check_residual: float = 0.0
    c_min: float = float("nan")
    _eig: tuple = field(default=(), repr=False)


@dataclass(frozen=True)
class KmsReport:
    """Residual sweep of the KMS condition, group law and symplectic invariance."""

    t_values: tuple
    kms_residuals: tuple
    group_residuals: tuple
    symplectic_residuals: tuple
    max_residual: float
    warnings: tuple = ()
    errors: tuple = ()
    method: str = "pade"
    clipped_modes: tuple = ()


def build_flow(
    kernels: RegionKernels,
    rc: RestrictedCorrelators,
    branch_tol: float = BRANCH_TOL,
) -> ModularFlow:
    """Build the modular flow from kernels, cross-checking the generator.

    The generator from the M/N blocks (KMS orientation, see the module
    docstring) is compared against the closed form
    ``-i ln((G|_R)^{-1} G^T|_R)`` evaluated by complex diagonalization and
    the principal logarithm; disagreement beyond 1e-7 relative is an error.

    Raises
    ------
    BranchCutProximity
        If an eigenvalue of ``(G|_R)^{-1} G^T|_R`` comes within
        ``branch_tol`` of the principal-log branch cut (the closed negative
        real axis, origin included); this is the c -> 1/2 divergence.
    """
    if kernels.region != rc.region:
        raise InvalidParameter("kernels and correlators belong to different regions")
    generator = -kernels.L_block
    g_r = _two_point_kernel(rc.X_R, rc.P_R)
    eps_r = _eps_matrix(rc.size)

    g_t = g_r.T.copy()
    defect = frob(g_t - (g_r - 1j * eps_r))
    if defect > 1e-12 * max(1.0, frob(g_r)):
        raise NumericalError(f"G^T != G - i eps beyond tolerance: {defect:.3e}")

    # The small eigenvalues of (G|_R)^{-1} G^T|_R sit at (2c-1)/(2c+1); a
    # dense eig cannot resolve them below eps * ||ratio||, so the guard uses
    # the well-conditioned spectral gap directly.
    gap = float(np.min(kernels.c_spectrum)) - 0.5
    if gap <= branch_tol:
        raise BranchCutProximity(
            f"spectral gap c - 1/2 = {gap:.3e} within {branch_tol:g} of the "
            f"principal-log branch cut (an eigenvalue of (G|_R)^-1 G^T|_R "
            f"reaches the origin as c -> 1/2)"
        )
    ratio = np.linalg.solve(g_r, g_t)
    evals, vecs = np.linalg.eig(ratio)
    on_cut = (np.abs(evals) <= branch_tol) | (
        (evals.real <= 0.0) & (np.abs(evals.imag) <= branch_tol * (1.0 + np.abs(evals)))
    )
    if on_cut.any():
        raise BranchCutProximity(
            f"{int(on_cut.sum())} eigenvalue(s) of (G|_R)^-1 G^T|_R within "
            f"{branch_tol:g} of the principal-log branch cut (c -> 1/2 "
            f"divergence): {evals[on_cut]}"
        )
    log_check = (vecs * np.log(evals)) @ np.linalg.inv(vecs)
    l_check = (-1j * log_check).real
    residual = rel_diff(l_check, generator)
    if residual > GENERATOR_AGREE_TOL:
        raise NumericalError(
            f"generator mismatch between block formula and "
            f"-i ln(G^-1 G^T): relative residual {residual:.3e}"
        )

    method = "pade"
    eig_cache: tuple = ()
    lam, v = np.linalg.eig(generator)
    cond = np.linalg.cond(v)
    if np.isfinite(cond) and cond < EIG_COND_LIMIT:
        method = "eig"
        eig_cache = (lam, v, np.linalg.inv(v))

    return ModularFlow(
        region=rc.region,
        generator=generator,
        G_R=g_r,
        eps_R=eps_r,
        method=method,
        check_residual=residual,
        c_min=float(np.min(kernels.c_spectrum)),
        _eig=eig_cache,
    )


def flow_at(flow: ModularFlow, t: complex) -> np.ndarray:
    """Evaluate K(t) = exp(t L) for real or complex time.

    Real times return a real matrix.  Imaginary parts beyond the KMS strip
    guard ``|Im t| <= 2`` are rejected, and results with norm above 1e15
    raise :class:`FlowOverflow`.
    """
    t = complex(t)
    if not (np.isfinite(t.real) and np.isfinite(t.imag)):
        raise InvalidParameter(f"flow time must be finite, got {t!r}")
    if abs(t.imag) > IMAG_TIME_GUARD:
        raise InvalidParameter(
            f"|Im t| = {abs(t.imag):g} exceeds the strip guard {IMAG_TIME_GUARD:g}"
        )
    if flow.method == "eig":
        lam, v, v_inv = flow._eig
        kernel = (v * np.exp(t * lam)) @ v_inv
    else:
        kernel = scipy.linalg.expm(t * flow.generator)
    norm = frob(kernel)
    if not np.isfinite(norm) or norm > OVERFLOW_NORM:
        raise FlowOverflow(
            f"flow kernel norm {norm:.3e} exceeds the overflow guard "
            f"{OVERFLOW_NORM:g} at t = {t!r}"
        )
    if t.imag == 0.0:
        return kernel.real if np.iscomplexobj(kernel) else kernel
    return kernel


def kms_residual(flow: ModularFlow, t: float) -> float:
    """Relative defect of ``G^T K(t - i) = G K(t)`` at real time t."""
    k_shift = flow_at(flow, t - 1j)
    k_real = flow_at(flow, t)
    lhs = flow.G_R.T @ k_shift
    rhs = flow.G_R @ k_real
    return frob(lhs - rhs) / frob(rhs)


def symplectic_invariance_residual(flow: ModularFlow, t: float) -> float:
    """Relative defect of ``K(t)^T eps K(t) = eps`` at real time t."""
    k_real = flow_at(flow, float(t))
    defect = k_real.T @ flow.eps_R @ k_real - flow.eps_R
    return frob(defect) / frob(flow.eps_R)


def group_residual(flow: ModularFlow, s: float, t: float) -> float:
    """Relative defect of the group law ``K(s + t) = K(t) K(s)``."""
    lhs = flow_at(flow, s + t)
    rhs = flow_at(flow, t) @ flow_at(flow, s)
    return frob(lhs - rhs) / max(frob(rhs), 1e-300)


class _RegionPipeline:
    """The objects one (state, region) pair fixes, each built once.

    Construction checks the region (under a clip it only has to be proper)
    and keeps the check's ``frame``, None under a clip.  ``rc`` is the
    restriction; ``rc_flow`` is ``rc`` regularized at the clip, with the
    indices of its ``clipped`` modes.  ``kernels`` (unclipped, of
    ``rc_flow``) and ``flow`` are built on first use; ``flow`` holds the
    construction error when the flow cannot be built.
    """

    def __init__(self, state: GaussianState, region: Region, clip=None, sing_tol=1e-10):
        self.clip, self.sing_tol = clip, sing_tol
        # an explicit clip fixes the gap; the branch guard must sit below it
        self.branch_tol = BRANCH_TOL if clip is None else min(BRANCH_TOL, 0.5 * clip)
        self.frame = _require_standard(state, region, regularized=clip is not None)
        self.rc = restrict_correlators(state, region)
        self.rc_flow, self.clipped = self.rc, ()
        if clip is not None:
            self.rc_flow, self.clipped = regularize_correlators(self.rc, clip)

    @cached_property
    def kernels(self) -> RegionKernels:
        return mn_kernels(self.rc_flow, sing_tol=self.sing_tol)

    @cached_property
    def flow(self) -> ModularFlow | ModhamError:
        try:
            return build_flow(self.kernels, self.rc_flow, branch_tol=self.branch_tol)
        except (BranchCutProximity, NumericalError) as exc:
            return exc


def run_kms_suite(
    state: GaussianState,
    region: Region,
    t_grid: Sequence[float] = (-1.0, -0.5, 0.0, 0.5, 1.0),
    clip: float | None = None,
    sing_tol: float = 1e-10,
    group_samples: int = 5,
    seed: int = 7,
) -> KmsReport:
    """Sweep KMS, group-law and symplectic residuals over a time grid.

    With ``clip`` set, the restricted state is regularized so its spectral
    gap is at least ``clip`` before the flow is built; the adjusted modes
    are reported and the (possibly unresolvable) raw standardness check is
    skipped, since the flow acts on the regularized restriction only.
    Per-point failures are recorded without aborting the sweep, and
    near-divergent regions (gap below 1e-6) carry a warning.  When the flow
    cannot be built, the report has ``method="none"``, the construction
    error, no residuals and ``max_residual`` NaN: nothing was measured.  An
    empty ``t_grid`` measures nothing either and reports 0.0.
    """
    pipeline = _RegionPipeline(state, region, clip, sing_tol)
    return _kms_sweep(pipeline, t_grid, group_samples, seed)


def _kms_sweep(
    pipeline: _RegionPipeline,
    t_grid: Sequence[float] = (-1.0, -0.5, 0.0, 0.5, 1.0),
    group_samples: int = 5,
    seed: int = 7,
) -> KmsReport:
    """The sweep of :func:`run_kms_suite` over the flow of a checked region."""
    kernels, flow, clipped = pipeline.kernels, pipeline.flow, pipeline.clipped
    warnings_list = []
    gap = float(np.min(kernels.c_spectrum)) - 0.5
    if gap < NEAR_DIVERGENT_GAP:
        warnings_list.append(
            f"BranchCutProximity: smallest spectral gap c - 1/2 = {gap:.3e} "
            f"is below {NEAR_DIVERGENT_GAP:g}; complex-time kernels are "
            f"strongly amplified"
        )
    if clipped:
        warnings_list.append(
            f"{len(clipped)} mode(s) regularized to gap {pipeline.clip:g} "
            f"before the flow"
        )

    if isinstance(flow, ModhamError):
        # the sweep is a reporting harness: an unbuildable flow becomes an
        # error entry instead of an exception
        return KmsReport(
            t_values=tuple(float(t) for t in t_grid),
            kms_residuals=(),
            group_residuals=(),
            symplectic_residuals=(),
            max_residual=float("nan"),
            warnings=tuple(warnings_list),
            errors=(f"flow construction: {type(flow).__name__}: {flow}",),
            method="none",
            clipped_modes=clipped,
        )

    errors = []
    kms_vals = []
    symp_vals = []
    for t in t_grid:
        try:
            kms_vals.append(kms_residual(flow, float(t)))
        except ModhamError as exc:
            kms_vals.append(float("nan"))
            errors.append(f"kms t={t}: {exc}")
        try:
            symp_vals.append(symplectic_invariance_residual(flow, float(t)))
        except ModhamError as exc:
            symp_vals.append(float("nan"))
            errors.append(f"symplectic t={t}: {exc}")

    rng = np.random.default_rng(seed)
    group_vals = []
    for _ in range(group_samples if len(t_grid) else 0):
        s, t = rng.uniform(-2.0, 2.0, size=2)
        try:
            group_vals.append(group_residual(flow, s, t))
        except ModhamError as exc:
            group_vals.append(float("nan"))
            errors.append(f"group s={s:.3f} t={t:.3f}: {exc}")

    finite = [
        v
        for v in (*kms_vals, *group_vals, *symp_vals)
        if np.isfinite(v)
    ]
    return KmsReport(
        t_values=tuple(float(t) for t in t_grid),
        kms_residuals=tuple(kms_vals),
        group_residuals=tuple(group_vals),
        symplectic_residuals=tuple(symp_vals),
        max_residual=float(max(finite)) if finite else 0.0,
        warnings=tuple(warnings_list),
        errors=tuple(errors),
        method=flow.method,
        clipped_modes=clipped,
    )
