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
the kernel module.  Flipping the sign (i.e. generating the flow with
``I ln Delta|_R`` itself) violates the boundary condition above by orders
of magnitude, so the KMS orientation is the binding one.

The block generator is certified by the KMS relation at t = 0,
``G^T|_R exp(-i L) = G|_R``: the exponential stays well conditioned where
the logarithm above meets its branch cut.  As c -> 1/2 one eigenvalue of
``(G|_R)^{-1} G^T|_R`` runs into the origin; a spectral gap ``c - 1/2``
within the branch tolerance therefore aborts the construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._linalg import frob, rel_diff, require_tolerance
from .errors import (
    BranchCutProximity,
    FlowOverflow,
    InvalidParameter,
    ModhamError,
    NumericalError,
)
from .kernels import (
    DEFAULT_SING_TOL,
    RegionKernels,
    RestrictedCorrelators,
    mn_kernels,
    purify_restriction,
    regularize_correlators,
    restrict_correlators,
)
from .lattice import GaussianState, _eps_matrix, _two_point_kernel
from .regions import Region
from .subspace import _require_standard

KMS_CHECK_TOL = 1e-7
BRANCH_TOL = 1e-8
OVERFLOW_NORM = 1e15
IMAG_TIME_GUARD = 2.0
NEAR_DIVERGENT_GAP = 1e-6
KMS_T_GRID = (-1.0, -0.5, 0.0, 0.5, 1.0)
GROUP_SAMPLES = 5  # random (s, t) pairs of the group-law check
GROUP_SEED = 7


@dataclass(frozen=True)
class ModularFlow:
    """Flow generator with its eigendecomposition and KMS check.

    ``generator`` is the KMS-oriented matrix ``-I ln Delta|_R``.  Its
    eigendecomposition is derived on first use, so a flow built by
    ``dataclasses.replace(flow, generator=...)`` evaluates and checks the
    new generator.
    """

    region: Region
    generator: np.ndarray = field(repr=False)
    G_R: np.ndarray = field(repr=False)
    eps_R: np.ndarray = field(repr=False)
    c_min: float = float("nan")

    @cached_property
    def _eigensystem(self) -> tuple:
        lam, v = np.linalg.eig(self.generator)
        return lam, v, np.linalg.inv(v)

    @cached_property
    def check_residual(self) -> float:
        """The KMS relation at t = 0, ``|G^T K(-i) - G| / |G|``."""
        return kms_residual(self, 0.0)


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
    method: str = "eig"
    clipped_modes: tuple = ()


def build_flow(
    kernels: RegionKernels,
    rc: RestrictedCorrelators,
    branch_tol: float = BRANCH_TOL,
) -> ModularFlow:
    """Build the modular flow from kernels, certified by KMS at t = 0.

    The generator from the M/N blocks (KMS orientation, see the module
    docstring) must satisfy ``G^T|_R exp(-i L) = G|_R`` to 1e-7 relative;
    the check shares the eigendecomposition that evaluates the flow.

    Raises
    ------
    BranchCutProximity
        If the spectral gap ``c - 1/2`` is within ``branch_tol`` of zero,
        where an eigenvalue of ``(G|_R)^{-1} G^T|_R`` reaches the
        principal-log branch cut; this is the c -> 1/2 divergence.
    NumericalError
        If the block generator violates the KMS relation at t = 0.
    InvalidParameter
        If ``branch_tol`` is not finite and positive.
    """
    require_tolerance("branch_tol", branch_tol)
    if kernels.region != rc.region:
        raise InvalidParameter("kernels and correlators belong to different regions")
    g_r = _two_point_kernel(rc.X_R, rc.P_R)
    eps_r = _eps_matrix(rc.size)

    defect = frob(g_r.T - (g_r - 1j * eps_r))
    if defect > 1e-12 * max(1.0, frob(g_r)):
        raise NumericalError(f"G^T != G - i eps beyond tolerance: {defect:.3e}")

    c_min = float(np.min(kernels.c_spectrum))
    gap = c_min - 0.5
    if gap <= branch_tol:
        raise BranchCutProximity(
            f"spectral gap c - 1/2 = {gap:.3e} within {branch_tol:g} of the "
            f"principal-log branch cut (an eigenvalue of (G|_R)^-1 G^T|_R "
            f"reaches the origin as c -> 1/2)"
        )
    flow = ModularFlow(
        region=rc.region, generator=-kernels.L_block, G_R=g_r, eps_R=eps_r, c_min=c_min
    )
    if flow.check_residual > KMS_CHECK_TOL:
        raise NumericalError(
            f"block generator violates the KMS relation at t = 0: relative "
            f"residual {flow.check_residual:.3e}"
        )
    return flow


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
    lam, v, v_inv = flow._eigensystem
    kernel = (v * np.exp(t * lam)) @ v_inv
    norm = frob(kernel)
    if not np.isfinite(norm) or norm > OVERFLOW_NORM:
        raise FlowOverflow(
            f"flow kernel norm {norm:.3e} exceeds the overflow guard "
            f"{OVERFLOW_NORM:g} at t = {t!r}"
        )
    return kernel.real if t.imag == 0.0 else kernel


def kms_residual(flow: ModularFlow, t: float) -> float:
    """Relative defect of ``G^T K(t - i) = G K(t)`` at real time t."""
    return rel_diff(flow.G_R.T @ flow_at(flow, t - 1j), flow.G_R @ flow_at(flow, t))


def symplectic_invariance_residual(flow: ModularFlow, t: float) -> float:
    """Relative defect of ``K(t)^T eps K(t) = eps`` at real time t."""
    k_real = flow_at(flow, float(t))
    return rel_diff(k_real.T @ flow.eps_R @ k_real, flow.eps_R)


def group_residual(flow: ModularFlow, s: float, t: float) -> float:
    """Relative defect of the group law ``K(s + t) = K(t) K(s)``."""
    return rel_diff(flow_at(flow, s + t), flow_at(flow, t) @ flow_at(flow, s))


class _RegionPipeline:
    """The objects one (state, region) pair fixes, each built once here only.

    ``rc`` is the restriction; ``rc_flow`` is ``rc`` regularized at the
    clip, with the indices of its ``clipped`` modes.  ``frame`` is the
    standardness frame the full-space routes read: a raw pipeline checks
    the region at construction and keeps the check's frame; under a clip it
    is the frame of the pure state that contains ``rc_flow``, built on first
    use, and only an empty or full region fails at construction.
    ``kernels`` (of ``rc_flow``) and ``flow`` are built on first use;
    ``flow`` holds the construction error when the flow cannot be built.
    """

    def __init__(self, state: GaussianState, region: Region, clip, sing_tol):
        self.clip, self.sing_tol = clip, sing_tol
        if clip is None or not 0 < len(region) < state.n_sites:
            # an empty or full region raises here, clip or not
            self.frame = _require_standard(state, region)
        self.rc = restrict_correlators(state, region)
        self.rc_flow, self.clipped = self.rc, ()
        if clip is not None:
            self.rc_flow, self.clipped = regularize_correlators(self.rc, clip)
        # an explicit clip, checked above, fixes the gap; the branch guard must sit below it
        self.branch_tol = BRANCH_TOL if clip is None else min(BRANCH_TOL, 0.5 * clip)

    @cached_property
    def frame(self):
        """Under a clip, the frame of the pure state that contains ``rc_flow``."""
        return _require_standard(*purify_restriction(self.rc_flow))

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
    clip: float | None = None,
    sing_tol: float = DEFAULT_SING_TOL,
) -> KmsReport:
    """Sweep KMS, group-law and symplectic residuals over ``KMS_T_GRID``.

    With ``clip`` set, the restricted state is regularized so its spectral
    gap is at least ``clip`` before the flow is built; the adjusted modes
    are reported and the (possibly unresolvable) raw standardness check is
    skipped, since the flow acts on the regularized restriction only; a
    clip that is not finite and positive raises :class:`InvalidParameter`.
    The group law is sampled at ``GROUP_SAMPLES`` pairs (s, t) drawn with
    the fixed seed ``GROUP_SEED``.  Per-point failures are recorded without
    aborting the sweep, and near-divergent regions (gap below 1e-6) carry a
    warning.  When the flow cannot be built, the report has
    ``method="none"``, the construction error, no residuals and
    ``max_residual`` NaN: nothing was measured.  The same NaN stands when
    the flow is built but every point of the sweep fails.
    """
    pipeline = _RegionPipeline(state, region, clip, sing_tol)
    return _kms_sweep(pipeline)


def _kms_sweep(pipeline: _RegionPipeline) -> KmsReport:
    """The sweep of :func:`run_kms_suite` over the flow of a checked region."""
    flow, clipped = pipeline.flow, pipeline.clipped
    warnings = []
    gap = float(np.min(pipeline.kernels.c_spectrum)) - 0.5
    if gap < NEAR_DIVERGENT_GAP:
        warnings.append(f"BranchCutProximity: smallest spectral gap c - 1/2 = {gap:.3e} "
                        f"is below {NEAR_DIVERGENT_GAP:g}; complex-time kernels are "
                        f"strongly amplified")
    if clipped:
        warnings.append(f"{len(clipped)} mode(s) regularized to gap {pipeline.clip:g} "
                        f"before the flow")
    common = dict(t_values=KMS_T_GRID, warnings=tuple(warnings),
                  clipped_modes=clipped)
    if isinstance(flow, ModhamError):
        # the sweep is a reporting harness: an unbuildable flow becomes an
        # error entry instead of an exception
        return KmsReport(kms_residuals=(), group_residuals=(), symplectic_residuals=(),
                         max_residual=float("nan"), method="none", **common,
                         errors=(f"flow construction: {type(flow).__name__}: {flow}",))

    errors = []

    def measure(label, residual, *times):
        """The residual at one point, or NaN and an error entry."""
        try:
            return residual(flow, *times)
        except ModhamError as exc:
            errors.append(f"{label}: {exc}")
            return float("nan")

    kms_vals, symp_vals = [], []
    for t in KMS_T_GRID:
        kms_vals.append(measure(f"kms t={t}", kms_residual, t))
        symp_vals.append(measure(f"symplectic t={t}", symplectic_invariance_residual, t))
    rng = np.random.default_rng(GROUP_SEED)
    pairs = [rng.uniform(-2.0, 2.0, size=2) for _ in range(GROUP_SAMPLES)]
    group_vals = [measure(f"group s={s:.3f} t={t:.3f}", group_residual, s, t) for s, t in pairs]
    finite = [v for v in (*kms_vals, *group_vals, *symp_vals) if np.isfinite(v)]
    return KmsReport(kms_residuals=tuple(kms_vals), group_residuals=tuple(group_vals),
                     symplectic_residuals=tuple(symp_vals), errors=tuple(errors),
                     max_residual=float(max(finite, default=np.nan)), **common)
