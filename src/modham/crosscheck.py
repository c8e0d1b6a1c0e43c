"""Three-route agreement checks for the region-restricted generator.

Route (a) is full-space spectral calculus (``2 arcoth`` of ``1 - P + IPI``),
route (b) the M/N block formula on the restricted correlators, route (c) the
resolvent integral as one trapezoid sum in s = tanh t on the restriction
alone: on H_L, A^2 has the blocks 4 P_R X_R and 4 X_R P_R, so the region
block is ``M = P_R g(4 X_R P_R)``, ``N = X_R g(4 P_R X_R)`` with
``g(l) = int_0^1 2 (l - s^2)^{-1} ds``, Casini and Huerta's kernels from r x r
solves and no eigenvalue.  All three must produce the same region block of
``I ln Delta``; that three-route comparison at the route tolerance is the
certificate.  They share the input (X_R, P_R) and no step:

- (a): the frame's Cholesky factors of X and P, one SVD, ``eigh`` of ``a_hl``
  and 2 arcoth, lifted from H_L to the full ``I ln Delta`` in O(n^2 r);
- (b): the Cholesky factor of P_R and ``eigh`` of ``L^T X_R L``, then f(c);
- (c): the Cholesky factor ``X_R = R R^T``, one Householder reduction of
  ``4 R^T P_R R - 1`` to tridiagonal form and ``dptsv`` solves of size r
  (:func:`modham.subspace._region_quadrature`), with no frame and no
  ``a_hl``; the rule's h vs h/2 difference is measured on the compared
  block, so ``quad_error_bound`` bounds that block;
- the two-point-kernel route: a nonsymmetric complex ``eig`` of
  ``2 eps G|_R + i`` and ``-2 arccot`` of its eigenvalues, so
  ``kernel_vs_blocks`` compares two independent evaluations of the block.

Route (a) evaluates ``ln Delta`` only: the Tomita operator S, the
conjugation J, Delta itself and the ``exp(ln Delta)`` consistency gate
belong to :func:`modham.subspace.modular_data_full`, and no route reads
them.  One supplementary residual certifies the full-space construction:
the subspace split (region block minus complement block) is compared with
route (a) on the whole phase space.  Its region block is route (b)'s
``L_block`` and its complement block comes from the region's mode frame
through the purity of the state (a vacuum, or a clipped run's purified
restriction), so ``split_vs_spectral`` certifies that pairing against route
(a), which reads neither.

Regions whose restricted spectrum touches c = 1/2 at double precision have
no representable generator; for those, :func:`regularized_instance` moves
the spectrum off 1/2 by an explicit gap with ``regularize_correlators``,
purifies that nearby state onto a doubled region, and the routes are
compared raw on it.  The gap is always reported, never implicit.  The
routes read the frame, restriction and kernels of a run's
:class:`modham.flow._RegionPipeline`, which :func:`route_agreement` builds
raw.  Under a clip that is the regularized restriction, whose block the run
writes: routes (b) and (c) read it directly, and route (a) and the split
read the frame of the pure state that contains it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import frob, rel_diff
from .flow import _RegionPipeline
from .kernels import (
    DEFAULT_SING_TOL,
    lndelta_region_via_G,
    purify_restriction,
    regularize_correlators,
    restrict_correlators,
    symplectic_spectrum,
)
from .lattice import GaussianState
from .regions import Region
from .subspace import (
    _arccot_split,
    _region_quadrature,
    _spectral_lndelta,
)


@dataclass(frozen=True)
class RouteAgreement:
    """Pairwise relative residuals between the generator routes."""

    region: Region
    norm: float
    spectral_vs_blocks: float
    spectral_vs_quadrature: float
    blocks_vs_quadrature: float
    split_vs_spectral: float
    kernel_vs_blocks: float
    quad_error_bound: float
    quad_evals: int
    frame_cond: float  # s_max / s_min of the standardness frame's system, which RANK_TOL judges
    a_gap: float  # min |eig A on H_L| - 1; the quadrature's cost grows like ln(1/a_gap)

    @property
    def max_residual(self) -> float:
        return max(
            self.spectral_vs_blocks,
            self.spectral_vs_quadrature,
            self.blocks_vs_quadrature,
            self.split_vs_spectral,
            self.kernel_vs_blocks,
        )


def minimal_gap(state: GaussianState, region: Region) -> float:
    """Smallest distance of the restricted spectrum from c = 1/2."""
    c = symplectic_spectrum(restrict_correlators(state, region))
    return float(np.min(c) - 0.5)


def regularized_instance(
    state: GaussianState, region: Region, clip: float
) -> tuple[GaussianState, Region, tuple]:
    """Regularize the restricted state to a gap and purify onto a doubled region.

    Returns ``(pure_state, embedded_region, clipped_modes)``.  The embedded
    region is the first half of the purified lattice and restricts to the
    regularized X_R, P_R bit for bit: every full-space route applies with a
    spectral gap of at least ``clip``, and :func:`route_agreement` on it
    reports the floats of a run under that clip.
    """
    rc = restrict_correlators(state, region)
    rc_reg, clipped = regularize_correlators(rc, clip)
    pure_state, embedded = purify_restriction(rc_reg)
    return pure_state, embedded, clipped


def route_agreement(
    state: GaussianState,
    region: Region,
    quad_tol: float = 1e-10,
    sing_tol: float = DEFAULT_SING_TOL,
) -> RouteAgreement:
    """Compute the generator along every route and compare pairwise, on the
    pipeline a run without a clip builds: a region that is not standard,
    an empty one too, raises :class:`NotStandard`.  Callers facing
    degenerate regions should first map the instance through
    :func:`regularized_instance`.
    """
    return _route_agreement(_RegionPipeline(state, region, clip=None, sing_tol=sing_tol), quad_tol)


def _route_agreement(pipeline: _RegionPipeline, quad_tol: float) -> RouteAgreement:
    """:func:`route_agreement` on a pipeline's standardness ``frame``, its
    restriction ``rc_flow`` and the kernels of that restriction."""
    sub, rc, kernels = pipeline.frame, pipeline.rc_flow, pipeline.kernels
    # I ln Delta = (I L^{-T} q) ln_hl (L q)^T, with diag(X, P) = L L^T, lifted in O(n^2 r)
    i_ln_delta = sub.lift(_spectral_lndelta(sub), times_i=True)
    gen_spectral = i_ln_delta[np.ix_(sub.sel, sub.sel)]
    gen_blocks = kernels.L_block

    gen_quad, quad_err, quad_evals = _region_quadrature(rc, quad_tol)

    split_full = _arccot_split(sub, rc, gen_blocks)
    gen_kernel_form = lndelta_region_via_G(rc, sing_tol=pipeline.sing_tol)

    norm = frob(gen_blocks)
    return RouteAgreement(
        region=sub.region,
        norm=norm,
        spectral_vs_blocks=rel_diff(gen_spectral, gen_blocks),
        spectral_vs_quadrature=frob(gen_spectral - gen_quad) / norm,
        blocks_vs_quadrature=rel_diff(gen_quad, gen_blocks),
        split_vs_spectral=rel_diff(i_ln_delta, split_full),
        kernel_vs_blocks=rel_diff(gen_kernel_form, gen_blocks),
        quad_error_bound=quad_err,
        quad_evals=quad_evals,
        frame_cond=sub.frame_cond,
        a_gap=float(np.min(np.abs(sub.eigs))) - 1.0,
    )
