"""Three-route agreement checks for the region-restricted generator.

Route (a) is full-space spectral calculus (``2 arcoth`` of ``1 - P + IPI``),
route (b) the M/N block formula on the restricted correlators, route (c)
the adaptive resolvent quadrature.  All three must produce the same region
block of ``I ln Delta``; that three-route comparison at the route tolerance
is the certificate.  Route (a) evaluates ``ln Delta`` only: the Tomita
operator S, the conjugation J, Delta itself and the ``exp(ln Delta)``
consistency gate belong to :func:`modham.subspace.modular_data_full`, and
no route reads them.  Routes (a) and (c) share the standardness frame of
(state, region) and lift from H_L through its factors in O(n^2 r): route (a)
to the full ``I ln Delta``, route (c) to its region block from the region
columns alone, which are all it integrates, so ``quad_error_bound`` bounds
the compared block.  Two supplementary residuals follow.  The subspace split
(region block minus complement block) is compared with the full-space
route; its region block is route (b)'s ``mn_block_generator(rc)``, so the
new information in ``split_vs_spectral`` is the complement block.  The
two-point-kernel route diagonalizes ``2 eps G|_R + i`` with a
nonsymmetric complex eigensolver and applies ``-2 arccot`` to its
eigenvalues; it shares no step with the mode data of the block route, so
``kernel_vs_blocks`` compares two independent evaluations of the region block.

Regions whose restricted spectrum touches c = 1/2 at double precision have
no representable generator; for those, :func:`regularized_instance` moves
the spectrum off 1/2 by an explicit gap with ``regularize_correlators``,
purifies that nearby state onto a doubled region, and the routes are
compared raw on it.  The gap is always reported, never implicit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import frob
from .kernels import (
    lndelta_region_via_G,
    mn_kernels,
    purify_restriction,
    regularize_correlators,
    restrict_correlators,
    symplectic_spectrum,
)
from .lattice import GaussianState
from .regions import Region, phase_space_indices
from .subspace import (
    _arccot_split,
    _require_standard,
    _resolvent_quadrature,
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
    gram_cond: float  # cond of the Gram matrix mu, from the standardness frame
    a_gap: float  # min |eig A on H_L| - 1, which sets the quadrature's cost

    @property
    def max_residual(self) -> float:
        return max(
            self.spectral_vs_blocks,
            self.spectral_vs_quadrature,
            self.blocks_vs_quadrature,
            self.split_vs_spectral,
            self.kernel_vs_blocks,
        )


def region_block(full_matrix: np.ndarray, region: Region, n_sites: int) -> np.ndarray:
    """Extract the 2r x 2r region block of a phase-space operator."""
    sel = phase_space_indices(region, n_sites)
    return full_matrix[np.ix_(sel, sel)]


def minimal_gap(state: GaussianState, region: Region) -> float:
    """Smallest distance of the restricted spectrum from c = 1/2."""
    c = symplectic_spectrum(restrict_correlators(state, region))
    return float(np.min(c) - 0.5)


def regularized_instance(
    state: GaussianState, region: Region, clip: float
) -> tuple[GaussianState, Region, tuple]:
    """Regularize the restricted state to a gap and purify onto a doubled region.

    Returns ``(pure_state, embedded_region, clipped_modes)``.  The embedded
    region occupies the first half of the purified lattice, so every
    full-space route applies without trivial directions and with a spectral
    gap of at least ``clip``.
    """
    rc = restrict_correlators(state, region)
    rc_reg, clipped = regularize_correlators(rc, clip)
    pure_state, embedded = purify_restriction(rc_reg)
    return pure_state, embedded, clipped


def route_agreement(
    state: GaussianState,
    region: Region,
    quad_tol: float = 1e-10,
    sing_tol: float = 1e-10,
) -> RouteAgreement:
    """Compute the generator along every route and compare pairwise.

    All routes run without clipping; callers facing degenerate regions
    should first map the instance through :func:`regularized_instance`.
    """
    rc = restrict_correlators(state, region)
    sub = _require_standard(state, region)
    kernels = mn_kernels(rc, sing_tol=sing_tol)
    return _route_agreement(sub, rc, kernels, quad_tol, sing_tol)


def _route_agreement(sub, rc, kernels, quad_tol, sing_tol) -> RouteAgreement:
    """:func:`route_agreement` from the frame ``sub`` of the region's
    standardness check, its restriction ``rc`` and the
    :class:`RegionKernels` of ``rc``."""
    # I ln Delta = (I Gram^{-1/2} q) ln_hl (Gram^{1/2} q)^T, lifted in O(n^2 r)
    ln_hl, eigs, _ = _spectral_lndelta(sub)
    i_ln_delta = sub.lift(ln_hl, times_i=True)
    gen_spectral = i_ln_delta[np.ix_(sub.sel, sub.sel)]
    gen_blocks = kernels.L_block

    quad_cols, quad_err, quad_evals = _resolvent_quadrature(
        sub, quad_tol, columns=sub.root_q[sub.sel].T)
    gen_quad = sub.i_inv_root_q[sub.sel] @ quad_cols

    split_full = _arccot_split(sub, rc)
    gen_kernel_form = lndelta_region_via_G(rc, sing_tol=sing_tol)

    norm = frob(gen_blocks)
    return RouteAgreement(
        region=sub.region,
        norm=norm,
        spectral_vs_blocks=frob(gen_spectral - gen_blocks) / norm,
        spectral_vs_quadrature=frob(gen_spectral - gen_quad) / norm,
        blocks_vs_quadrature=frob(gen_blocks - gen_quad) / norm,
        split_vs_spectral=frob(split_full - i_ln_delta) / max(frob(split_full), 1e-300),
        kernel_vs_blocks=frob(gen_kernel_form - gen_blocks) / norm,
        quad_error_bound=quad_err,
        quad_evals=quad_evals,
        gram_cond=sub.frame.cond,
        a_gap=float(np.min(np.abs(eigs))) - 1.0,
    )
