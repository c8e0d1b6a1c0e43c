"""Modular Hamiltonians of free scalar fields on a chain.

The package computes the one-particle modular generator of a Gaussian pure
state restricted to a lattice region along several independent routes
(full-space spectral calculus, restricted-correlator block kernels, and a
resolvent-integral quadrature), builds the modular flow, and verifies the
KMS boundary condition numerically.
"""

__version__ = "0.1.0"

from .errors import (
    BranchCutProximity,
    DimensionMismatch,
    DomainError,
    EmptyRegion,
    FlowOverflow,
    IndexOutOfRange,
    InvalidParameter,
    ModhamError,
    ModularDivergence,
    NotStandard,
    NumericalError,
    PositivityViolation,
    QuadratureNotConverged,
    SchemaError,
    SpectrumOutOfDomain,
    TruncationNotConverged,
    ZeroModeError,
)
from .lattice import (
    Boundary,
    GaussianState,
    LatticeModel,
    build_harmonic_chain,
    vacuum_state,
)
from .regions import Region
from .subspace import (
    ModularData,
    QuadratureResult,
    StandardnessReport,
    lndelta_resolvent_quadrature,
    modular_data_full,
    standardness_check,
)
from .kernels import (
    RegionKernels,
    RestrictedCorrelators,
    entanglement_entropy,
    lndelta_region_via_G,
    mn_kernels,
    purify_restriction,
    regularize_correlators,
    restrict_correlators,
    symplectic_spectrum,
)
from .flow import (
    KmsReport,
    ModularFlow,
    build_flow,
    flow_at,
    group_residual,
    kms_residual,
    run_kms_suite,
    symplectic_invariance_residual,
)
from .crosscheck import (
    RouteAgreement,
    minimal_gap,
    regularized_instance,
    route_agreement,
)
from .oracles import (
    FockOracleResult,
    SingleModeOracle,
    oracle_reduced_density_matrix,
    oracle_single_mode,
)
from .config import RunConfig, config_to_dict, parse_config, resolve_region
from .runner import ResultBundle, entropy_scan, run
