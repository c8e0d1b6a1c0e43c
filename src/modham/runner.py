"""Task execution, result serialization and the exit-code contract.

Exit codes: 0 when every residual check passes its configured tolerance,
2 on a validation failure (a residual exceeded its tolerance, including
quadrature that cannot reach its target), 3 on a construction error
(non-standard region, zero mode, modular divergence and kin), 4 on I/O or
schema problems.  A machine-readable ``error.json`` is written whenever a
run aborts.

A run builds each object once and passes it to the tasks: the vacuum and,
for the region tasks, one :class:`modham.flow._RegionPipeline` (the
standardness check and its frame, the restriction, its regularization
under a clip, the kernels of that regularized restriction and the flow).
Every matrix a run writes belongs to that one restricted state.

Data files are deterministic: floats are rendered with 17 significant
digits, keys are sorted, and no timestamps enter them.  Wall-clock and
library versions go to ``metadata.json`` only.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__ as _version
from .config import RunConfig, ScanConfig, config_to_dict, resolve_region
from .crosscheck import _route_agreement, route_agreement
from .errors import (
    BranchCutProximity,
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
    ZeroModeError,
)
from .flow import _RegionPipeline, _kms_sweep
from .kernels import entanglement_entropy, purify_restriction, restricted_spectrum
from .lattice import GaussianState, build_harmonic_chain, vacuum_state
from .regions import Region
from .subspace import _verdict

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONSTRUCTION = 3
EXIT_IO = 4

_CONSTRUCTION_ERRORS = (
    NotStandard,
    ZeroModeError,
    ModularDivergence,
    EmptyRegion,
    SpectrumOutOfDomain,
    BranchCutProximity,
    PositivityViolation,
    IndexOutOfRange,
    InvalidParameter,
    FlowOverflow,
    NumericalError,
)


@dataclass
class ResultBundle:
    """Everything a run produces, before serialization."""

    metadata: dict = field(default_factory=dict)
    matrices: dict = field(default_factory=dict)
    reports: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)
    scan_rows: list = field(default_factory=list)


def format_float(value: float) -> str:
    """Fixed 17-significant-digit rendering used in every data file."""
    if value != value:
        return '"nan"'
    if value == float("inf"):
        return '"inf"'
    if value == float("-inf"):
        return '"-inf"'
    return f"{value:.17g}"


def to_json_text(obj, indent: int = 0) -> str:
    """Deterministic JSON rendering: sorted keys, fixed float formatting."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return to_json_text(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [to_json_text(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(inner + it for it in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {to_json_text(v, indent + 1)}"
            for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def matrix_payload(mat: np.ndarray, sites=None) -> dict:
    """Row-major matrix record with explicit dimensions and site map."""
    mat = np.asarray(mat)
    payload = {
        "rows": int(mat.shape[0]),
        "cols": int(mat.shape[1]) if mat.ndim > 1 else 1,
        "data_row_major": [float(v) for v in mat.ravel()],
    }
    if sites is not None:
        payload["site_index_map"] = [int(s) for s in sites]
    return payload


def _write_json(path: Path, payload) -> None:
    path.write_text(to_json_text(payload) + "\n")


def _write_scan_tables(out_dir: Path, formats, rows: list) -> None:
    """Write the entropy scan rows as ``entropy_scan.json`` and/or ``.csv``."""
    if "json" in formats:
        _write_json(out_dir / "entropy_scan.json", {"rows": rows})
    if "csv" not in formats:
        return
    lines = ["length,entropy,c_min,c_max,error"]
    for row in rows:
        if "error" in row:
            lines.append(f"{row['length']},,,,{json.dumps(row['error'])}")
        else:
            values = (row["entropy"], row["c_min"], row["c_max"])
            lines.append(f"{row['length']}," + "".join(f"{v:.17g}," for v in values))
    (out_dir / "entropy_scan.csv").write_text("\n".join(lines) + "\n")


def _vacuum(config: RunConfig) -> GaussianState:
    model = build_harmonic_chain(
        config.model.n_sites,
        config.model.mass,
        config.model.coupling,
        config.model.boundary,
    )
    return vacuum_state(model)


def entropy_scan(config: RunConfig):
    """Entropy of centered (or fixed-start) intervals over a length sweep.

    Rows keep the order of the configured lengths; failures are recorded in
    the row and do not abort the sweep.
    """
    return _scan_rows(_vacuum(config), config.scan)


def _scan_rows(state: GaussianState, scan: ScanConfig) -> list:
    n = state.n_sites
    rows = []
    for length in scan.lengths:
        start = scan.start if scan.start is not None else (n - length) // 2
        try:
            region = Region.interval(start, min(length, n - start))
            if len(region) != length:
                raise IndexOutOfRange(
                    f"interval of length {length} does not fit at start {start}"
                )
            # entropy is well defined for any proper subregion (it is
            # continuous at c = 1/2); only the full lattice is refused
            if _verdict(state, region, build_frame=False)[0] is not None:
                raise NotStandard(
                    f"interval of length {length} covers the full lattice"
                )
            c = restricted_spectrum(state, region)  # ascending
            rows.append({"length": int(length), "entropy": entanglement_entropy(c),
                         "c_min": float(c[0]), "c_max": float(c[-1])})
        except ModhamError as exc:
            rows.append({"length": int(length), "error": f"{type(exc).__name__}: {exc}"})
    return rows


def _task_kernels(pipeline, tol, bundle: ResultBundle):
    rc, kernels, clipped = pipeline.rc_flow, pipeline.kernels, pipeline.clipped
    sites = list(rc.region.sites)
    bundle.matrices["X_R"] = matrix_payload(rc.X_R, sites)
    bundle.matrices["P_R"] = matrix_payload(rc.P_R, sites)
    bundle.matrices["M"] = matrix_payload(kernels.M, sites)
    bundle.matrices["N"] = matrix_payload(kernels.N, sites)
    bundle.matrices["L_block"] = matrix_payload(kernels.L_block, sites)
    c_raw = pipeline.rc.modes.c  # the spectrum before regularization
    bundle.reports["kernels"] = {
        "c_spectrum": [float(c) for c in c_raw],
        "entropy": entanglement_entropy(c_raw),
        "clip": tol.clip,
        "clipped_modes": list(clipped),
    }
    if clipped:
        bundle.warnings.append(
            f"kernels: {len(clipped)} mode(s) regularized to gap {tol.clip:g}"
        )
    return True


def _task_flow(pipeline, tol, bundle: ResultBundle):
    flow = pipeline.flow
    if isinstance(flow, ModhamError):
        raise flow
    if pipeline.clipped:
        bundle.warnings.append(
            f"flow: {len(pipeline.clipped)} mode(s) regularized to gap {tol.clip:g}"
        )
    bundle.matrices["flow_generator"] = matrix_payload(
        flow.generator, list(flow.region.sites)
    )
    bundle.reports["flow"] = {
        "generator_check_residual": flow.check_residual,
        "c_min": flow.c_min,
    }
    return flow.check_residual <= tol.route_tol


def _task_kms(pipeline, tol, bundle: ResultBundle):
    report = _kms_sweep(pipeline)
    bundle.reports["kms"] = {
        "t_values": list(report.t_values),
        "kms_residuals": list(report.kms_residuals),
        "group_residuals": list(report.group_residuals),
        "symplectic_residuals": list(report.symplectic_residuals),
        "max_residual": report.max_residual,
        "method": report.method,
        "warnings": list(report.warnings),
        "errors": list(report.errors),
    }
    bundle.warnings.extend(report.warnings)
    finite = [v for v in report.kms_residuals if v == v]
    complete = len(finite) == len(report.kms_residuals) and not report.errors
    return complete and report.max_residual <= tol.kms_tol


def _task_crosscheck(pipeline, tol, bundle: ResultBundle):
    clipped = pipeline.clipped
    if tol.clip is None:
        agreement = _route_agreement(
            pipeline.frame, pipeline.rc, pipeline.kernels, tol.quad_tol, tol.sing_tol
        )
    else:
        if clipped:
            bundle.warnings.append(
                f"crosscheck: {len(clipped)} mode(s) regularized and purified "
                f"at gap {tol.clip:g}"
            )
        pure_state, embedded = purify_restriction(pipeline.rc_flow)
        agreement = route_agreement(
            pure_state, embedded, quad_tol=tol.quad_tol, sing_tol=tol.sing_tol
        )
    bundle.reports["crosscheck"] = {
        "generator_norm": agreement.norm,
        "spectral_vs_blocks": agreement.spectral_vs_blocks,
        "spectral_vs_quadrature": agreement.spectral_vs_quadrature,
        "blocks_vs_quadrature": agreement.blocks_vs_quadrature,
        "split_vs_spectral": agreement.split_vs_spectral,
        "kernel_vs_blocks": agreement.kernel_vs_blocks,
        "quad_error_bound": agreement.quad_error_bound,
        "quad_evals": agreement.quad_evals,
        "regularized_modes": list(clipped),
    }
    bundle.metadata["crosscheck"] = {"gram_cond": agreement.gram_cond, "a_gap": agreement.a_gap}
    return agreement.max_residual <= tol.route_tol


def run(config: RunConfig, output_dir: str | Path | None = None):
    """Execute the configured tasks and write result files.

    Returns ``(bundle, exit_code)``.  Residual failures yield exit code 2,
    construction errors 3, I/O errors 4.
    """
    out_dir = Path(output_dir if output_dir is not None else config.output.directory)
    started = time.time()
    bundle = ResultBundle()
    bundle.metadata = {
        "config": config_to_dict(config),
        "version": _version,
        "numpy_version": np.__version__,
    }

    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return bundle, _record_error(out_dir, exc, EXIT_IO)

    try:
        state = _vacuum(config)
        region = resolve_region(config)
        tol = config.tolerances
        if any(task != "entropy_scan" for task in config.tasks):
            pipeline = _RegionPipeline(state, region, tol.clip, tol.sing_tol)

        all_pass = True
        for task in config.tasks:
            if task == "entropy_scan":
                bundle.scan_rows = _scan_rows(state, config.scan)
                bundle.reports["entropy_scan"] = {"rows": len(bundle.scan_rows)}
                continue
            runner = {
                "kernels": _task_kernels,
                "flow": _task_flow,
                "kms": _task_kms,
                "crosscheck": _task_crosscheck,
            }[task]
            all_pass = runner(pipeline, tol, bundle) and all_pass
    except QuadratureNotConverged as exc:
        return bundle, _record_error(out_dir, exc, EXIT_VALIDATION)
    except _CONSTRUCTION_ERRORS as exc:
        return bundle, _record_error(out_dir, exc, EXIT_CONSTRUCTION)
    except SchemaError as exc:
        return bundle, _record_error(out_dir, exc, EXIT_IO)
    except OSError as exc:
        return bundle, _record_error(out_dir, exc, EXIT_IO)

    bundle.metadata["elapsed_seconds"] = time.time() - started
    try:
        _write_outputs(out_dir, config, bundle)
    except OSError as exc:
        return bundle, _record_error(out_dir, exc, EXIT_IO)
    return bundle, EXIT_OK if all_pass else EXIT_VALIDATION


def _record_error(out_dir: Path, exc: Exception, code: int) -> int:
    error = {"type": type(exc).__name__, "message": str(exc), "exit_code": code}
    print(f"error: {error['type']}: {error['message']}", file=sys.stderr)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_json(out_dir / "error.json", {"error": error})
    except OSError:
        pass
    return code


def _write_outputs(out_dir: Path, config: RunConfig, bundle: ResultBundle) -> None:
    if bundle.matrices:
        _write_json(
            out_dir / "kernels.json",
            {"config": bundle.metadata["config"], "matrices": bundle.matrices},
        )
    if bundle.reports:
        _write_json(
            out_dir / "residuals.json",
            {
                "config": bundle.metadata["config"],
                "reports": bundle.reports,
                "warnings": sorted(bundle.warnings),
            },
        )
    if bundle.scan_rows or "entropy_scan" in config.tasks:
        _write_scan_tables(out_dir, config.output.formats, bundle.scan_rows)
    _write_json(out_dir / "metadata.json", bundle.metadata)
