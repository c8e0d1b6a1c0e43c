"""Task execution, result serialization and the exit-code contract.

Exit codes follow the error class: 0 when every residual check passes its
configured tolerance, 2 on a validation failure (a residual exceeded its
tolerance, or :class:`~modham.errors.QuadratureNotConverged`), 4 on I/O or
schema problems (``OSError``, :class:`~modham.errors.SchemaError`), and 3
on any other :class:`~modham.errors.ModhamError`, a construction error
(non-standard region, zero mode, modular divergence and kin).  Raised
anywhere from creating the output directory to writing the last file, such
an error leaves a run by one path, which writes ``error.json``.

A run builds each object once and passes it to the tasks: the vacuum and,
for the region tasks, one :class:`modham.flow._RegionPipeline` (the
standardness check and its frame, the restriction, its regularization
under a clip, the kernels of that regularized restriction and the flow).
Every matrix a run writes belongs to that one restricted state, and the
crosscheck compares its routes on that restriction, those kernels and the
pipeline's frame (under a clip that of the purified restriction), as
:func:`modham.crosscheck.route_agreement` does on a raw pipeline.

Data files are deterministic: floats are rendered with 17 significant
digits, keys are sorted, and no timestamps enter them.  Wall-clock and
library versions go to ``metadata.json`` only.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__ as _version
from .config import RunConfig, ScanConfig, config_to_dict, resolve_region
from .crosscheck import _route_agreement
from .errors import (
    IndexOutOfRange,
    ModhamError,
    NotStandard,
    QuadratureNotConverged,
    SchemaError,
)
from .flow import _RegionPipeline, _kms_sweep
from .kernels import entanglement_entropy, nested_spectra
from .lattice import GaussianState, LatticeModel, vacuum_state
from .regions import Region

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONSTRUCTION = 3
EXIT_IO = 4


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
    return f"{value:.17g}" if math.isfinite(value) else f'"{value}"'  # "nan", "inf", "-inf"


def to_json_text(obj, indent: int = 0) -> str:
    """Deterministic JSON rendering: sorted keys, fixed float formatting."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None or isinstance(obj, (bool, str)):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [format_float(v) if type(v) is float else to_json_text(v, indent + 1) for v in obj]
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


def matrix_payload(mat: np.ndarray, sites) -> dict:
    """Row-major record of a 2-D matrix with its dimensions and site map."""
    rows, cols = mat.shape
    return {
        "rows": rows,
        "cols": cols,
        "data_row_major": [float(v) for v in mat.ravel()],
        "site_index_map": [int(s) for s in sites],
    }


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


def _fields(report, *dropped) -> dict:
    """A report dataclass as the dict of its fields but ``dropped``, tuples as lists."""
    return {key: list(value) if isinstance(value, tuple) else value
            for key, value in asdict(report).items() if key not in dropped}


def entropy_scan(config: RunConfig):
    """Entropy of centered (or fixed-start) intervals over a length sweep.

    Rows keep the order of the configured lengths; failures are recorded in
    the row and do not abort the sweep.  These are the rows of the
    ``entropy_scan`` task of :func:`run`, which ``modham scan`` runs.
    """
    return _scan_rows(vacuum_state(LatticeModel(**asdict(config.model))), config.scan)[0]


def _scan_rows(state: GaussianState, scan: ScanConfig) -> tuple[list, dict]:
    """The scan's rows and the sweep's trace; the intervals are nested, so
    one :func:`modham.kernels.nested_spectra` serves every length."""
    n = state.n_sites
    rows, swept, intervals = [], [], []
    for length in scan.lengths:
        start = scan.start if scan.start is not None else (n - length) // 2
        rows.append({"length": int(length)})
        try:
            if min(start, length, n - start) < 0:
                # the Region constructor names a negative start or length
                Region.interval(start, min(length, n - start))
            if start + length > n:
                raise IndexOutOfRange(
                    f"interval of length {length} does not fit at start {start}"
                )
            # entropy is well defined for any proper subregion (it is
            # continuous at c = 1/2); only the full lattice is refused
            if not 0 < length < n:
                raise NotStandard(
                    f"interval of length {length} covers the full lattice"
                )
            # every row's sites stay alive until the sweep: as a range, since
            # Regions (tuples of ints) of a 256-length scan hold MiBs
            swept.append(rows[-1])
            intervals.append(range(start, start + length))
        except ModhamError as exc:
            rows[-1]["error"] = f"{type(exc).__name__}: {exc}"
    started = time.perf_counter()
    spectra = nested_spectra(state, intervals)
    trace = {"sweep_seconds": time.perf_counter() - started,
             "window_sites": max(map(len, intervals), default=0)}
    for row, c in zip(swept, spectra):  # c ascending
        if isinstance(c, ModhamError):
            row["error"] = f"{type(c).__name__}: {c}"
        else:
            row.update(entropy=entanglement_entropy(c), c_min=float(c[0]), c_max=float(c[-1]))
    trace["error_rows"] = sum("error" in row for row in rows)
    return rows, trace


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
    # the regularized modes are the kernels report's
    report = bundle.reports["kms"] = _fields(_kms_sweep(pipeline), "clipped_modes")
    bundle.warnings.extend(report["warnings"])
    complete = all(v == v for v in report["kms_residuals"]) and not report["errors"]
    return complete and report["max_residual"] <= tol.kms_tol


def _task_crosscheck(pipeline, tol, bundle: ResultBundle):
    clipped = pipeline.clipped
    if clipped:
        bundle.warnings.append(
            f"crosscheck: {len(clipped)} mode(s) regularized and purified "
            f"at gap {tol.clip:g}"
        )
    agreement = _route_agreement(pipeline, tol.quad_tol)
    report = _fields(agreement, "region")
    # the conditioning of the frame and the quadrature is a trace, not data
    bundle.metadata["crosscheck"] = {key: report.pop(key) for key in ("frame_cond", "a_gap")}
    report["generator_norm"] = report.pop("norm")
    bundle.reports["crosscheck"] = {**report, "regularized_modes": list(clipped)}
    return agreement.max_residual <= tol.route_tol


def run(config: RunConfig):
    """Execute the configured tasks and write the result files into
    ``config.output.directory``.  Returns ``(bundle, exit_code)``; an error
    raised anywhere from creating the directory to writing the last file is
    recorded once, with the code of its class (see the module docstring).
    """
    out_dir = Path(config.output.directory)
    started = time.time()
    bundle = ResultBundle()
    bundle.metadata = {
        "config": config_to_dict(config),
        "version": _version,
        "numpy_version": np.__version__,
    }

    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        vacuum_started = time.perf_counter()
        state = vacuum_state(LatticeModel(**asdict(config.model)))
        bundle.metadata["vacuum_seconds"] = time.perf_counter() - vacuum_started
        region = resolve_region(config)
        tol = config.tolerances
        if any(task != "entropy_scan" for task in config.tasks):
            pipeline = _RegionPipeline(state, region, tol.clip, tol.sing_tol)

        all_pass = True
        for task in config.tasks:
            if task == "entropy_scan":
                bundle.scan_rows, bundle.metadata["entropy_scan"] = _scan_rows(
                    state, config.scan
                )
                bundle.reports["entropy_scan"] = {"rows": len(bundle.scan_rows)}
                continue
            runner = {
                "kernels": _task_kernels,
                "flow": _task_flow,
                "kms": _task_kms,
                "crosscheck": _task_crosscheck,
            }[task]
            all_pass = runner(pipeline, tol, bundle) and all_pass
        bundle.metadata["elapsed_seconds"] = time.time() - started
        _write_outputs(out_dir, config, bundle)
    except QuadratureNotConverged as exc:
        return bundle, _record_error(out_dir, exc, EXIT_VALIDATION)
    except (SchemaError, OSError) as exc:
        return bundle, _record_error(out_dir, exc, EXIT_IO)
    except ModhamError as exc:
        return bundle, _record_error(out_dir, exc, EXIT_CONSTRUCTION)
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
    if "entropy_scan" in config.tasks:
        _write_scan_tables(out_dir, config.output.formats, bundle.scan_rows)
    _write_json(out_dir / "metadata.json", bundle.metadata)
