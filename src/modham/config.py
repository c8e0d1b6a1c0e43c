"""Run configuration: strict JSON schema, validation and round-tripping.

The documented schema (all keys optional unless noted):

    {
      "model":  {"n_sites": 8, "mass": 1.0, "coupling": 1.0,
                 "boundary": "dirichlet"},                  # required
      "region": {"half": {}}                                # required; or
                {"sites": [0, 1, 5]} or
                {"interval": {"start": 2, "length": 4}},
      "tasks":  ["kernels", "flow", "kms", "crosscheck",
                 "entropy_scan"],                           # required, non-empty
      "tolerances": {"route_tol": 1e-7, "kms_tol": 1e-7,
                     "quad_tol": 1e-10, "sing_tol": 1e-10,
                     "clip": null},
      "output": {"directory": "modham-out", "formats": ["json"]},
      "scan":   {"lengths": [2, 4, 8], "start": null}       # needed by entropy_scan
    }

Unknown keys are schema errors unless parsing runs in lenient mode.  The
``scan.start`` key fixes the interval's left edge; when null or absent the
intervals are centered.
"""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

from .errors import SchemaError
from .regions import Region

KNOWN_TASKS = ("kernels", "flow", "kms", "crosscheck", "entropy_scan")


@dataclass(frozen=True)
class ModelConfig:
    n_sites: int
    mass: float
    coupling: float = 1.0
    boundary: str = "dirichlet"


@dataclass(frozen=True)
class Tolerances:
    route_tol: float = 1e-7
    kms_tol: float = 1e-7
    quad_tol: float = 1e-10
    sing_tol: float = 1e-10
    clip: float | None = None


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "modham-out"
    formats: tuple = ("json",)


@dataclass(frozen=True)
class ScanConfig:
    lengths: tuple = ()
    start: int | None = None


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig
    region: dict  # the file's region, validated: its one key, sites sorted
    tasks: tuple
    tolerances: Tolerances = Tolerances()
    output: OutputConfig = OutputConfig()
    scan: ScanConfig | None = None


def _field_names(schema) -> set:
    return {f.name for f in fields(schema)}


def _expect_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"expected an object, got {type(value).__name__}", path)
    return value


def _check_keys(mapping: dict, allowed, path: str, lenient: bool):
    unknown = [k for k in mapping if k not in allowed]
    if unknown and not lenient:
        raise SchemaError(f"unknown key(s) {unknown}; allowed: {sorted(allowed)}", path)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _get_int(mapping: dict, key: str, path: str, minimum: int) -> int:
    if key not in mapping:
        raise SchemaError("missing required key", f"{path}.{key}")
    value = mapping[key]
    if not _is_int(value):
        raise SchemaError(f"expected an integer, got {value!r}", f"{path}.{key}")
    if value < minimum:
        raise SchemaError(f"must be >= {minimum}, got {value}", f"{path}.{key}")
    return int(value)


def _int_list(value, path: str) -> list:
    if not isinstance(value, list) or not all(map(_is_int, value)):
        raise SchemaError("expected a list of integers", path)
    return value


def _get_number(mapping: dict, key: str, path: str, default=MISSING, strict_min=False):
    """A finite number >= 0.0 (> 0.0 under ``strict_min``); an absent key
    takes ``default`` unless there is none, and null is accepted exactly
    where the default is null."""
    if key not in mapping:
        if default is MISSING:
            raise SchemaError("missing required key", f"{path}.{key}")
        return default
    value = mapping[key]
    if value is None and default is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"expected a number, got {value!r}", f"{path}.{key}")
    # json reads NaN and Infinity; integers beyond the float range fail here too
    if not abs(value) <= sys.float_info.max:
        raise SchemaError(f"expected a finite number, got {value!r}", f"{path}.{key}")
    value = float(value)
    if value < 0.0 or strict_min and value == 0.0:
        raise SchemaError(f"must be {'>' if strict_min else '>='} 0.0, got {value}",
                          f"{path}.{key}")
    return value


def _parse_model(raw, lenient: bool) -> ModelConfig:
    raw = _expect_mapping(raw, "model")
    _check_keys(raw, _field_names(ModelConfig), "model", lenient)
    n_sites = _get_int(raw, "n_sites", "model", minimum=1)
    mass = _get_number(raw, "mass", "model")
    coupling = _get_number(raw, "coupling", "model", ModelConfig.coupling, strict_min=True)
    boundary = raw.get("boundary", ModelConfig.boundary)
    if boundary not in ("dirichlet", "periodic"):
        raise SchemaError(
            f"must be 'dirichlet' or 'periodic', got {boundary!r}", "model.boundary"
        )
    return ModelConfig(n_sites, mass, coupling, boundary)


def _parse_region(raw, n_sites: int, lenient: bool) -> dict:
    raw = _expect_mapping(raw, "region")
    kinds = [k for k in ("half", "sites", "interval") if k in raw]
    _check_keys(raw, {"half", "sites", "interval"}, "region", lenient)
    if len(kinds) != 1:
        raise SchemaError(
            f"exactly one of 'half', 'sites', 'interval' required, got {kinds}",
            "region",
        )
    kind = kinds[0]
    if kind == "half":
        _expect_mapping(raw["half"], "region.half")
        return {"half": {}}
    if kind == "sites":
        sites = _int_list(raw["sites"], "region.sites")
        if len(set(sites)) != len(sites):
            raise SchemaError("duplicate site indices", "region.sites")
        if not sites:
            raise SchemaError("region must be non-empty", "region.sites")
        if min(sites) < 0 or max(sites) >= n_sites:
            raise SchemaError(
                f"site indices must lie in [0, {n_sites}), got {sites}",
                "region.sites",
            )
        return {"sites": sorted(sites)}
    interval = _expect_mapping(raw["interval"], "region.interval")
    _check_keys(interval, {"start", "length"}, "region.interval", lenient)
    start = _get_int(interval, "start", "region.interval", minimum=0)
    length = _get_int(interval, "length", "region.interval", minimum=1)
    if start + length > n_sites:
        raise SchemaError(
            f"interval [{start}, {start + length}) exceeds the lattice of "
            f"{n_sites} sites",
            "region.interval",
        )
    return {"interval": {"start": start, "length": length}}


def _parse_tolerances(raw, lenient: bool) -> Tolerances:
    if raw is None:
        return Tolerances()
    raw = _expect_mapping(raw, "tolerances")
    defaults = asdict(Tolerances())
    _check_keys(raw, defaults, "tolerances", lenient)
    values = {key: _get_number(raw, key, "tolerances", default, strict_min=True)
              for key, default in defaults.items()}
    clip = values["clip"]
    if clip is not None and clip <= values["sing_tol"]:  # no kernels at that gap
        raise SchemaError(f"must be > sing_tol = {values['sing_tol']!r}, got {clip!r}",
                          "tolerances.clip")
    return Tolerances(**values)


def _parse_output(raw, lenient: bool) -> OutputConfig:
    if raw is None:
        return OutputConfig()
    raw = _expect_mapping(raw, "output")
    _check_keys(raw, _field_names(OutputConfig), "output", lenient)
    directory = raw.get("directory", OutputConfig.directory)
    if not isinstance(directory, str) or not directory:
        raise SchemaError("expected a non-empty string", "output.directory")
    formats = raw.get("formats", list(OutputConfig.formats))
    if not isinstance(formats, list) or not formats:
        raise SchemaError("expected a non-empty list", "output.formats")
    for fmt in formats:
        if fmt not in ("csv", "json"):
            raise SchemaError(f"unknown format {fmt!r}", "output.formats")
    if len(set(formats)) != len(formats):
        raise SchemaError("duplicate formats", "output.formats")
    return OutputConfig(directory, tuple(formats))


def _parse_scan(raw, n_sites: int, lenient: bool) -> ScanConfig | None:
    if raw is None:
        return None
    raw = _expect_mapping(raw, "scan")
    _check_keys(raw, _field_names(ScanConfig), "scan", lenient)
    lengths = _int_list(raw.get("lengths", []), "scan.lengths")
    for value in lengths:
        if value < 1 or value > n_sites:
            raise SchemaError(
                f"interval length {value} outside [1, {n_sites}]", "scan.lengths"
            )
    start = raw.get("start")
    if start is not None:
        if not _is_int(start):
            raise SchemaError("expected an integer or null", "scan.start")
        if start < 0 or start >= n_sites:
            raise SchemaError(f"start {start} outside [0, {n_sites})", "scan.start")
    return ScanConfig(tuple(lengths), start)


def parse_config(source, lenient: bool = False) -> RunConfig:
    """Parse and validate a configuration document.

    ``source`` may be a mapping, a JSON string, a path to a JSON file, or a
    text stream such as ``sys.stdin``, whose whole content is JSON text.
    Unknown keys raise :class:`SchemaError` (with the offending path) unless
    ``lenient`` is set.
    """
    text, origin = None, ""
    if hasattr(source, "read"):  # a stream holds JSON text, whatever it starts with
        text = source.read()
    elif isinstance(source, (str, Path)) and str(source).lstrip().startswith("{"):
        text = str(source)
    elif not isinstance(source, dict):
        path = Path(source)
        if not path.exists():
            raise FileNotFoundError(f"config file not found: {path}")
        text, origin = path.read_text(), f" in {path}"
    try:
        raw = source if text is None else json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON{origin}: {exc}") from exc

    raw = _expect_mapping(raw, "")
    _check_keys(raw, _field_names(RunConfig), "", lenient)
    for key in ("model", "region", "tasks"):
        if key not in raw:
            raise SchemaError("missing required key", key)

    model = _parse_model(raw["model"], lenient)
    region = _parse_region(raw["region"], model.n_sites, lenient)

    tasks = raw["tasks"]
    if not isinstance(tasks, list) or not tasks:
        raise SchemaError("expected a non-empty list", "tasks")
    for task in tasks:
        if task not in KNOWN_TASKS:
            raise SchemaError(f"unknown task {task!r}; allowed: {KNOWN_TASKS}", "tasks")
    if len(set(tasks)) != len(tasks):
        raise SchemaError("duplicate tasks", "tasks")

    tolerances = _parse_tolerances(raw.get("tolerances"), lenient)
    output = _parse_output(raw.get("output"), lenient)
    scan = _parse_scan(raw.get("scan"), model.n_sites, lenient)
    if "entropy_scan" in tasks and scan is None:
        raise SchemaError("the entropy_scan task requires a 'scan' block", "scan")

    return RunConfig(model, region, tuple(tasks), tolerances, output, scan)


def resolve_region(config: RunConfig) -> Region:
    """Materialize the configured region against the model size."""
    region = config.region
    if "half" in region:
        return Region.half(config.model.n_sites)
    if "sites" in region:
        return Region(region["sites"])
    return Region.interval(**region["interval"])


def config_to_dict(config: RunConfig) -> dict:
    """Plain-dict form of a config; ``parse_config`` round-trips it."""
    out = json.loads(json.dumps(asdict(config)))  # plain lists for tuples
    if config.scan is None:
        del out["scan"]
    return out
