"""Command-line front end: ``modham {run,check,scan} config [options]``.

One parser; the command is its first positional argument and every command
takes the same options.  ``run`` executes the configured tasks, ``check``
validates a configuration without running anything, ``scan`` is ``run``
with the tasks replaced by ``["entropy_scan"]``.  Overrides, that task list
included, are validated like the values of a file.  Exit codes follow the
contract in :mod:`modham.runner`.
"""

from __future__ import annotations

import argparse
import sys

from .config import RunConfig, config_to_dict, parse_config
from .errors import SchemaError
from .runner import EXIT_IO, EXIT_OK, run


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modham",
        description=(
            "Modular Hamiltonians of free scalar chains: region kernels, "
            "flow verification and entropy scans."
        ),
    )
    parser.add_argument(
        "command",
        choices=("run", "check", "scan"),
        help="run: execute the tasks declared in the config; check: validate a "
        "config without running; scan: run with the tasks replaced by the "
        "entropy sweep",
    )
    parser.add_argument("config", help="path to a JSON config file ('-' for stdin)")
    parser.add_argument(
        "--lenient",
        action="store_true",
        help="ignore unknown config keys instead of failing",
    )
    parser.add_argument(
        "--clip",
        type=float,
        default=None,
        metavar="EPS",
        help="regularize the restricted state to a gap c - 1/2 >= EPS (reported)",
    )
    parser.add_argument("--output-dir", default=None, help="override the output directory")
    parser.add_argument(
        "--format",
        choices=("csv", "json"),
        default=None,
        help="restrict output tables to one format",
    )
    return parser


def _load_config(args) -> RunConfig:
    source = args.config
    if source == "-":
        source = sys.stdin.read()
    raw = config_to_dict(parse_config(source, lenient=args.lenient))
    if args.clip is not None:
        raw["tolerances"]["clip"] = args.clip
    if args.command == "scan":
        raw["tasks"] = ["entropy_scan"]
    if args.output_dir is not None:
        raw["output"]["directory"] = args.output_dir
    if args.format is not None:
        raw["output"]["formats"] = [args.format]
    return parse_config(raw)


_STATUS = {0: "ok", 2: "validation failure", 3: "construction error", 4: "io error"}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args)
    except (SchemaError, OSError) as exc:
        # a config that fails to load reports like an aborted run, without
        # error.json: there is no output directory yet
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        print(f"exit {EXIT_IO}: {_STATUS[EXIT_IO]}")
        return EXIT_IO

    if args.command == "check":
        print("config ok")
        return EXIT_OK

    bundle, code = run(config)
    print(f"exit {code}: {_STATUS.get(code, 'unknown')}")
    for warning in bundle.warnings:
        print(f"warning: {warning}")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
