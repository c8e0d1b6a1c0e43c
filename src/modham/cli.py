"""Command-line front end.

Subcommands: ``run`` executes the configured tasks, ``check`` validates a
configuration without running anything, ``scan`` runs only the entropy
sweep.  Exit codes follow the contract in :mod:`modham.runner`.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .config import RunConfig, config_to_dict, parse_config
from .errors import ModhamError, SchemaError
from .runner import (
    EXIT_CONSTRUCTION,
    EXIT_IO,
    EXIT_OK,
    _write_scan_tables,
    entropy_scan,
    run,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modham",
        description=(
            "Modular Hamiltonians of free scalar chains: region kernels, "
            "flow verification and entropy scans."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "execute the tasks declared in the config"),
        ("check", "validate a config without running"),
        ("scan", "run only the entropy length sweep"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("config", help="path to a JSON config file ('-' for stdin)")
        cmd.add_argument(
            "--lenient",
            action="store_true",
            help="ignore unknown config keys instead of failing",
        )
        cmd.add_argument(
            "--clip",
            type=float,
            default=None,
            metavar="EPS",
            help="regularize the restricted state to a gap c - 1/2 >= EPS (reported)",
        )
        cmd.add_argument(
            "--output-dir", default=None, help="override the output directory"
        )
        cmd.add_argument(
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
    config = parse_config(source, lenient=args.lenient)
    if args.clip is not None:
        # the flag overrides tolerances.clip and passes the schema's checks
        raw = config_to_dict(config)
        raw["tolerances"]["clip"] = args.clip
        config = parse_config(raw)
    if args.output_dir is not None:
        config = dataclasses.replace(
            config,
            output=dataclasses.replace(config.output, directory=args.output_dir),
        )
    if args.format is not None:
        config = dataclasses.replace(
            config,
            output=dataclasses.replace(config.output, formats=(args.format,)),
        )
    return config


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args)
    except (SchemaError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    if args.command == "check":
        print("config ok")
        return EXIT_OK

    if args.command == "scan":
        if config.scan is None:
            print("error: scan command requires a 'scan' block", file=sys.stderr)
            return EXIT_IO
        # the directory comes first, so an unusable one fails before the sweep
        out_dir = Path(config.output.directory)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            rows = entropy_scan(config)
            _write_scan_tables(out_dir, config.output.formats, rows)
        except ModhamError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONSTRUCTION
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
        print(f"wrote {len(rows)} row(s) to {out_dir}")
        return EXIT_OK

    bundle, code = run(config)
    status = {0: "ok", 2: "validation failure", 3: "construction error", 4: "io error"}
    print(f"exit {code}: {status.get(code, 'unknown')}")
    for warning in bundle.warnings:
        print(f"warning: {warning}")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
