"""Command-line interface: run experiment configs and list check kinds."""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .checks import type_text
from .runner import OUTPUT_DIR_ENV, list_checks, run


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dunkllab",
        description="Numerical checks for heat-type kernels of rational "
                    "Dunkl operators.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser(
        "run", help="execute every check listed in a JSON config")
    p_run.add_argument("config", help="path to the experiment config (JSON)")

    sub.add_parser(
        "list-checks",
        help="print every registered check kind with its accepted "
             "parameters")
    sub.add_parser("version", help="print the package version")
    return parser


def _print_catalog() -> None:
    entries = list_checks()
    print(f"{len(entries)} registered checks "
          f"(set {OUTPUT_DIR_ENV} to redirect report output):\n")
    for entry in entries:
        print(f"{entry.kind}")
        print(f"    {entry.description}")
        print(f"    optional params:{'' if entry.params else ' none'}")
        for p in entry.params:
            print(f"      {p.name}: {type_text(p.schema)}; "
                  f"default {p.default_text()}")
        print()


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return run(args.config)
    if args.command == "list-checks":
        _print_catalog()
        return 0
    print(f"dunkllab {__version__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
