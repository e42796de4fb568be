"""Command line entry point: read a session, run it, print the report."""

from __future__ import annotations

import argparse
import sys

from .errors import AbmodError
from .series import DEFAULT_PREC
from .session import parse_session, run_session


def non_negative_int(text: str) -> int:
    """argparse type: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="abmod",
        description="computer algebra for modules over the b-series ring "
                    "with ab - ba = b^2: Bernstein polynomials, saturations, "
                    "filtrations, embeddings and log-power expansions")
    p.add_argument("session", nargs="?", default="-",
                   help="session file (default: standard input)")
    p.add_argument("--precision", type=int, default=DEFAULT_PREC,
                   help="default series precision for the session")
    p.add_argument("--output", choices=("text", "json"), default="text")
    p.add_argument("--max-sat-iter", type=non_negative_int, default=None,
                   help="cap on saturation steps, for every show action "
                        "(default rank * precision)")
    p.add_argument("--check", action="store_true",
                   help="treat validation diagnostics as hard errors")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.session == "-":
        text = sys.stdin.read()
    else:
        with open(args.session, "r", encoding="utf-8") as fh:
            text = fh.read()
    if args.precision != DEFAULT_PREC:
        text = f"precision {args.precision}\n" + text
    try:
        session = parse_session(text)
    except AbmodError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2
    report = run_session(session, max_sat_iter=args.max_sat_iter,
                         check=args.check)
    if args.output == "json":
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(report.to_text())
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
