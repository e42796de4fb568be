"""Command line entry point: read a session, run it, print the report."""

from __future__ import annotations

import argparse
import sys

from .errors import AbmodError
from .series import DEFAULT_PREC
from .session import parse_session, run_session


def int_at_least(low: int):
    """argparse type: an integer >= low."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"    # argparse's "invalid int value" message
    return parse


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="abmod",
        description="computer algebra for modules over the b-series ring "
                    "with ab - ba = b^2: Bernstein polynomials, saturations, "
                    "filtrations, embeddings and log-power expansions")
    p.add_argument("session", nargs="?", default="-",
                   help="session file (default: standard input)")
    p.add_argument("--precision", type=int_at_least(2), default=None,
                   help="default series precision for the session "
                        f"(default {DEFAULT_PREC})")
    p.add_argument("--output", choices=("text", "json"), default="text")
    p.add_argument("--max-sat-iter", type=int_at_least(0), default=None,
                   help="cap on saturation steps, for every show action "
                        "(default rank * precision)")
    p.add_argument("--check", action="store_true",
                   help="treat validation diagnostics as hard errors")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.session == "-":
            text = sys.stdin.read()
        else:
            with open(args.session, "r", encoding="utf-8") as fh:
                text = fh.read()
        session = parse_session(text, args.precision)
    except (AbmodError, OSError, UnicodeDecodeError) as exc:
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
