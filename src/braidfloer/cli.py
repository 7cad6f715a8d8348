"""Command line front end.

Exit codes: 0 for a computed report (including the non-transitive case,
which reports a warning), 2 for a braid that does not parse, 3 for usage
problems (bad flags, unreadable or inconsistent configuration, or a
``--refine-depth`` whose orbit balls would exceed
``nielsen.ORBIT_BALL_CAP`` elements for one homological class).

Batch mode reads one braid word per line, skipping blank lines and
``#`` comments, and writes the byte-exact concatenation of the single
runs; the first parse error aborts the batch.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ._version import __version__
from .braids import BraidError
from .fourmanifold import ConfigurationError
from .nielsen import RefinementLimitError
from .report import build_report, render_text


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this tool reserves 2 for
    braid parse errors, so usage errors exit 3 instead."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="braidfloer",
        description="Fixed point and Floer-type invariants of framed "
                    "spherical braid words, plus the fundamental group and "
                    "characteristic numbers of the associated fiber sum.")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--braid", metavar="WORD",
                        help="braid word, e.g. 'd=3; s1 s2'")
    source.add_argument("--batch", metavar="PATH",
                        help="file with one braid word per line; blank "
                             "lines and # comments are skipped")
    p.add_argument("--format", choices=("json", "text"), default="text",
                   help="output format (default: text)")
    p.add_argument("--refine-depth", type=int, default=0, metavar="N",
                   help="twisted-conjugacy refinement search depth "
                        "(default: 0, no refinement)")
    p.add_argument("--config", metavar="PATH",
                   help="gluing configuration JSON (default: built-in "
                        "mapping torus + four-torus + two K3 pieces)")
    p.add_argument("--version", action="version",
                   version=f"%(prog)s {__version__}")
    return p


def _emit(report: dict, fmt: str, out) -> None:
    if fmt == "json":
        out.write(json.dumps(report, separators=(",", ":")) + "\n")
    else:
        out.write(render_text(report))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.refine_depth < 0:
        parser.error("--refine-depth must be >= 0")

    config_data = None
    if args.config is not None:
        try:
            config_data = json.loads(
                Path(args.config).read_text(encoding="utf-8"))
        except OSError as exc:
            parser.error(f"cannot read config file: {exc}")
        except (ValueError, RecursionError) as exc:
            # bytes that are not UTF-8, text that is not JSON, nesting
            # past the recursion limit or an integer past the digit limit
            parser.error(f"config file is not valid UTF-8 JSON: {exc}")

    if args.braid is not None:
        words = [args.braid]
    else:
        try:
            text = Path(args.batch).read_text(encoding="utf-8")
        except OSError as exc:
            parser.error(f"cannot read batch file: {exc}")
        except UnicodeDecodeError as exc:
            parser.error(f"batch file is not UTF-8: {exc}")
        words = [w for w in (line.strip() for line in text.splitlines())
                 if w and not w.startswith("#")]

    try:
        for word in words:
            report = build_report(word, refine_depth=args.refine_depth,
                                  config_data=config_data)
            _emit(report, args.format, sys.stdout)
    except BraidError as exc:
        print(f"braidfloer: {exc}", file=sys.stderr)
        return 2
    except (ConfigurationError, RefinementLimitError) as exc:
        print(f"braidfloer: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
