"""Command line front end.

Exit codes: 0 for a computed report (including the non-transitive case,
which reports a warning), 2 for a braid that does not parse (its numbers
are ASCII digits 0-9 and its separators ASCII whitespace), 3 for usage
problems and for a report that runs out of memory.  Usage problems are
bad flags (``--refine-depth`` too takes ASCII digits 0-9 only, and one
with more digits than the interpreter converts gets a one-line message
naming the limit), an unreadable or inconsistent configuration, which
fails whatever the braid, and a ``--refine-depth`` whose orbit balls,
with the L(t) an odd depth computes for the boundary elements whose
first letter is not their conjugator's, would count more than
``nielsen.ORBIT_BALL_CAP`` elements for one homological class.  The
images of a pseudo-Anosov braid grow exponentially in its length and
nothing caps them yet, so a short word can need more memory
than the process may take (say under ``ulimit -v``); the resulting
``MemoryError`` exits 3 with a one-line message instead of a traceback,
and so does a stdout that the reader closes before every report is
written (``braidfloer --batch words.txt | head -n 1``).

Batch mode reads one braid word per line, skipping blank lines and
``#`` comments, and writes the byte-exact concatenation of the single
runs; the first parse error aborts the batch and names its line of
the file (``line N: ``, from 1, blank and comment lines counted), as
does a refinement past ``ORBIT_BALL_CAP``.  Lines end at ``\n`` and lose ASCII
whitespace only, so a Unicode space or line break (U+3000, NEL) stays
in its line and is a parse error (exit 2).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import string
import sys
from pathlib import Path

from ._version import __version__
from .braids import BraidError, _shown, _shown_repr
from .fourmanifold import DEFAULT_CONFIGURATION, ConfigurationError
from .nielsen import RefinementLimitError
from .report import build_report, render_text


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this tool reserves 2 for
    braid parse errors, so usage errors exit 3 instead.  A usage message
    cuts each argument it echoes and each value it quotes, such as a
    file path, by ``braids._shown``'s rule, and keeps flags and choices."""

    # a value a usage message quotes: a repr, which escapes its own quotes
    _QUOTED = re.compile(r"'(?:[^'\\]|\\.)*'|\"(?:[^\"\\]|\\.)*\"")

    def parse_args(self, args=None, namespace=None):
        self._given = sys.argv[1:] if args is None else list(args)
        return super().parse_args(args, namespace)

    def error(self, message: str):
        # longest first, so that no shorter argument cuts a longer one;
        # argparse echoes an unrecognized or ambiguous one unquoted
        for arg in sorted(set(self._given) - set(self._option_string_actions),
                          key=len, reverse=True):
            message = message.replace(arg, _shown(arg))
        message = self._QUOTED.sub(
            lambda m: m[0][0] + _shown(m[0][1:-1]) + m[0][0], message)
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _depth(text: str) -> int:
    """ASCII digits 0-9 only: int() would also read '0_1', '+1', ' 2 '
    and other Unicode digits."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(
            f"expected ASCII digits 0-9, got {_shown_repr(text)}")
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"integer of {len(text)} digits is too long (the limit is "
            f"{sys.get_int_max_str_digits()} digits)") from None


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
    p.add_argument("--refine-depth", type=_depth, default=0, metavar="N",
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

    config_data = DEFAULT_CONFIGURATION
    if args.config is not None:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            parser.error(f"config file is not valid UTF-8 JSON: {exc}")
        except (OSError, ValueError) as exc:
            # a ValueError here is a path no file can have: a NUL byte,
            # or a surrogate the file system encoding cannot encode
            parser.error(f"cannot read config file: {exc}")
        try:
            config_data = json.loads(text)
        except (ValueError, RecursionError) as exc:
            # text that is not JSON, nesting past the recursion limit or
            # an integer past the digit limit
            parser.error(f"config file is not valid UTF-8 JSON: {exc}")

    # (message prefix naming the braid's line, braid)
    if args.braid is not None:
        words = [("", args.braid)]
    else:
        try:
            text = Path(args.batch).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            parser.error(f"batch file is not UTF-8: {exc}")
        except (OSError, ValueError) as exc:
            # a NUL byte or an unencodable surrogate in the path
            parser.error(f"cannot read batch file: {exc}")
        words = [(f"line {n}: ", w) for n, w in enumerate(
                     (line.strip(string.whitespace)
                      for line in text.split("\n")), start=1)
                 if w and not w.startswith("#")]

    try:
        for where, word in words:
            report = build_report(word, refine_depth=args.refine_depth,
                                  config_data=config_data)
            _emit(report, args.format, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # so that the interpreter's last flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("braidfloer: stdout was closed before the reports were "
              "written", file=sys.stderr)
        return 3
    except (BraidError, RefinementLimitError) as exc:
        print(f"braidfloer: {where}{exc}", file=sys.stderr)
        return 2 if isinstance(exc, BraidError) else 3
    except ConfigurationError as exc:
        print(f"braidfloer: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("braidfloer: out of memory while computing a report",
              file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
