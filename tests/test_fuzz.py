"""Hostile input at the three entry points: only the package's own errors
escape.  The examples are derandomized, so every run tries the same ones."""

import copy
import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from braidfloer.braids import MAX_STRANDS, BraidError, parse_braid
from braidfloer.cli import main
from braidfloer.fourmanifold import (DEFAULT_CONFIGURATION, ConfigurationError,
                                     _configuration, _resolved,
                                     characteristic_numbers,
                                     configuration_from_dict)

from _oracles import parse_braid_by_runs
from _samplers import random_transitive_braid

FUZZ = settings(derandomize=True, database=None, deadline=None,
                max_examples=200)

# text near the braid grammar, as well as any text at all; small d and
# low generators make some of the words transitive, with full reports
token = st.sampled_from(
    ["s1", "s2", "s3", "s4", "s1^-1", "s2^-1", "s3^-1", "t1", "t2^-1",
     "s0", "s9", "t99", "s1^2", "s-1", "x1", "^-1", ";", "d=3;"])
braid_like = st.builds(
    "d={};{}{}".format,
    st.integers(0, 6) | st.integers(-3, 70),
    st.sampled_from([" ", "", "\t"]),
    st.lists(token, max_size=10).map(" ".join))
braid_text = st.one_of(st.text(max_size=40), braid_like)
# and words that pass the parser and the transitivity check, for the CLI
transitive_text = st.builds(
    lambda seed, d: random_transitive_braid(random.Random(seed), d).to_text(),
    st.integers(0, 2 ** 16), st.integers(2, 6))

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=6) | st.just("d"),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=12)
torus = st.sampled_from(["H1", "H1p", "H3", "H3p"])
piece_like = st.fixed_dictionaries(
    {"name": st.text(max_size=3) | json_values,
     "chi": st.integers(-30, 30) | json_values,
     "sigma": st.integers(-20, 20) | json_values},
    optional={"kind": (st.sampled_from(["mapping_torus", "four_torus", "k3"])
                       | json_values),
              "tori": (st.dictionaries(torus | st.integers(-2, 2),
                                       st.integers(0, 3) | json_values,
                                       max_size=3)
                       | json_values)})
pairing_like = st.lists(torus, min_size=2, max_size=2) | json_values
config_like = json_values | st.fixed_dictionaries(
    {"pieces": st.lists(piece_like, max_size=4),
     "pairings": st.lists(pairing_like, max_size=3)})


@FUZZ
@given(braid_text)
def test_parse_braid_raises_only_braid_errors(text):
    try:
        b = parse_braid(text)
    except BraidError:
        return
    assert 2 <= b.d <= MAX_STRANDS


# words of the grammar on d = 5 with any ASCII whitespace between
# tokens; then the same with hostile pieces: separators str.split would
# take for one (the ASCII separators \x1c-\x1f, NEL, U+00A0, U+3000),
# which do not part tokens, glued tokens, a glued header, stray pieces
# and digit runs past the interpreter's 4300-digit limit on converting
# text to an int; and any text over an alphabet of those characters
def spaced(head, separator, token, max_size):
    """A head, then up to max_size tokens, each after a separator."""
    return st.builds(str.__add__, head, st.lists(
        st.builds(str.__add__, separator, token), max_size=max_size
    ).map("".join))


space = st.sampled_from([" ", "\t", "\n", "\r\n", "\x0b", "\x0c", "  "])
letter = st.sampled_from(["s1", "s2", "s3", "s4", "s1^-1", "s3^-1", "s4^-1",
                          "t1", "t5", "t2^-1"])
word_text = spaced(st.sampled_from(["d=5;", " d=5;", "\nd=05;"]), space,
                   letter, 12)
separator = space | st.sampled_from(
    ["", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u00a0", "\u3000"])
long_digits = st.integers(4290, 4400).map("7".__mul__)
hostile_token = st.one_of(
    letter, token,
    st.sampled_from(["t6", "s5", "s1s2", "s1^-1x", "s1^-1s2", "s2^-", "s^-1",
                     "^", "-", ";", "d=3;s1", "s01", "t0"]),
    st.builds("{}{}{}".format, st.sampled_from(["s", "t", "x", ""]),
              long_digits, st.sampled_from(["", "^-1", "x"])))
header = st.one_of(
    st.just("d=5;"),
    st.builds("d={};".format, st.integers(0, 6) | st.integers(999, 1002)),
    long_digits.map("d={};".format),
    st.sampled_from(["", "d=3", "d=;", " d=4;", "\x1cd=3;", "d=3;s1"]))
grammar_text = spaced(header, separator, hostile_token, 8)
hostile_text = st.text(
    alphabet="st0123456789^-1;d= \t\n\x1c\x1d\x1e\x1f\x85\u00a0\u3000x",
    max_size=30).map("d=5; ".__add__)


def parse_outcome(parse, text):
    """The word parse returns, or its error's class, message and
    position."""
    try:
        return parse(text)
    except BraidError as exc:
        return type(exc), str(exc), exc.position


@FUZZ
@given(word_text | grammar_text | hostile_text)
@example("d=3; s1s2")
@example("d=3; s1^-1x s2")
@example("d=3;s1\x1cs2")
@example("d=5; s1 s5^-1")
# each distinct token is read once: two spellings of one letter, and a
# bad token, an index out of range, a number too long to convert or a
# separator that is not ASCII whitespace after repeats of a good one
@example("d=3; s1 s01^-1")
@example("d=3; " + "s1 " * 200 + "s1x")
@example("d=3; " + "s1 " * 200 + "s3")
@example("d=3; s1 s" + "1" * 4301)
@example("d=3; s1 \x1c s2")
@example("d=3; s1\x1cs2 s1")
# two bad tokens of different kinds, in both orders: the distinct
# tokens are classified in set order, which follows the hash seed, and
# the first in text order raises
@example("d=3; s9 x")
@example("d=3; x s9")
@example("d=3; s1 s" + "9" * 4301 + " x")
def test_parse_braid_agrees_with_the_scan_of_runs(text):
    assert (parse_outcome(parse_braid, text)
            == parse_outcome(parse_braid_by_runs, text))


@FUZZ
@given(config_like, st.integers(2, 9))
def test_configuration_raises_only_configuration_errors(data, d):
    try:
        characteristic_numbers(configuration_from_dict(data, d))
    except ConfigurationError:
        pass


def tied(*pairings, volumes=(("H1", "d"), ("H1p", 3), ("H3", 3))) -> dict:
    """One custom piece with the given torus volumes, and the pairings."""
    return {"pieces": [{"name": "A", "chi": 0, "sigma": 0,
                        "tori": dict(volumes)}],
            "pairings": [list(x) for x in pairings]}


FOUR = (("H1", "d"), ("H1p", 3), ("H3", 3), ("H4", 2))
TWO_D = (("H1", "d"), ("H1p", 3), ("H3", 3), ("H4", "d"))

# a pairing with a "d" side is compared at d in its place among the
# checks: before a pairing that names an unknown torus or reuses one,
# before an integer mismatch and before an unpaired torus, at a d where
# it matches and one where it does not; None where the check passes
CHECK_ROWS = (
    (tied(["H1", "H1p"], ["H9", "H3"]), 3,
     "pairing references unknown torus 'H9'"),
    (tied(["H1", "H1p"], ["H9", "H3"]), 4,
     "volume mismatch in pairing ('H1', 'H1p'): 4 != 3"),
    (tied(["H1", "H1p"], ["H1p", "H3"]), 3,
     "torus 'H1p' used in two pairings"),
    (tied(["H1", "H1p"], ["H3", "H1"]), 5,
     "volume mismatch in pairing ('H1', 'H1p'): 5 != 3"),
    (tied(["H1", "H1p"]), 3, "unpaired tori: H3"),
    (tied(["H1", "H1p"]), 2,
     "volume mismatch in pairing ('H1', 'H1p'): 2 != 3"),
    (tied(["H3", "H1"], ["H1p", "H4"], volumes=FOUR), 3,
     "volume mismatch in pairing ('H1p', 'H4'): 3 != 2"),
    (tied(["H3", "H1"], ["H1p", "H4"], volumes=FOUR), 6,
     "volume mismatch in pairing ('H3', 'H1'): 3 != 6"),
    (tied(["H1", "H4"], ["H3", "H1p"], volumes=TWO_D), 7, None),
    (tied(["H1", "H4"], ["H3", "H9"], volumes=TWO_D), 7,
     "pairing references unknown torus 'H9'"),
)


@pytest.mark.parametrize("data, d, message", CHECK_ROWS, ids=[
    "unknown-after-a-tied-match", "tied-mismatch-before-unknown",
    "reuse-after-a-tied-match", "tied-mismatch-before-reuse",
    "unpaired-after-a-tied-match", "tied-mismatch-before-unpaired",
    "integer-mismatch-after-a-tied-match",
    "tied-mismatch-before-integer-mismatch", "two-tied-matches",
    "unknown-after-two-tied-matches"])
def test_the_check_raises_in_one_order_at_every_d(data, d, message):
    if message is None:
        config = configuration_from_dict(data, d)
        assert [p["tori"] for p in config["pieces"]] == [
            {t: d if v == "d" else v for t, v in dict(TWO_D).items()}]
    else:
        with pytest.raises(ConfigurationError) as exc:
            configuration_from_dict(data, d)
        assert str(exc.value) == message


# the one pass at d = "d" leaves each "d" volume unresolved; where it
# passes, substituting d in a copy is the check at d
@FUZZ
@given(config_like)
def test_the_check_at_d_resolves_the_check_at_the_token(data):
    try:
        checked = _configuration(data, "d")
    except ConfigurationError:
        return
    for d in range(2, 10):
        assert _resolved(checked, d) == configuration_from_dict(data, d)


def test_the_built_in_configuration_resolves_at_every_d():
    checked = _configuration(DEFAULT_CONFIGURATION, "d")
    for d in range(2, MAX_STRANDS + 1):
        assert (_resolved(checked, d)
                == configuration_from_dict(DEFAULT_CONFIGURATION, d))


@FUZZ
@given(st.integers(0, 3), st.sampled_from(["name", "kind", "chi", "sigma",
                                           "tori"]),
       json_values, st.integers(2, 9))
def test_the_default_with_one_value_replaced(index, key, value, d):
    # the check either rejects the value or returns a dict that shares
    # no container with its input: changing it leaves the input as given
    data = copy.deepcopy(DEFAULT_CONFIGURATION)
    data["pieces"][index][key] = value
    given_text = json.dumps(data)
    try:
        cfg = configuration_from_dict(data, d)
    except ConfigurationError:
        return
    characteristic_numbers(cfg)
    for piece in cfg["pieces"]:
        piece["tori"]["X"] = 1
    cfg["pairings"].append(["X", "X"])
    assert json.dumps(data) == given_text
    assert "X" not in json.dumps(DEFAULT_CONFIGURATION)


def small_d(text: str) -> bool:
    """False for a header d in 201..MAX_STRANDS: a report on up to 200
    strands takes at most about 0.15 s (0.11 s for the standard word
    and 0.14 s for a 203-letter transitive word at d=200, Python 3.11
    on 2 cores), while the d=1000 standard word takes about 2.6 s."""
    m = re.match(r"\s*d=(\d+);", text)
    return m is None or not 200 < int(m.group(1)) <= MAX_STRANDS


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """main(argv) in process: exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # usage errors, raised by argparse
        code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(FUZZ, max_examples=100)
@given(braid_text | transitive_text)
def test_cli_exits_with_a_documented_code(text):
    assume(small_d(text))
    code, _, err = run_cli(["--braid", text])
    assert code in (0, 2, 3)
    assert "Traceback" not in err


# files for --batch and --config, written by the ``paths`` fixture
FILES = {
    "batch.txt": b"d=3; s1 s2\n# comment\nd=4; s1 s2^-1 s3\nd=4; s1 s1\n",
    "config.json": json.dumps(DEFAULT_CONFIGURATION).encode(),
    "bad.json": b'{"pieces": 5}',
    "latin1.txt": b"d=3; s1 s2\n\xfe\xff\n",
}
# the fixture's paths, relative to its directory: readable, missing, the
# directory itself, long, and not UTF-8, and paths no file can have: one
# with a NUL byte and one with a surrogate no file system encoding encodes
PATHS = (*FILES, "", "missing", "/".join(["m"] * 1500), "n" * 300,
         "\udcfe\udcff", "a\x00b", "\ud800")


@pytest.fixture(scope="module")
def paths(tmp_path_factory) -> list[str]:
    """``PATHS`` in a new directory that holds ``FILES``."""
    root = tmp_path_factory.mktemp("argv")
    for name, data in FILES.items():
        (root / name).write_bytes(data)
    return [str(root / path) for path in PATHS]


# values no flag accepts: long and repeated characters, Unicode digits
# and spaces, quotes, surrogates from bytes that are not UTF-8
hostile = st.one_of(
    st.builds(str.__mul__,
              st.sampled_from(["x", "9", "\u0663", "\u3000", " ", "'", '"',
                               "\\", "s1 ", "--", "\udcff", "=x"]),
              st.integers(0, 5000)),
    st.sampled_from(["9" * 5000, "1" + "0" * 4999, "\uff12", " 2 ", "0_1",
                     "+1", "-1", "1.0", ""]))
flag_and_value = st.one_of(
    st.tuples(st.just("--braid"),
              braid_text.filter(small_d) | transitive_text | hostile),
    st.tuples(st.just("--format"),
              st.sampled_from(["json", "text"]) | hostile),
    st.tuples(st.just("--refine-depth"), st.sampled_from("012") | hostile),
    st.tuples(st.just("--version")),
    # unknown, abbreviated and ambiguous flags, with values attached,
    # and values on their own
    st.tuples(st.builds(str.__add__,
                        st.sampled_from(["", "--bogus", "--bogus=", "-x",
                                         "-h", "--b", "--b=", "--=", "--",
                                         "-", "--form", "--refine"]),
                        st.just("") | hostile)),
    st.tuples(st.sampled_from(["--braid", "--batch", "--format",
                               "--refine-depth", "--config"])),
)


@settings(FUZZ, max_examples=150)
@given(pieces=st.lists(
    flag_and_value | st.tuples(st.sampled_from(["--batch", "--config"]),
                               st.integers(0, len(PATHS) - 1)),
    max_size=5))
@example(pieces=[("--batch", PATHS.index("a\x00b"))])
@example(pieces=[("--batch", PATHS.index("\ud800"))])
def test_every_argv_exits_with_a_documented_code(paths, pieces):
    # a path piece holds an index into the fixture's paths
    argv = [paths[x] if isinstance(x, int) else x
            for piece in pieces for x in piece]
    code, out, err = run_cli(argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    # surrogatepass: argparse may echo the unpaired surrogate \ud800
    assert len(err.encode("utf-8", "surrogatepass")) < 1024
    assert run_cli(argv)[1] == out
