"""Hostile input at the three entry points: only the package's own errors
escape.  The examples are derandomized, so every run tries the same ones."""

import io
import random
import re
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from braidfloer.braids import MAX_STRANDS, BraidError, parse_braid
from braidfloer.cli import main
from braidfloer.fourmanifold import (ConfigurationError, characteristic_numbers,
                                     configuration_from_dict)

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
              "tori": (st.dictionaries(torus, st.integers(0, 3) | json_values,
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


@FUZZ
@given(config_like, st.integers(2, 9))
def test_configuration_raises_only_configuration_errors(data, d):
    try:
        characteristic_numbers(configuration_from_dict(data, d))
    except ConfigurationError:
        pass


def small_d(text: str) -> bool:
    """False for a header d in 201..MAX_STRANDS: a report on up to 200
    strands takes at most about 0.15 s (0.11 s for the standard word
    and 0.14 s for a 203-letter transitive word at d=200, Python 3.11
    on 2 cores), while the d=1000 standard word takes about 2.6 s."""
    m = re.match(r"\s*d=(\d+);", text)
    return m is None or not 200 < int(m.group(1)) <= MAX_STRANDS


@settings(FUZZ, max_examples=100)
@given(braid_text | transitive_text)
def test_cli_exits_with_a_documented_code(text):
    assume(small_d(text))
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["--braid", text])
    except SystemExit as exc:  # usage errors, raised by argparse
        code = exc.code
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
