"""Report bytes frozen on a fixed word list.

``data/golden.jsonl`` holds the CLI's ``--format json`` output for the
words of ``data/golden_words.txt`` at refine depth 0, followed by that
for ``data/golden_words_depth3.txt`` at refine depth 3.  The words are
40 from each benchmark corpus family at seed 1; the file headers say how
they were picked.  Any change to a report's bytes shows up here.
"""

from pathlib import Path

from braidfloer.cli import main

DATA = Path(__file__).parent / "data"


def test_reports_match_the_golden_bytes(capsys):
    out = []
    for words, depth in (("golden_words.txt", 0), ("golden_words_depth3.txt", 3)):
        code = main(["--batch", str(DATA / words), "--format", "json",
                     "--refine-depth", str(depth)])
        assert code == 0
        out.append(capsys.readouterr().out)
    expected = (DATA / "golden.jsonl").read_text()
    got = "".join(out)
    assert got.count("\n") == expected.count("\n") == 160
    for line, (mine, golden) in enumerate(zip(got.splitlines(),
                                              expected.splitlines()), start=1):
        assert mine == golden, f"line {line} differs"
    assert got == expected
