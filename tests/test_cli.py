"""Command line contract: formats, batch mode, exit codes, and the
shipped report schema."""

import json
import os
import resource
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import braidfloer
from braidfloer import __version__, cli, nielsen
from braidfloer.braids import MAX_STRANDS
from braidfloer.cli import main
from braidfloer.nielsen import ORBIT_BALL_CAP
from braidfloer.fourmanifold import (DEFAULT_CONFIGURATION,
                                     ConfigurationError,
                                     configuration_from_dict)
from braidfloer.report import build_report, render_text

CALIBRATION = "d=3; s1 s2"
DATA = Path(__file__).parent / "data"


def schema():
    path = resources.files("braidfloer") / "report_schema.json"
    return json.loads(path.read_text())


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_capped(argv, env=None, address_space=1 << 30, timeout=120):
    """The CLI in a fresh interpreter whose address space is capped at
    ``address_space`` bytes (the cap is set in the child only), given
    ``timeout`` seconds."""
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    src = str(Path(braidfloer.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "braidfloer.cli", *argv],
        env={**os.environ, "PYTHONPATH": src, **(env or {})},
        preexec_fn=cap_address_space, capture_output=True, text=True,
        timeout=timeout)


def pa_word(k: int) -> str:
    """d=5; (s1 s2^-1 s3 s4^-1)^k s1 s2 s3 s4, whose images grow
    exponentially in k."""
    return "d=5; " + "s1 s2^-1 s3 s4^-1 " * k + "s1 s2 s3 s4"


def max_strands_report(r) -> bool:
    # past ENUMERATION_CAP = 512 the class space Z/1000 lists only its
    # nonzero classes, whose indices sum to the Lefschetz number 2; the
    # Floer bound is the Nielsen bound, and the fiber sum 8x it, with
    # zero summands at every torsion multiple 2..999
    n = r["nielsen"]
    return (r["pi1"]["standard_form_order"] == 1000
            and n["class_space"]["invariant_factors"] == [1000]
            and n["complete"] is False
            and sum(c["index"] for c in n["classes"]) == r["lefschetz"] == 2
            and r["floer_bound"]["total"] == n["bound"]
            and r["fiber_sum"]["total"] == 8 * n["bound"]
            and r["fiber_sum"]["zero_torsion_multiples"]
            == list(range(2, 1000)))


class TestSingleRun:
    def test_json_report(self, capsys):
        code, out, err = run(capsys, "--braid", CALIBRATION, "--format", "json")
        assert code == 0 and err == ""
        assert out.count("\n") == 1 and out.endswith("\n")
        report = json.loads(out)
        assert report["tool"] == {"name": "braidfloer", "version": __version__}
        assert report["d"] == 3
        assert report["transitive"] is True
        assert report["warning"] is None
        assert report["lefschetz"] == 2
        assert report["nielsen"]["bound"] == 2
        assert report["fiber_sum"]["summand_total"] == 8
        assert report["characteristic_numbers"] == {
            "chi": 48, "sigma": -32, "c2": 48, "c1_squared": 0}
        assert report["refined"] is None

    def test_json_is_compact_single_line(self, capsys):
        _, out, _ = run(capsys, "--braid", CALIBRATION, "--format", "json")
        report = json.loads(out)
        assert out == json.dumps(report, separators=(",", ":")) + "\n"

    def test_json_validates_against_shipped_schema(self, capsys):
        sch = schema()
        for word in (CALIBRATION, "d=2; s1", "d=4; s1 s3", "d=5; t1"):
            _, out, _ = run(capsys, "--braid", word, "--format", "json")
            jsonschema.validate(json.loads(out), sch)
        _, out, _ = run(capsys, "--braid", CALIBRATION, "--format", "json",
                        "--refine-depth", "2")
        jsonschema.validate(json.loads(out), sch)

    def test_text_format_matches_renderer(self, capsys):
        code, out, _ = run(capsys, "--braid", CALIBRATION)
        assert code == 0
        assert out == render_text(build_report(CALIBRATION))
        assert out.isascii()

    def test_text_is_the_default_format(self, capsys):
        _, default_out, _ = run(capsys, "--braid", CALIBRATION)
        _, text_out, _ = run(capsys, "--braid", CALIBRATION, "--format", "text")
        assert default_out == text_out

    def test_refine_depth_is_reported(self, capsys):
        _, out, _ = run(capsys, "--braid", CALIBRATION, "--format", "json",
                        "--refine-depth", "2")
        report = json.loads(out)
        assert report["refined"]["depth"] == 2
        assert len(report["refined"]["classes"]) == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestNonTransitive:
    def test_partial_report_with_warning(self, capsys):
        code, out, err = run(capsys, "--braid", "d=4; s1 s3", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["transitive"] is False
        assert "standard cycle" in report["warning"]
        assert report["lefschetz"] == 2
        for key in ("nielsen", "floer_bound", "fiber_sum", "pi1",
                    "characteristic_numbers", "anticanonical_tori",
                    "config", "refined"):
            assert report[key] is None

    def test_text_mentions_warning(self, capsys):
        _, out, _ = run(capsys, "--braid", "d=4; s1 s3")
        assert "warning:" in out


class TestBatch:
    WORDS = ["d=2; s1", "d=3; s1 s2", "d=4; s1 s3", "d=3; s2 s1 t1^-1"]

    def write_batch(self, tmp_path):
        lines = ["# calibration sweep", ""]
        lines += self.WORDS[:2]
        lines += ["   ", "# non-transitive below"]
        lines += self.WORDS[2:]
        f = tmp_path / "batch.txt"
        f.write_text("\n".join(lines) + "\n")
        return f

    def test_concatenates_single_runs(self, capsys, tmp_path):
        f = self.write_batch(tmp_path)
        for fmt in ("json", "text"):
            code, batch_out, err = run(capsys, "--batch", str(f),
                                       "--format", fmt)
            assert code == 0 and err == ""
            singles = []
            for w in self.WORDS:
                _, out, _ = run(capsys, "--braid", w, "--format", fmt)
                singles.append(out)
            assert batch_out == "".join(singles)

    def test_json_batch_one_line_per_braid(self, capsys, tmp_path):
        f = self.write_batch(tmp_path)
        _, out, _ = run(capsys, "--batch", str(f), "--format", "json")
        lines = out.splitlines()
        assert len(lines) == len(self.WORDS)
        sch = schema()
        for line in lines:
            jsonschema.validate(json.loads(line), sch)

    def test_determinism(self, capsys, tmp_path):
        f = self.write_batch(tmp_path)
        _, first, _ = run(capsys, "--batch", str(f), "--format", "json")
        _, second, _ = run(capsys, "--batch", str(f), "--format", "json")
        assert first.encode() == second.encode()

    def test_bytes_do_not_depend_on_the_hash_seed(self):
        # a set or dict iterated in hash order would reach the bytes
        golden = (DATA / "golden.jsonl").read_text().splitlines(keepends=True)
        for words, depth, expected in (
                ("golden_words.txt", "0", golden[:120]),
                ("golden_words_depth3.txt", "3", golden[-40:])):
            for fmt in ("json", "text"):
                argv = ["--batch", str(DATA / words), "--format", fmt,
                        "--refine-depth", depth]
                procs = [run_capped(argv, {"PYTHONHASHSEED": seed})
                         for seed in ("0", "1")]
                assert [proc.returncode for proc in procs] == [0, 0]
                assert procs[0].stdout == procs[1].stdout
                if fmt == "json":
                    assert procs[0].stdout == "".join(expected)

    def test_non_utf8_batch_is_3(self, capsys, tmp_path):
        f = tmp_path / "batch.txt"
        f.write_bytes(b"d=3; s1 s2\n\xfe\n")
        with pytest.raises(SystemExit) as exc:
            main(["--batch", str(f)])
        assert exc.value.code == 3
        out, err = capsys.readouterr()
        assert out == "" and "not UTF-8" in err

    def test_aborts_on_first_parse_error(self, capsys, tmp_path):
        f = tmp_path / "batch.txt"
        f.write_text("d=2; s1\nd=3; nope\nd=2; s1\n")
        code, out, err = run(capsys, "--batch", str(f), "--format", "json")
        assert code == 2
        assert len(out.splitlines()) == 1  # only the line before the error
        assert "line 2: bad token 'nope'" in err
        assert len(err.encode()) < 1024

    def test_errors_name_their_line(self, capsys, tmp_path, monkeypatch):
        # N in "line N: " is the 1-based line of the file, blank and
        # comment lines counted; a byte order mark is no whitespace, so it
        # makes its line a parse error
        f = tmp_path / "batch.txt"
        f.write_text("d=2; s1\n\ufeffd=3; s1 s2\n", encoding="utf-8")
        code, out, err = run(capsys, "--batch", str(f), "--format", "json")
        assert code == 2 and len(out.splitlines()) == 1
        assert err == ("braidfloer: line 2: expected header of the form "
                       "'d=<int>;' (at position 0)\n")
        f.write_text("# words\n\nd=2; s1\n  \nd=3; nope\n")
        code, _, err = run(capsys, "--batch", str(f))
        assert code == 2
        assert err == "braidfloer: line 5: bad token 'nope' (at position 5)\n"
        # so does a refinement past the orbit-ball cap
        monkeypatch.setattr(nielsen, "ORBIT_BALL_CAP", 1000)
        f.write_text("d=3; s1 s2\n# classes of three, two and one terms\n"
                     "d=5; s1 s2^-1 s3 s4\n")
        code, out, err = run(capsys, "--batch", str(f), "--format", "json",
                             "--refine-depth", "8")
        assert code == 3 and len(out.splitlines()) == 1
        assert err.startswith("braidfloer: line 3: twisted-conjugacy "
                              "refinement needs more than ORBIT_BALL_CAP")
        # a single braid has no line, and a configuration error fails
        # whatever the braid, so neither names one
        code, _, err = run(capsys, "--braid", "d=3; nope")
        assert code == 2
        assert err == "braidfloer: bad token 'nope' (at position 5)\n"
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"pieces": 5}')
        code, out, err = run(capsys, "--batch", str(f), "--config", str(cfg))
        assert code == 3 and out == ""
        assert err.startswith("braidfloer: malformed configuration: ")

    @pytest.mark.parametrize("text, bad", [
        ("d=2; s1\nd=3; s1 s2\x85d=3; s1\n", "'s2\\x85d=3;'"),
        ("d=2; s1\n\u3000d=3; s1 s2\n", "header"),
        ("d=2; s1\nd=3; s1 s2\u00a0\n", "'s2\\xa0'"),
    ], ids=["nel-inside-a-line", "leading-u3000", "trailing-nbsp"])
    def test_unicode_whitespace_is_a_parse_error(self, capsys, tmp_path,
                                                 text, bad):
        # lines end at "\n" only and lose only ASCII whitespace, so a
        # NEL does not split a line and a Unicode space is not stripped
        f = tmp_path / "batch.txt"
        f.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "--batch", str(f), "--format", "json")
        assert code == 2
        assert len(out.splitlines()) == 1  # only the line before the error
        assert bad in err and "Traceback" not in err
        assert len(err.encode()) < 1024

    def test_crlf_line_endings_are_read(self, capsys, tmp_path):
        f = tmp_path / "batch.txt"
        f.write_bytes(b"d=2; s1\r\n# comment\r\n\r\nd=3; s1 s2\r\n")
        code, out, _ = run(capsys, "--batch", str(f), "--format", "json")
        assert code == 0
        assert [json.loads(x)["input"] for x in out.splitlines()] == [
            "d=2; s1", "d=3; s1 s2"]


class TestExitCodes:
    def test_parse_error_is_2(self, capsys):
        code, out, err = run(capsys, "--braid", "d=3; s9")
        assert code == 2 and out == ""
        assert "s9" in err

    @pytest.mark.parametrize("word, position", [
        ("d=" + "9" * 5000 + "; s1", 2),
        ("d=3; s1 t" + "1" * 5000, 8),
    ], ids=["header", "token"])
    def test_overlong_integer_is_2(self, capsys, word, position):
        code, out, err = run(capsys, "--braid", word)
        assert code == 2 and out == ""
        assert f"5000 digits is too long (at position {position})" in err

    @pytest.mark.parametrize("word, env", [
        ("d=1000000000; s1", {}),
        ("d=" + "9" * 5000 + "; s1", {"PYTHONINTMAXSTRDIGITS": "0"}),
    ], ids=["large", "overlong-without-digit-limit"])
    def test_d_above_max_strands_is_2(self, word, env):
        # without the bound on d these end in MemoryError and OverflowError
        proc = run_capped(["--braid", word], env)
        assert proc.returncode == 2 and proc.stdout == ""
        assert f"d must lie in 2..{MAX_STRANDS}" in proc.stderr
        assert "(at position 2)" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_refinement_past_the_orbit_ball_cap_is_3(self):
        # without the cap this ends in MemoryError; the classes of this
        # braid hold three, two and one terms, whose balls pass the cap
        # at depth 16 within 256 MiB, and the error is one line
        proc = run_capped(["--braid", "d=5; s1 s2^-1 s3 s4",
                           "--refine-depth", "16"],
                          address_space=256 << 20, timeout=60)
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
        assert f"ORBIT_BALL_CAP = {ORBIT_BALL_CAP}" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_one_term_classes_refine_at_any_depth(self):
        # each class of this braid holds one term, so no orbit ball is
        # built and no depth reaches the cap: depth 16 fits in 256 MiB
        # and takes well under the 10 s allowed
        proc = run_capped(["--braid", "d=7; s1 s2 s3 s4 s5 s6",
                           "--refine-depth", "16", "--format", "json"],
                          address_space=256 << 20, timeout=10)
        assert proc.returncode == 0 and proc.stderr == ""
        refined = json.loads(proc.stdout)["refined"]
        assert refined["depth"] == 16
        assert all(len(c["clusters"]) == 1 for c in refined["classes"])

    @pytest.mark.parametrize("argv, code, holds", [
        # the d=1000 reports, of the standard word and of the word with
        # alternating signs, take seconds, not minutes
        pytest.param(["--braid", "d=1000; " + " ".join(
            f"s{i}" for i in range(1, 1000))], 0, max_strands_report,
            id="standard-at-max-strands"),
        pytest.param(["--braid", "d=1000; " + " ".join(
            f"s{i}" + ("^-1" if i % 2 == 0 else "") for i in range(1, 1000))],
            0, max_strands_report, id="alternating-at-max-strands"),
        # this 60-letter word induces the identity, so its report is the
        # Lefschetz number 2 - 5 = -3 alone; its images, which it never
        # builds, would not fit
        pytest.param(["--braid", pa_word(14)], 0,
                     lambda r: r["transitive"] is False and r["lefschetz"] == -3,
                     id="identity-permutation"),
        # this 44-letter word induces the standard cycle and its images,
        # about 17M letters, do not fit; until the images are capped, the
        # CLI says so in one line and exits 3
        pytest.param(["--braid", pa_word(10)], 3, None,
                     id="images-past-the-memory-limit"),
        # at depth 5 this word of golden_words.txt builds radius 2 balls;
        # probing all 2n twists of each boundary element would count
        # past ORBIT_BALL_CAP, while at most one L(t) per element stays
        # below it
        pytest.param(["--braid", "d=5; s3 s3 s1 s2^-1 s2^-1 s3 s2^-1 s3 "
                      "s4^-1 s2^-1 s3 s4^-1 s4^-1 s3", "--refine-depth", "5"],
                     0, lambda r: r["refined"]["depth"] == 5, id="depth-5"),
        # at depth 13 this word builds radius 6 balls; one L(t) per
        # boundary element would pass ORBIT_BALL_CAP, but an element
        # whose first letter is its conjugator's has the element before
        # it as its L(t) and computes none (depth 16 exits 3, above)
        pytest.param(["--braid", "d=5; s1 s2^-1 s3 s4", "--refine-depth", "13"],
                     0, lambda r: r["refined"]["depth"] == 13, id="depth-13"),
    ])
    def test_runs_within_256_mib(self, argv, code, holds):
        proc = run_capped(argv + ["--format", "json"],
                          address_space=256 << 20, timeout=60)
        assert proc.returncode == code and "Traceback" not in proc.stderr
        if code == 0:
            assert holds(json.loads(proc.stdout))
        else:
            assert proc.stdout == "" and proc.stderr.count("\n") == 1

    def test_out_of_memory_is_3(self, capsys, monkeypatch):
        # the images of a pseudo-Anosov word are not capped, so a short
        # word can exhaust memory; that exits 3 without a traceback
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "build_report", exhausted)
        code, out, err = run(capsys, "--braid", CALIBRATION)
        assert code == 3 and out == ""
        assert err == "braidfloer: out of memory while computing a report\n"

    def test_usage_errors_are_3(self, capsys):
        for argv in ([],
                     ["--braid", "d=2; s1", "--batch", "x"],
                     ["--braid", "d=2; s1", "--format", "yaml"],
                     ["--braid", "d=2; s1", "--refine-depth", "-1"],
                     ["--batch", "/nonexistent/path"],
                     ["--braid", "d=2; s1", "--config", "/nonexistent.json"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 3
            capsys.readouterr()

    @pytest.mark.parametrize("word", ["d=\u0663; s1 s2", "d=3; s\u0661 s\uff12"])
    def test_non_ascii_digits_are_2(self, capsys, word):
        # int() reads these as 3, 1 and 2, which would report "d=3; s1 s2"
        code, out, err = run(capsys, "--braid", word, "--format", "json")
        assert code == 2 and out == ""
        assert "Traceback" not in err
        assert len(err.encode()) < 1024

    @pytest.mark.parametrize("depth", ["0_1", "+1", " \u0662 ", "\uff12", "1.0"])
    def test_refine_depth_takes_ascii_digits_only(self, capsys, depth):
        # argparse's int would read the first four as 1, 1, 2 and 2
        with pytest.raises(SystemExit) as exc:
            main(["--braid", "d=2; s1", "--refine-depth", depth])
        assert exc.value.code == 3
        _, err = capsys.readouterr()
        assert "expected ASCII digits 0-9" in err
        assert len(err.encode()) < 1024

    @pytest.mark.parametrize("depth, shown", [
        ("9" * 5000, "integer of 5000 digits is too long (the limit is "),
        ("x" * 5000, "got 'xxxxxxxx...'"),
    ], ids=["overlong-digits", "overlong-non-digits"])
    def test_long_refine_depth_is_a_one_line_error(self, depth, shown):
        # int() would raise ValueError on the first, and argparse would
        # echo every character of either in its message
        proc = run_capped(["--braid", CALIBRATION, "--refine-depth", depth])
        assert proc.returncode == 3 and proc.stdout == ""
        assert shown in proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.encode()) < 300

    def test_long_inputs_are_echoed_short(self, tmp_path):
        # each echoed input is cut to its first 8 characters and '...'
        cfg = tmp_path / "cfg.json"
        data = configuration_from_dict(DEFAULT_CONFIGURATION, 3)
        data["pieces"][0]["kind"] = "custom"
        data["pieces"][0]["chi"] = "1" * 100_000
        cfg.write_text(json.dumps(data))
        for argv, code, shown in (
                (["--braid", "d=3; s1 " + "z" * 100_000], 2,
                 "bad token 'zzzzzzzz...'"),
                (["--braid", CALIBRATION, "--config", str(cfg)], 3,
                 "got '11111111...'")):
            proc = run_capped(argv)
            assert proc.returncode == code and proc.stdout == ""
            assert shown in proc.stderr
            assert "Traceback" not in proc.stderr
            assert len(proc.stderr.encode()) < 1024

    @pytest.mark.parametrize("argv, shown", [
        (["--braid", CALIBRATION, "--format", "x" * 20_000],
         ("argument --format: invalid choice: 'xxxxxxxx...'", "json",
          "text")),
        (["--braid", CALIBRATION, "y" * 20_000],
         ("unrecognized arguments: yyyyyyyy...",)),
        (["--braid", CALIBRATION, "--config", "/nonexistent" + "/c" * 1500],
         ("cannot read config file: ", "'/nonexis...'")),
        (["--batch", "/nonexistent" + "/b" * 1500],
         ("cannot read batch file: ", "'/nonexis...'")),
    ], ids=["format-value", "unrecognized", "config-path", "batch-path"])
    def test_long_arguments_are_echoed_short(self, capsys, argv, shown):
        # argparse and the file errors quote or echo a whole argument;
        # the usage message cuts each and keeps the flags and choices
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3
        out, err = capsys.readouterr()
        assert out == "" and all(part in err for part in shown)
        assert "Traceback" not in err
        assert len(err.encode()) < 1024

    @pytest.mark.parametrize("flag, path", [
        ("--batch", "a\x00b"), ("--batch", "\ud800"),
        ("--config", "a\x00b"), ("--config", "\ud800"),
    ], ids=["batch-nul", "batch-surrogate", "config-nul",
            "config-surrogate"])
    def test_paths_no_file_can_have_are_unreadable(self, capsys, flag, path):
        # open() raises ValueError for a NUL byte and UnicodeEncodeError
        # for a surrogate that surrogateescape cannot encode; no command
        # line carries either, but main(argv) takes any str
        argv = [flag, path] + (["--braid", CALIBRATION]
                               if flag == "--config" else [])
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert f"cannot read {flag[2:]} file: " in err

    @pytest.mark.parametrize("fmt, reader", [
        ("json", ["head", "-c", "100"]),
        ("text", ["head", "-n", "1"]),
    ])
    def test_closed_stdout_is_3(self, fmt, reader):
        # the reader exits after its first bytes, so writing the other
        # reports fails with EPIPE; no traceback, and no "Exception
        # ignored" from the interpreter's last flush
        src = str(Path(braidfloer.__file__).resolve().parents[1])
        batch = DATA / "golden_words.txt"
        writer = subprocess.Popen(
            [sys.executable, "-m", "braidfloer.cli", "--batch", str(batch),
             "--format", fmt],
            env={**os.environ, "PYTHONPATH": src},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        head = subprocess.Popen(reader, stdin=writer.stdout,
                                stdout=subprocess.PIPE)
        writer.stdout.close()  # head holds the only read end
        out, _ = head.communicate(timeout=120)
        _, err = writer.communicate(timeout=120)
        assert writer.returncode == 3
        assert head.returncode == 0 and out
        assert err.decode() == ("braidfloer: stdout was closed before the "
                                "reports were written\n")

    def test_invalid_config_json_is_3(self, capsys, tmp_path):
        bad = tmp_path / "cfg.json"
        for content in (b"{not json",
                        b'{"pieces": "\xff"}',  # not UTF-8
                        b"[" * 100_000 + b"]" * 100_000,  # too deep
                        b'{"chi": ' + b"7" * 5000 + b"}"):  # too many digits
            bad.write_bytes(content)
            with pytest.raises(SystemExit) as exc:
                main(["--braid", "d=2; s1", "--config", str(bad)])
            assert exc.value.code == 3
            _, err = capsys.readouterr()
            assert "Traceback" not in err

    @pytest.mark.parametrize("key, value", [
        ("chi", "abc"),
        ("chi", 1.5),
        ("chi", True),
        ("tori", ["H1"]),
        ("pairings", ["H1", "H1p", "H3"]),
        # c1^2 = 2 chi + 3 sigma would have 4,301 digits, one past what
        # json.dumps prints under the default digit limit
        pytest.param("chi", 10 ** 4299, id="chi-4300-digits"),
    ])
    def test_config_values_of_the_wrong_type_are_3(self, capsys, tmp_path,
                                                   key, value):
        data = configuration_from_dict(DEFAULT_CONFIGURATION, 3)
        data["pieces"][0]["kind"] = "custom"  # no fixed (chi, sigma)
        if key == "pairings":
            data["pairings"][0] = value
        else:
            data["pieces"][0][key] = value
        with pytest.raises(ConfigurationError):
            configuration_from_dict(data, 3)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        code, out, err = run(capsys, "--braid", "d=3; s1 s2",
                             "--config", str(cfg))
        assert code == 3 and out == ""
        assert "Traceback" not in err

    def test_inconsistent_config_is_3(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "pieces": [{"name": "A", "kind": "k3", "chi": 24, "sigma": -16,
                        "tori": {"T": 1}}],
            "pairings": [],
        }))
        code, out, err = run(capsys, "--braid", "d=2; s1",
                             "--config", str(cfg))
        assert code == 3
        assert "unpaired" in err


class TestConfigOption:
    @pytest.mark.parametrize("data", [
        {"pieces": 5},
        {"pieces": [{"name": "A", "kind": "k3", "chi": 24, "sigma": -16,
                     "tori": {"T": 1}}],
         "pairings": []},
        # JSON null is no configuration, not the built-in one
        None,
        # a misspelt "kind" would leave chi and sigma unchecked
        {"pieces": [{"name": "M2", "knd": "k3", "chi": 5, "sigma": 7}],
         "pairings": []},
    ], ids=["malformed", "unpaired", "null", "unknown-key"])
    def test_bad_config_is_3_whatever_the_braid(self, capsys, tmp_path, data):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        for word in ("d=4; s1 s2 s3", "d=4; s1 s1"):
            code, out, err = run(capsys, "--braid", word, "--config", str(cfg))
            assert code == 3 and out == ""
            assert "Traceback" not in err
            assert err.startswith("braidfloer: ") and err.count("\n") == 1
            assert len(err.encode()) < 1024

    @pytest.mark.parametrize("data, message", [
        ([], "configuration must be an object, got []"),
        ("x", "configuration must be an object, got 'x'"),
        ({"pairings": []}, "configuration has no key 'pieces'"),
        ({"pieces": 5, "pairings": []}, "pieces must be a list, got 5"),
        ({"pieces": [], "pairings": 7}, "pairings must be a list, got 7"),
        ({"pieces": [5], "pairings": []}, "piece 1 must be an object, got 5"),
        ({"pieces": [{"chi": 0, "sigma": 0}], "pairings": []},
         "piece 1 has no key 'name'"),
        ({"pieces": [{"name": "A", "chi": 0, "sigma": 0},
                     {"name": "B", "chi": 0}], "pairings": []},
         "piece 2 has no key 'sigma'"),
    ], ids=["list", "string", "no-pieces", "int-pieces", "int-pairings",
            "int-piece", "no-name", "no-sigma"])
    def test_a_misshapen_config_names_its_key_or_type(self, capsys, tmp_path,
                                                      data, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        code, out, err = run(capsys, "--braid", "d=3; s1 s2",
                             "--config", str(cfg))
        assert (code, out) == (3, "")
        assert err == f"braidfloer: malformed configuration: {message}\n"

    def test_valid_config_leaves_a_non_transitive_report(self, capsys,
                                                         tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            configuration_from_dict(DEFAULT_CONFIGURATION, 4)))
        for fmt in ("json", "text"):
            plain = run(capsys, "--braid", "d=4; s1 s1", "--format", fmt)
            configured = run(capsys, "--braid", "d=4; s1 s1", "--format", fmt,
                             "--config", str(cfg))
            assert configured == plain and plain[0] == 0
            if fmt == "json":
                assert json.loads(plain[1])["config"] is None

    def test_custom_configuration_flows_into_the_report(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "pieces": [
                {"name": "M1", "kind": "mapping_torus", "chi": 0, "sigma": 0,
                 "tori": {"H1": "d"}},
                {"name": "M2", "kind": "four_torus", "chi": 0, "sigma": 0,
                 "tori": {"H1p": "d"}},
            ],
            "pairings": [["H1", "H1p"]],
        }))
        for d in (2, 5):
            word = "d=%d; " % d + " ".join(f"s{i}" for i in range(1, d))
            code, out, _ = run(capsys, "--braid", word, "--format", "json",
                               "--config", str(cfg))
            assert code == 0
            report = json.loads(out)
            assert report["characteristic_numbers"] == {
                "chi": 0, "sigma": 0, "c2": 0, "c1_squared": 0}
            assert report["config"]["pieces"][0]["tori"]["H1"] == d


class TestReportShape:
    EXPECTED_KEYS = ["tool", "config", "input", "d", "permutation",
                     "transitive", "warning", "lefschetz", "nielsen",
                     "floer_bound", "fiber_sum", "pi1",
                     "characteristic_numbers", "anticanonical_tori",
                     "statements", "refined"]

    def test_fixed_key_order(self):
        assert list(build_report(CALIBRATION)) == self.EXPECTED_KEYS
        assert list(build_report("d=4; s1 s3")) == self.EXPECTED_KEYS

    def test_input_is_normalized(self):
        report = build_report("d=3;   s1  s2^-1 s2 s2")
        assert report["input"] == "d=3; s1 s2"

    def test_statements_always_present(self):
        for word in (CALIBRATION, "d=4; s1 s3"):
            statements = build_report(word)["statements"]
            assert len(statements) == 4
            assert all(isinstance(s, str) and s for s in statements)

    def test_negative_refine_depth_rejected(self):
        with pytest.raises(ValueError):
            build_report(CALIBRATION, refine_depth=-1)
