"""Tests of the benchmark's own code: corpus, oracles, tracer, guard.

Run from the root of the repository:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import corpus  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import braidfloer.report as report_module  # noqa: E402
from braidfloer.report import build_report  # noqa: E402

SCHEMA = HERE.parent / "src" / "braidfloer" / "report_schema.json"
TRANSITIVE = "d=4; s2 s2 s1^-1 s2 s3"
FLAT = "d=4; s1 s3 s2"


@pytest.fixture(scope="module")
def validator():
    return oracles.load_validator(SCHEMA)


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_corpus_is_deterministic_per_seed(workload, tmp_path, monkeypatch):
    first = corpus.batch_text(corpus.corpus(workload, 11))
    assert corpus.batch_text(corpus.corpus(workload, 11)) == first
    assert corpus.batch_text(corpus.corpus(workload, 12)) != first
    out = tmp_path / "words.txt"
    monkeypatch.setattr(sys, "argv", ["corpus.py", "--workload", workload,
                                      "--seed", "11", "--out", str(out)])
    corpus.main()
    assert out.read_text() == first


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_corpus_words_parse_and_mix_transitivity(workload):
    words = corpus.corpus(workload, 3)
    transitive = 0
    for w in words:
        d, letters = oracles.parse_word(w)
        assert corpus.to_text(d, corpus.free_reduce(letters)) == w
        transitive += corpus.swap_images(d, letters) == corpus.standard_cycle(d)
    if workload == "many_strands":
        assert transitive == len(words)
        assert any(oracles.parse_word(w)[0] >= 102 for w in words)
    else:
        assert 0.7 * len(words) <= transitive < len(words)


def test_own_artin_action_matches_the_package():
    """The corpus sizes words by its own Artin action; check it against
    the package on a few words (the corpus never calls the package)."""
    from braidfloer.braids import parse_braid
    from braidfloer.freegroup import artin_disc_endo, artin_endo
    from braidfloer.nielsen import class_space, reidemeister_trace_raw
    words = corpus.corpus("refine_short", 5)[:20] + ["d=2; s1", "d=3; s2^-1"]
    for w in words:
        d, letters = oracles.parse_word(w)
        b = parse_braid(w)
        assert corpus.disc_images(d, letters) == [
            img.letters for img in artin_disc_endo(b).images]
        sphere = corpus.sphere_images(d, letters)
        assert sphere == [img.letters for img in artin_endo(b).images]
        raw = reidemeister_trace_raw(artin_endo(b))
        assert sorted(corpus.fox_trace_terms(sphere)) == sorted(
            w.letters for w, _ in raw.items())
        if corpus.swap_images(d, letters) == corpus.standard_cycle(d):
            space = class_space(artin_endo(b))
            sizes = Counter(space.project(w.exponent_vector())
                            for w, _ in raw.items())
            assert corpus.same_class_pairs(d, sphere) == sum(
                m * (m - 1) // 2 for m in sizes.values())


def test_oracles_accept_real_reports(validator):
    for word, depth in ((TRANSITIVE, 0), (TRANSITIVE, 2), (FLAT, 0),
                        (FLAT, 2), ("d=2; s1", 1)):
        report = build_report(word, refine_depth=depth)
        assert oracles.check_report(report, word, depth, validator) == []


CORRUPTIONS = {
    "class index": lambda r: r["nielsen"]["classes"][0].update(
        index=r["nielsen"]["classes"][0]["index"] + 1),
    "bound": lambda r: r["nielsen"].update(bound=r["nielsen"]["bound"] + 2),
    "abelianization": lambda r: r["pi1"]["abelianization"].update(
        torsion=[2 * r["d"]]),
    "free rank": lambda r: r["pi1"]["abelianization"].update(free_rank=2),
    "class space": lambda r: r["nielsen"]["class_space"].update(
        invariant_factors=[2, 2], order=4),
    "permutation": lambda r: r["permutation"].reverse(),
    "transitive flag": lambda r: r.update(transitive=False),
    "lefschetz": lambda r: r.update(lefschetz=r["lefschetz"] - 1),
    "characteristic numbers": lambda r: r["characteristic_numbers"].update(
        c1_squared=1),
    "tori": lambda r: r["anticanonical_tori"].update(total=1),
    "fiber sum": lambda r: r["fiber_sum"].update(
        total=r["fiber_sum"]["total"] + 8),
    "floer bound": lambda r: r["floer_bound"].update(euler=0),
    "refined cluster": lambda r: r["refined"]["classes"][0]["clusters"][0]
    .update(index=r["refined"]["classes"][0]["clusters"][0]["index"] + 1),
    "warning on transitive": lambda r: r.update(warning="x"),
    "input": lambda r: r.update(input="d=4;"),
    "schema": lambda r: r.update(extra=1),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_oracles_reject_a_corrupted_transitive_report(name, validator):
    report = build_report(TRANSITIVE, refine_depth=2)
    bad = copy.deepcopy(report)
    CORRUPTIONS[name](bad)
    assert bad != report
    assert oracles.check_report(bad, TRANSITIVE, 2, validator)


@pytest.mark.parametrize("mutate", [
    lambda r: r.update(warning=None),
    lambda r: r.update(transitive=True),
    lambda r: r.update(characteristic_numbers={
        "chi": 48, "sigma": -32, "c2": 48, "c1_squared": 0}),
    lambda r: r.update(lefschetz=r["lefschetz"] + 1),
])
def test_oracles_reject_a_corrupted_non_transitive_report(mutate, validator):
    bad = build_report(FLAT)
    mutate(bad)
    assert oracles.check_report(bad, FLAT, 0, validator)


def _traced(fn):
    t = tracing.Tracer()
    t.install()
    try:
        return fn(t), t
    finally:
        t.uninstall()


def test_self_time_plus_child_time_is_the_span_duration():
    _, t = _traced(lambda t: report_module.build_report(TRANSITIVE,
                                                       refine_depth=2))
    spans = t.spans
    assert len(spans) > 10
    own = tracing.self_times(spans)
    for i, (name, start, end, parent) in enumerate(spans):
        children = sum(e - s for _, s, e, p in spans if p == i)
        assert own[i] + children == pytest.approx(end - start, abs=1e-12)
        assert own[i] >= -1e-9
        if parent >= 0:
            assert spans[parent][1] <= start <= end <= spans[parent][2]
    roots = [s for s in spans if s[3] == -1]
    assert [s[0] for s in roots] == ["report.build_report"]


def test_fold_keeps_totals_consistent():
    _, t = _traced(lambda t: report_module.build_report(TRANSITIVE,
                                                       refine_depth=2))
    total = t.spans[0][2] - t.spans[0][1]
    t.fold()
    assert t.spans == [] and len(t.kept) > 10
    assert sum(t.self_time.values()) == pytest.approx(total, rel=1e-9)
    assert t.layer_time["report.build_report_s"] == pytest.approx(total)
    for layer, seconds in t.layer_time.items():
        assert 0 <= seconds <= total * (1 + 1e-9), layer
    assert t.calls["freegroup.artin_endo"] == 3
    assert t.calls["snf.project"] > 0


def test_tracing_leaves_reports_unchanged():
    words = corpus.corpus("refine_short", 2)[:6] + [FLAT]
    before = [json.dumps(build_report(w, refine_depth=3)) for w in words]
    during, t = _traced(lambda t: [
        json.dumps(report_module.build_report(w, refine_depth=3))
        for w in words])
    assert t.calls or t.spans
    after = [json.dumps(build_report(w, refine_depth=3)) for w in words]
    assert during == before == after
    assert not hasattr(report_module.build_report, "__wrapped__")


SLOW = "d=3; " + " ".join(["s1 s2^-1"] * 15)


def test_guard_counts_a_braid_over_the_time_limit_as_failed(tmp_path):
    result = worker.run([SLOW, FLAT], 0, seconds=0.0, braid_seconds=0.05,
                        lines_path=tmp_path / "lines.jsonl")
    assert result["attempted"] == 1 and result["failed"] == 1
    assert result["failures"][0]["error"] == "wall-clock limit"
    assert (tmp_path / "lines.jsonl").read_text() == "null\n"


def test_worker_makes_one_pass(tmp_path):
    """A worker never wraps round the corpus: a repeated word runs in a
    fresh process, where nothing from its earlier run is kept."""
    result = worker.run([FLAT, SLOW, TRANSITIVE], 0, seconds=60.0,
                        braid_seconds=0.05,
                        lines_path=tmp_path / "lines.jsonl")
    assert result["attempted"] == 3 == len(result["latencies"])
    assert result["completed"] == 2 and result["failed"] == 1
    lines = (tmp_path / "lines.jsonl").read_text().splitlines(True)
    assert lines[1] == "null\n"
    assert lines[0] == json.dumps(build_report(FLAT),
                                  separators=(",", ":")) + "\n"


def test_peak_rss_is_the_workers_own(tmp_path):
    """A worker spawned by a large parent reports its own peak, not the
    parent's (which Linux carries across exec into ru_maxrss)."""
    ballast = bytearray(96 << 20)
    ballast[::4096] = b"\1" * len(range(0, len(ballast), 4096))
    code = "import worker; print(worker.peak_rss_kib())"
    done = subprocess.run([sys.executable, "-c", code], cwd=HERE,
                          capture_output=True, text=True, check=True)
    assert 0 < int(done.stdout) < 64 << 10
    del ballast


def test_a_failed_braid_makes_every_time_metric_worse():
    ref = run.REFERENCE_NOMINAL_S
    times = [0.001 * (k + 1) for k in range(20)]
    ok = {"latencies": times, "reference_s": [ref] * 20}
    bad = {"latencies": times[:-1] + [None], "reference_s": [ref] * 20}
    assert run.braid_times([bad])[-1] == worker.BRAID_SECONDS
    good_times, bad_times = run.braid_times([ok]), run.braid_times([bad])
    assert run.throughput(bad_times) < run.throughput(good_times)
    assert run.latency_stats(bad_times)[1] >= run.latency_stats(good_times)[1]
    # a braid failing in one of three passes still counts in its median
    assert run.braid_times([ok, bad, bad])[-1] == worker.BRAID_SECONDS


def test_run_prints_every_end_to_end_metric(capsys):
    """One short run end to end: the last line is the result object."""
    assert run.main(["--workload", "refine_short", "--seed", "4",
                     "--seconds", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    result = json.loads(out[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.startswith("cli: ") and "exit 0" in line for line in out)
