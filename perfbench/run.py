"""braidfloer benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload NAME --seed N [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is imported from ``src/``.
``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``.  Steps,
all inside the checkout (work files go to ``perfbench/.work``):

1. generate the workload's words from the seed (``corpus.py``) and write
   them as a ``--batch`` file;
2. time ``import braidfloer.cli`` in fresh interpreters (``setup_s``);
3. run the closed loop for the given seconds as passes over the corpus,
   each pass in a fresh worker process (``worker.py``); with
   ``--trace 1`` one traced pass follows, in a fresh worker too;
4. check each distinct report against the oracles (``oracles.py``) and
   require every pass to print the same bytes for a word; print the
   sha256 of the first pass's JSON lines when it covered the corpus;
5. run ``python -m braidfloer.cli --batch ... --format json`` on the
   check prefix of the corpus and require exit code 0 and the same bytes
   as the worker's JSON lines; print their sha256.

Every metric is printed as ``name value unit``; the last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics, or with ``--trace 1`` per-layer ones).
The exit code is 0 when a result was printed, 1 when a step could not
run, 2 when the checkout holds no package to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
sys.path.insert(0, str(HERE))

from corpus import REFINE_DEPTH, WORKLOADS, batch_text, corpus  # noqa: E402
from oracles import check_report, load_validator, standard_form_reached  # noqa: E402
from tracer import LAYERS  # noqa: E402
from worker import BRAID_SECONDS, cap_memory  # noqa: E402

CHECK_SHARE = 8         # the CLI check runs the first 1/CHECK_SHARE words
SETUP_SPAWNS = 8        # interpreter spawns timed before the loop, after
                        # it and after the CLI check
CHILD_TIMEOUT = 150.0   # seconds any child process may take
REFERENCE_NOMINAL_S = 0.002  # reference-kernel time that defines the
                             # nominal machine speed (see braid_times)


class StepError(Exception):
    """A step of the benchmark could not run."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


# Imports the CLI, notes the time, then times the reference kernel in the
# same fresh process (after the import, so it does not delay it).
SETUP_CODE = """import time
import braidfloer.cli
done = time.perf_counter()
import sys
sys.path.insert(0, {here!r})
from worker import reference_kernel
print(repr(done), repr(min(reference_kernel() for _ in range(3))))
"""


def time_setup(spawns: int) -> list[float]:
    """Seconds from spawning an interpreter until ``import braidfloer.cli``
    has returned in it (read on the shared monotonic clock), scaled to the
    nominal machine speed by the reference kernel run in that interpreter
    (see braid_times)."""
    code = SETUP_CODE.format(here=str(HERE))
    out = []
    for _ in range(spawns):
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", code], env=_env(),
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
        if done.returncode != 0:
            raise StepError(f"import braidfloer.cli failed: {done.stderr}")
        imported, reference = map(float, done.stdout.split())
        out.append((imported - t0) * REFERENCE_NOMINAL_S / reference)
    return out


def run_worker(batch: Path, depth: int, seconds: float, trace: int) -> dict:
    """One pass over the batch in a fresh worker process."""
    seconds = max(seconds, 0.0)
    out = WORK / f"{batch.stem}.trace{trace}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--batch", str(batch),
           "--out", str(out), "--seconds", str(seconds),
           "--refine-depth", str(depth), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=seconds + BRAID_SECONDS + CHILD_TIMEOUT)
    if done.returncode != 0:
        raise StepError(f"worker exited {done.returncode}: {done.stderr}")
    result = json.loads(out.read_text())
    result["lines"] = out.with_suffix(".jsonl").read_text().splitlines(True)
    return result


def run_passes(batch: Path, depth: int, seconds: float) -> list[dict]:
    """Untraced passes, each in a fresh worker, until ``seconds`` have
    gone by; the last pass stops at the deadline."""
    deadline = time.perf_counter() + seconds
    passes = []
    while not passes or time.perf_counter() < deadline:
        passes.append(run_worker(batch, depth,
                                 deadline - time.perf_counter(), 0))
    return passes


def differing(lines: list[str], others: list[str]) -> int:
    """Words both runs completed whose JSON lines differ."""
    return sum(1 for a, b in zip(lines, others)
               if "null\n" not in (a, b) and a != b)


def run_cli(batch: Path, depth: int) -> tuple[int, str]:
    cmd = [sys.executable, "-m", "braidfloer.cli", "--batch", str(batch),
           "--format", "json"]
    if depth:
        cmd += ["--refine-depth", str(depth)]
    done = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT,
                          preexec_fn=cap_memory)
    return done.returncode, done.stdout


def check_cli(words: list[str], batch: Path, depth: int,
              lines: list[str]) -> bool:
    """Run the CLI on ``words``; it must exit 0 and print, for every word
    the worker completed in its first pass, the worker's line."""
    batch.write_text(batch_text(words))
    code, out = run_cli(batch, depth)
    printed = out.splitlines(True)
    same = len(printed) == len(words) and all(
        theirs == ours for theirs, ours in zip(printed, lines)
        if ours != "null\n")
    print(f"cli: {len(words)} braids, exit {code}, "
          f"sha256 {hashlib.sha256(out.encode()).hexdigest()}"
          + ("" if same else "; output differs from the worker's lines"))
    return code == 0 and same


def check_lines(words: list[str], lines: list[str], depth: int,
                validator) -> dict[int, list[str]]:
    """Oracle problems per corpus index, for the braids that completed."""
    bad = {}
    for k, line in enumerate(lines):
        report = json.loads(line)
        if report is None:
            continue  # failed in the worker; counted there
        problems = check_report(report, words[k], depth, validator)
        if problems:
            bad[k] = problems
    return bad


def braid_times(passes: list[dict]) -> list[float]:
    """Per corpus word reached, the median of its runs over the passes,
    each scaled to the nominal machine speed.  A failed run counts as
    BRAID_SECONDS, the wall-clock limit of one braid, so a braid that
    starts to fail makes every time metric worse.

    Other tenants of a shared machine slow every process on it by up to
    half, for seconds to minutes at a time.  The worker runs a fixed
    reference kernel between braids; a braid's time is multiplied by
    REFERENCE_NOMINAL_S / (the kernel's time around it), which cancels
    the slowdown common to both.  Changes to the package move the
    braid's time and not the kernel's, so they show in full."""
    runs: dict[int, list[float]] = {}
    for result in passes:
        for k, (t, ref) in enumerate(zip(result["latencies"],
                                         result["reference_s"])):
            runs.setdefault(k, []).append(
                BRAID_SECONDS if t is None else t * REFERENCE_NOMINAL_S / ref)
    return [statistics.median(runs[k]) for k in sorted(runs)]


def latency_stats(times: list[float]) -> tuple[float, float, int]:
    """Median and 90th percentile (ms) and the samples beyond the latter."""
    if len(times) < 2:
        value = times[0] * 1e3 if times else float("nan")
        return value, value, 0
    p90 = statistics.quantiles(times, n=10)[8]
    beyond = sum(1 for x in times if x > p90)
    return statistics.median(times) * 1e3, p90 * 1e3, beyond


def throughput(times: list[float]) -> float:
    """Braids per second of one pass over the words (a failed braid
    counted at its limit)."""
    return len(times) / sum(times) if times else 0.0


def speed_scale(result: dict) -> float:
    """The factor that brings the run's braid times to the nominal speed
    on the whole (see braid_times); applied to the layer times."""
    pairs = [(t, ref) for t, ref in zip(result["latencies"],
                                        result["reference_s"])
             if t is not None]
    raw = sum(t for t, _ in pairs)
    return sum(t * REFERENCE_NOMINAL_S / ref for t, ref in pairs) / raw


def layer_metrics(result: dict, traced_bps: float, untraced_bps: float,
                  lines: list[str]) -> dict:
    """Per-layer metrics of a traced run, per completed braid; times at
    the nominal machine speed."""
    trace = result["trace"]
    braids = max(result["completed"], 1)
    scale = speed_scale(result)
    calls, counts = trace["calls"], trace["counts"]
    per = {}

    def s(name, value):
        per[name] = (value * scale / braids, "s/braid")

    for layer in LAYERS:
        s(layer, trace["layer_time"].get(layer, 0.0))
    s("report.build_self_s", trace["self_time"].get("report.build_report", 0))
    for metric, span in (
            ("freegroup.artin_endo_calls", "freegroup.artin_endo"),
            ("freegroup.fox_calls", "freegroup.fox_derivative"),
            ("snf.smith_normal_form_calls", "snf.smith_normal_form"),
            ("snf.project_calls", "snf.project"),
            ("fourmanifold.presentation_calls",
             "fourmanifold.mapping_torus_presentation"),
            ("nielsen.conjugacy_searches",
             "nielsen.twisted_conjugacy_search")):
        per[metric] = (calls.get(span, 0) / braids, "1/braid")
    for metric, unit in (("freegroup.disc_image_letters", "letters/braid"),
                         ("freegroup.sphere_image_letters", "letters/braid"),
                         ("nielsen.trace_terms", "terms/braid"),
                         ("fourmanifold.relator_letters", "letters/braid")):
        per[metric] = (counts.get(metric, 0) / braids, unit)
    per["snf.max_matrix_dim"] = (counts.get("snf.max_matrix_dim", 0), "count")
    searches = calls.get("nielsen.twisted_conjugacy_search", 0)
    per["nielsen.conjugacy_merge_share"] = (
        counts.get("nielsen.conjugacy_merges", 0) / searches
        if searches else 0.0, "ratio")
    reached = [r for r in (standard_form_reached(json.loads(x))
                           for x in lines if x != "null\n") if r is not None]
    per["fourmanifold.standard_form_share"] = (
        sum(reached) / len(reached) if reached else 0.0, "ratio")
    per["trace.throughput_bps"] = (traced_bps, "braids/s")
    per["trace.untraced_throughput_bps"] = (untraced_bps, "braids/s")
    per["trace.overhead_share"] = (1 - traced_bps / untraced_bps, "ratio")
    return per


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="see perfbench/README.md for the metrics and workloads")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float,
                   help="length of the timed loop (default: run_seconds "
                        "of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "braidfloer" / "report.py").is_file():
        print(f"perfbench: no package under {SRC}; run from the root of a "
              "braidfloer checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)

    try:
        return measure(args)
    except (StepError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


def measure(args) -> int:
    if args.seconds is None:
        args.seconds = json.loads(
            (ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    words = corpus(args.workload, args.seed)
    depth = REFINE_DEPTH.get(args.workload, 0)
    batch = WORK / f"{args.workload}.txt"  # each run overwrites its own
    batch.write_text(batch_text(words))
    n = len(words)
    print(f"workload {args.workload} seed {args.seed}: {n} braids, "
          f"refine depth {depth}, {args.seconds:g} s closed loop, "
          "1 client, 1 thread")

    time_setup(1)  # warms the file cache (and bytecode cache); not measured
    setup = time_setup(SETUP_SPAWNS)
    passes = run_passes(batch, depth, args.seconds)
    traced = run_worker(batch, depth, args.seconds, 1) if args.trace else None
    setup += time_setup(SETUP_SPAWNS)

    validator = load_validator(SRC / "braidfloer" / "report_schema.json")
    first = passes[0]["lines"]
    problems: dict[int, list[str]] = {}
    for lines in [first] + ([traced["lines"]] if traced else []):
        problems.update(check_lines(words, lines, depth, validator))
    correct = True
    for k, found in sorted(problems.items())[:5]:
        print(f"oracle: braid {k} ({words[k][:60]}): {'; '.join(found)}")
    if problems:
        correct = False
    if traced and differing(first, traced["lines"]):
        print("trace: traced reports differ from untraced reports")
        correct = False
    mismatched = sum(differing(first, r["lines"]) for r in passes[1:])
    if mismatched:
        print(f"determinism: {mismatched} repeated reports changed bytes")
        correct = False
    if len(first) == n and "null\n" not in first:
        digest = hashlib.sha256("".join(first).encode()).hexdigest()
        print(f"json: {n} braids, sha256 {digest}")

    check_batch = WORK / f"{args.workload}.check.txt"
    if not check_cli(words[:max(1, n // CHECK_SHARE)], check_batch, depth,
                     first):
        correct = False
    setup += time_setup(SETUP_SPAWNS)

    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes) + sum(
        1 for r in passes for k in problems
        if k < len(r["lines"]) and r["lines"][k] != "null\n")
    failures = [f for r in passes + ([traced] if traced else [])
                for f in r["failures"]]
    for f in failures[:5]:
        print(f"failure: braid {f['braid']}: {f['error'].strip()}")
    if failures:
        correct = False  # a braid without a report is not a correct output

    times = braid_times(passes)
    p50, p90, beyond = latency_stats(times)
    completed = sum(r["completed"] for r in passes)
    print(f"samples: {completed} timed reports of {len(times)} distinct "
          f"braids in {len(passes)} passes, each in a fresh process "
          f"(median per braid kept), {beyond} braids beyond p90; "
          f"{len(setup)} setup spawns")
    metrics = {
        "throughput_bps": (throughput(times), "braids/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p90_ms": (p90, "ms"),
        "peak_rss_mb": (max(r["peak_rss_kib"] for r in passes) / 1024,
                        "MiB"),
        "setup_s": (statistics.median(setup), "s"),
        "ok_share": (1 - failed / attempted, "ratio"),
    }
    if traced:
        metrics = layer_metrics(traced, throughput(braid_times([traced])),
                                metrics["throughput_bps"][0], traced["lines"])
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    if traced:
        total = metrics["report.build_report_s"][0]
        shares = sorted(((value / total, name)
                         for name, (value, unit) in metrics.items()
                         if unit == "s/braid" and name != "report.build_report_s"),
                        reverse=True)
        print("largest layers, as shares of report.build_report_s (layers "
              "nest, so shares overlap): "
              + ", ".join(f"{name} {share:.0%}" for share, name in shares[:6]))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
