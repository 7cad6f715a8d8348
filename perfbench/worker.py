"""Closed-loop timing of ``build_report`` in a fresh process.

One client, one thread: the next braid starts only when the previous
report has been built and serialized.  The loop makes one pass over the
batch file in order and starts no braid after ``--seconds``; a further
pass over the same words runs in a further fresh process, so nothing a
process keeps between calls can serve a repeated word.  Each braid is
timed from the call of ``build_report`` to the end of ``json.dumps``
(the bytes the CLI prints for it); ``latencies`` holds one entry per
braid, None for a failed braid.

Machine speed: a fixed reference kernel runs between braids every
``REFERENCE_EVERY`` seconds (outside the timed region); the kernel runs
just before and after a braid give the speed of the machine while
that braid ran.

Resource guard: the process caps its own address space (RLIMIT_AS) and
arms a per-braid wall-clock timer; a braid that raises, runs out of
memory or out of time counts as failed and the loop goes on.

Each JSON line goes to ``<out>.jsonl`` ("null" for a failed braid), for
the oracle, determinism and CLI checks.  Results go to ``<out>`` as one
JSON object.

Usage: python3 perfbench/worker.py --batch FILE --out FILE --seconds S
           [--refine-depth N] [--trace 0|1]
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


MEM_MIB = 1024          # RLIMIT_AS of the worker (and of the CLI check)
BRAID_SECONDS = 10.0    # wall-clock limit of one braid
REFERENCE_EVERY = 0.1   # seconds of loop between two reference-kernel runs


def reference_kernel() -> float:
    """Seconds taken by a fixed piece of pure-Python work.

    The work is of the kind the package does (building integer tuples and
    freely reducing them), so other tenants of a shared machine slow it by
    about the same factor as they slow ``build_report``.  It takes about
    2 ms on an uncontended 2.1 GHz Xeon core."""
    t0 = time.perf_counter()
    word = tuple(range(1, 200))
    for _ in range(300):
        out: list[int] = []
        for x in word + tuple(-y for y in reversed(word[100:])):
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
        word = tuple(out)
    return time.perf_counter() - t0


def peak_rss_kib() -> int:
    """Peak resident set of this process, in KiB.

    Linux carries the spawning parent's peak across exec into
    ``ru_maxrss``, so a worker started by a large parent would report the
    parent's size; the process's own high-water mark (``VmHWM``) is read
    instead where ``/proc`` has it."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def cap_memory() -> None:
    """Cap this process's own address space at MEM_MIB."""
    limit = MEM_MIB << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


class BraidTimeout(Exception):
    """The per-braid wall-clock limit ran out."""


def _on_alarm(signum, frame):
    raise BraidTimeout()


def run(words: list[str], depth: int, seconds: float, braid_seconds: float,
        lines_path: Path, tracer=None) -> dict:
    from braidfloer.report import build_report

    def serialize(report: dict) -> str:
        return json.dumps(report, separators=(",", ":")) + "\n"

    if tracer is not None:
        tracer.install()
        from braidfloer import report as report_module
        build_report = report_module.build_report
        inner = serialize

        def serialize(report: dict) -> str:
            index = tracer.begin("report.serialize")
            try:
                return inner(report)
            finally:
                tracer.end(index)

    signal.signal(signal.SIGALRM, _on_alarm)
    references = [reference_kernel()]
    last_reference = time.perf_counter()
    reference_before: list[int] = []  # per braid, the kernel run before it
    latencies: list[float | None] = []
    failures: list[dict] = []
    deadline = time.perf_counter() + seconds
    with lines_path.open("w") as lines:
        for k, word in enumerate(words):
            if k and time.perf_counter() >= deadline:
                break
            if time.perf_counter() - last_reference >= REFERENCE_EVERY:
                references.append(reference_kernel())
                last_reference = time.perf_counter()
            reference_before.append(len(references) - 1)
            signal.setitimer(signal.ITIMER_REAL, braid_seconds)
            try:
                t0 = time.perf_counter()
                text = serialize(build_report(word, refine_depth=depth))
                t1 = time.perf_counter()
            except BraidTimeout:
                text = None
                failures.append({"braid": k, "error": "wall-clock limit"})
            except MemoryError:
                text = None
                failures.append({"braid": k, "error": "address-space limit"})
            except Exception:  # any raise is a failed braid; keep looping
                text = None
                failures.append({"braid": k,
                                 "error": traceback.format_exc(limit=3)})
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            if tracer is not None:
                tracer.fold()
            latencies.append(None if text is None else t1 - t0)
            lines.write(text if text is not None else "null\n")
    references.append(reference_kernel())
    return {"attempted": len(latencies),
            "completed": sum(1 for x in latencies if x is not None),
            "latencies": latencies,
            "failures": failures[:20], "failed": len(failures),
            # speed of the machine around each braid: the mean of the
            # reference-kernel runs just before and just after it
            "reference_s": [(references[j] + references[j + 1]) / 2
                            for j in reference_before],
            "peak_rss_kib": peak_rss_kib()}


def main() -> int:
    p = argparse.ArgumentParser(description="closed-loop build_report timing")
    p.add_argument("--batch", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--refine-depth", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    cap_memory()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    words = [w for w in args.batch.read_text().splitlines() if w]

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    result = run(words, args.refine_depth, args.seconds, BRAID_SECONDS,
                 args.out.with_suffix(".jsonl"), tracer)
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = {"calls": dict(tracer.calls),
                           "counts": dict(tracer.counts),
                           "layer_time": dict(tracer.layer_time),
                           "self_time": dict(tracer.self_time)}
        with args.out.with_suffix(".spans.jsonl").open("w") as f:
            for span in tracer.kept:
                f.write(json.dumps(span) + "\n")
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
