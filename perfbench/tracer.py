"""In-memory spans around the public functions of the braidfloer modules.

The tracer replaces each public function of the traced modules with a
wrapper that records a span (name, start, end, parent span) and, for a
few functions, a size counter read off the arguments or the result.  A
function is replaced in every ``braidfloer`` module namespace that holds
it, so the calls ``build_report`` makes through its own imports are the
ones timed.  Nothing in the package changes on disk.

A span's self time is its duration minus the part covered by its child
spans.  A layer's time (``LAYERS``) is the time covered by the spans of
its functions, a span nested in another span of the same layer counting
once.  Spans of one braid are folded into these totals when the braid
ends (``fold``), so memory does not grow with the run; the first
``KEEP_SPANS`` spans of the run are also kept as recorded, to be written out
when the run ends.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

TRACED_MODULES = ("braids", "freegroup", "snf", "nielsen", "floer",
                  "fourmanifold", "report")
KEEP_SPANS = 100_000  # raw spans kept for the spans file


def _letters(endo) -> int:
    return sum(len(w) for w in endo.images)


def _max_dim(matrix) -> int:
    return max(matrix.rows, matrix.cols)


# Counters recorded at span boundaries: span name -> (counter, value of
# (args, result)).  The value is summed, or maximised for "max_" names.
COUNTERS = {
    "freegroup.artin_disc_endo": ("freegroup.disc_image_letters",
                                  lambda a, r: _letters(r)),
    "freegroup.artin_endo": ("freegroup.sphere_image_letters",
                             lambda a, r: _letters(r)),
    "nielsen.reidemeister_trace_raw": ("nielsen.trace_terms",
                                       lambda a, r: len(r.items())),
    "snf.smith_normal_form": ("snf.max_matrix_dim",
                              lambda a, r: _max_dim(a[0])),
    "fourmanifold.tietze_simplify": (
        "fourmanifold.relator_letters",
        lambda a, r: sum(len(w) for w in a[0].relators)),
    "nielsen.twisted_conjugacy_search": ("nielsen.conjugacy_merges",
                                         lambda a, r: r is not None),
}


# Layer time metrics: metric -> span names (a name ending in "." stands
# for every span of that module).
LAYERS = {
    "braids.parse_s": ("braids.parse_braid",),
    "braids.permutation_s": ("braids.induced_permutation",
                             "braids.is_transitive"),
    "freegroup.artin_endo_s": ("freegroup.artin_endo",),
    "freegroup.fox_s": ("freegroup.fox_derivative",),
    "nielsen.trace_raw_s": ("nielsen.reidemeister_trace_raw",),
    "nielsen.decomposition_s": ("nielsen.nielsen_decomposition",),
    "nielsen.refine_s": ("nielsen.refine_decomposition",),
    "snf.smith_normal_form_s": ("snf.smith_normal_form",),
    "snf.project_s": ("snf.project",),
    "fourmanifold.presentation_s": ("fourmanifold.mapping_torus_presentation",
                                    "fourmanifold.assemble_pi1"),
    "fourmanifold.tietze_s": ("fourmanifold.tietze_simplify",),
    "fourmanifold.abelianization_s": ("fourmanifold.abelianization",),
    "floer.s": ("floer.",),
    "report.serialize_s": ("report.serialize",),
    "report.build_report_s": ("report.build_report",),
}


def _in_layer(name: str, members: tuple[str, ...]) -> bool:
    return any(name == m or (m.endswith(".") and name.startswith(m))
               for m in members)


class Tracer:
    """Records spans for one run.  Not thread-safe: one run, one thread."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.kept: list[list] = []       # raw spans of the first braids
        self.stack: list[int] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.layer_time: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if counter is not None:
                key, value = counter
                v = value(args, result)
                if ".max_" in key:
                    self.counts[key] = max(self.counts[key], v)
                else:
                    self.counts[key] += v
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the traced modules, plus
        ``ClassSpace.project``, wherever a braidfloer module holds it."""
        import braidfloer  # noqa: F401  (loads every submodule)
        from braidfloer.snf import ClassSpace

        targets: dict[int, tuple[object, str]] = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"braidfloer.{short}"]
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == module.__name__):
                    targets[id(fn)] = (fn, f"{short}.{attr}")
        for modname, module in list(sys.modules.items()):
            if modname != "braidfloer" and not modname.startswith("braidfloer."):
                continue
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, self.wrap(hit[1], value))
        self._patch(ClassSpace, "project",
                    self.wrap("snf.project", ClassSpace.project))

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- folding -------------------------------------------------------

    def fold(self) -> None:
        """Add the spans of the braid just run to the totals and clear
        them.  Spans a timeout left open are closed now."""
        spans = self.spans
        now = time.perf_counter()
        for span in spans:
            if span[2] is None:
                span[2] = now
        self.stack = []
        for (name, *_), own in zip(spans, self_times(spans)):
            self.calls[name] += 1
            self.self_time[name] += own
        for layer, members in LAYERS.items():
            for name, start, end, parent in spans:
                if not _in_layer(name, members):
                    continue
                p = parent
                while p >= 0 and not _in_layer(spans[p][0], members):
                    p = spans[p][3]
                if p < 0:
                    self.layer_time[layer] += end - start
        room = KEEP_SPANS - len(self.kept)
        if room > 0:
            base = len(self.kept)
            for name, start, end, parent in spans[:room]:
                self.kept.append([name, start, end,
                                  parent + base if parent >= 0 else -1])
        self.spans = []


def self_times(spans: list[list]) -> list[float]:
    """Self time of each span: duration minus the time of its children."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i]
            for i, (name, start, end, parent) in enumerate(spans)]
