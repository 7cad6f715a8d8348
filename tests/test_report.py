"""build_report computes each per-braid object once."""

import sys
from collections import Counter

from braidfloer import braids, fourmanifold, freegroup, nielsen
from braidfloer.report import build_report

ONCE = ((braids, "induced_permutation"),
        (freegroup, "artin_endo"),
        (fourmanifold, "mapping_torus_presentation"),
        (nielsen, "class_space"),
        (nielsen, "reidemeister_trace_raw"))


def test_each_object_is_built_once(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for home, name in ONCE:
        original = getattr(home, name)
        # replace the function wherever a package module imported it
        for modname, module in list(sys.modules.items()):
            if (modname.startswith("braidfloer")
                    and getattr(module, name, None) is original):
                monkeypatch.setattr(module, name, counted(name, original))

    report = build_report("d=4; s1 s2 s3", refine_depth=2)
    assert report["transitive"] and report["refined"] is not None
    assert calls == Counter({name: 1 for _, name in ONCE})
