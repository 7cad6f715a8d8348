"""Every name a package module imports is read in that module or
exported by its ``__all__``."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "braidfloer"


def unused_imports(source: str) -> list[str]:
    """The names the source binds by an import (``__future__`` aside)
    that it never reads and that its ``__all__`` does not list."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    read: set[str] = set()
    exported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            exported |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in read and name not in exported]


def test_the_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from json import dumps, loads as parse\n"
              "__all__ = ['dumps']\n"
              "print(sys.argv)\n")
    assert unused_imports(source) == ["os (line 2)", "parse (line 3)"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# the records are data and one checked entry: what tests alone use
# belongs in tests/_oracles.py
RECORDS = {
    "BraidLetter": "index kind sign token",
    "BraidWord": "__len__ d from_letters identity letters to_text",
    "Permutation": "__call__ __post_init__ cycles degree fixed_point_count "
                   "images is_standard_cycle",
    "FreeWord": "__len__ exponent_vector from_letters identity letters rank "
                "to_text",
    "FreeGroupEndo": "__post_init__ images rank",
}


def test_the_records_define_only_their_kept_surface():
    defined = {}
    for module in ("braids.py", "freegroup.py"):
        for c in ast.parse((PACKAGE / module).read_text(encoding="utf-8")).body:
            if isinstance(c, ast.ClassDef) and c.name in RECORDS:
                defined[c.name] = " ".join(sorted(
                    getattr(x, "name", None) or x.target.id for x in c.body
                    if isinstance(x, (ast.FunctionDef, ast.AnnAssign))))
    assert defined == RECORDS
