"""Every name a package or test module imports is read in that module
or exported by its ``__all__``; the records keep their pinned surface,
a package message echoes a value only through ``braids._shown_repr``,
and the CLI imports no module that a report does not run."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "braidfloer"


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


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")),
    ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# the records are data and one checked entry: what tests alone use
# belongs in tests/_oracles.py
RECORDS = {
    "BraidWord": "__init__ __len__ d from_letters letters to_text",
    "Permutation": "__init__ cycles fixed_point_count images "
                   "is_standard_cycle",
    "FreeWord": "__init__ __len__ exponent_vector from_letters letters rank "
                "to_text",
    "FreeGroupEndo": "__init__ images rank",
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


def echoes(source: str, kept: str | None = None) -> list[str]:
    """The lines where the source echoes a value by a ``!r`` conversion
    or a ``repr(`` call, outside the function named ``kept``."""
    tree = ast.parse(source)
    inside = {id(node) for f in ast.walk(tree)
              if isinstance(f, ast.FunctionDef) and f.name == kept
              for node in ast.walk(f)}
    return [f"line {node.lineno}" for node in ast.walk(tree)
            if id(node) not in inside
            and (isinstance(node, ast.FormattedValue)
                 and node.conversion == ord("r")
                 or isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Name)
                 and node.func.id == "repr")]


def test_the_scan_finds_each_echo():
    source = ("def _shown_repr(x):\n"
              "    return repr(x) + f'{x!r}'\n"
              "print(f'{1!r} {2!s}', repr(3))\n")
    assert echoes(source, "_shown_repr") == ["line 3", "line 3"]
    assert len(echoes(source)) == 4


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_messages_echo_values_by_one_rule(path):
    # braids._shown_repr is the one echo of a value: a message that
    # quoted one itself could show it by another cut, or in full
    kept = "_shown_repr" if path.name == "braids.py" else None
    assert echoes(path.read_text(encoding="utf-8"), kept) == []


# modules a one-braid CLI run does not need: dataclasses brings inspect
# (and ast, dis, tokenize), no report reaches snf, the CLI reads its
# files with open(), and annotations are never evaluated
NOT_ON_THE_CLI_PATH = ("dataclasses", "inspect", "braidfloer.snf", "pathlib",
                       "typing")


def test_the_cli_imports_only_what_a_report_runs():
    # -S: no site module, so no .pth hook of the interpreter's
    # site-packages imports a module before the CLI does
    code = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); "
            "import braidfloer.cli; "
            f"print(sorted(set(sys.modules) & set({NOT_ON_THE_CLI_PATH!r})))")
    done = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
