"""The library example of README.md runs as written, and each value
comment in it is the repr of the value its line computes; the
configuration format it shows is the built-in configuration."""

import ast
import io
import json
import re
import tokenize
from pathlib import Path

import braidfloer

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_values():
    for name in braidfloer.__all__:
        assert hasattr(braidfloer, name), name
    block = library_block()
    comments = {tok.start[0]: tok.string[1:].strip()
                for tok in tokenize.generate_tokens(io.StringIO(block).readline)
                if tok.type == tokenize.COMMENT}
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr) and stmt.lineno in comments:
            value = eval(compile(ast.Expression(stmt.value), "README.md",
                                 "eval"), namespace)
            assert repr(value) == comments[stmt.lineno], ast.unparse(stmt)
            checked += 1
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"),
                 namespace)
    # the nielsen section's bound, group, one class and indices, the
    # Floer bound, the report's nielsen section and two report fields
    assert checked == 8


def test_configuration_block_is_the_default():
    section = README.read_text(encoding="utf-8").split(
        "\n### Gluing configuration files\n", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    assert json.loads(block) == braidfloer.DEFAULT_CONFIGURATION
