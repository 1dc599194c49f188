"""No module of benchgen names ``RecursionError``.

The readers that nest, of expressions and of value text, run on an
explicit stack, so ``MAX_DEPTH`` is the only bound on how deep a text may
nest, whatever stack the caller has used. This test parses every module and
fails on any mention of ``RecursionError``, so a limit hidden in the
interpreter cannot come back.
"""

import ast
from pathlib import Path

import pytest

import benchgen

SRC = Path(benchgen.__file__).resolve().parent


def recursion_errors(source: str, filename: str) -> list[str]:
    return [
        f"{filename} line {node.lineno}"
        for node in ast.walk(ast.parse(source, filename))
        if "RecursionError" in (getattr(node, "id", None), getattr(node, "attr", None))
    ]


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda path: path.stem)
def test_module_names_no_recursion_error(path):
    assert recursion_errors(path.read_text(), path.name) == []


def test_the_check_sees_a_clause_that_catches_recursion_error():
    source = "try:\n    read()\nexcept (ValueError, builtins.RecursionError):\n    pass\nexcept RecursionError:\n    pass\n"
    assert sorted(recursion_errors(source, "reader.py")) == ["reader.py line 3", "reader.py line 5"]
