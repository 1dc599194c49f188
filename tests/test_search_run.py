"""The knapsack searches state only their moves.

Each search takes ``(data, run, seed)`` and calls ``run.visit`` at each
node or move. Only the run, ``solvers._Run``, and the frame that builds it
read the clock and the memory cap, so how a run stops and what its record
says are stated once. This test parses ``solvers.py`` and fails on a
search that reads ``time.monotonic`` or names ``deadline`` or
``mem_limit``.
"""

import ast
from pathlib import Path

import pytest

from benchgen import solvers

SOURCE = Path(solvers.__file__).read_text()
LIMIT_NAMES = {"deadline", "mem_limit"}


def limit_uses(node: ast.AST) -> list[str]:
    """Each read of ``time.monotonic`` and each name, attribute or parameter
    called ``deadline`` or ``mem_limit`` inside ``node``."""
    found = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr == "monotonic":
            found.append(f"line {sub.lineno}: time.monotonic")
        name = getattr(sub, "id", None) or getattr(sub, "attr", None) or getattr(sub, "arg", None)
        if name in LIMIT_NAMES:
            found.append(f"line {sub.lineno}: {name}")
    return found


def definitions() -> dict[str, ast.AST]:
    return {node.name: node for node in ast.parse(SOURCE).body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def is_search(node: ast.AST) -> bool:
    return isinstance(node, ast.FunctionDef) and any(
        isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_knapsack_solver" for d in node.decorator_list
    )


SEARCHES = sorted(name for name, node in definitions().items() if is_search(node))


def test_the_builtin_knapsack_solvers_are_the_searches():
    assert SEARCHES == ["solve_buggy", "solve_exact", "solve_hillclimb"]


@pytest.mark.parametrize("name", SEARCHES)
def test_a_search_takes_its_run_and_leaves_it_the_clock_and_the_memory_cap(name):
    search = definitions()[name]
    assert [arg.arg for arg in search.args.args] == ["data", "run", "seed"]
    assert limit_uses(search) == []


def test_the_check_sees_the_clock_and_the_cap_in_the_run_and_its_frame():
    run, frame = definitions()["_Run"], definitions()["_knapsack_solver"]
    assert {use.split(": ")[1] for use in limit_uses(run)} == {"time.monotonic", "deadline", "mem_limit"}
    assert {use.split(": ")[1] for use in limit_uses(frame)} == {"time.monotonic", "mem_limit"}
