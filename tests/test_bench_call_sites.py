"""The benchmark's traced call sites and tuner settings exist in benchgen.

perfbench/tracing.py wraps benchgen functions by module and attribute
name. A refactor that renames such a function, or stops calling it through
that name, would leave its layer untraced; this test fails instead. In the
same way, a TunerConfig field that perfbench/worker.py sets, and a
BacktrackResult field that the traced search reads, must not be cut.
These tests read perfbench/ and change nothing there.
"""

import ast
import importlib
from pathlib import Path

import pytest

from benchgen.records import field_names
from benchgen.tuner import TunerConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def call_sites():
    # Executed from source, so no bytecode cache is written under perfbench/.
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    return [(module_name, attr) for module_name, attr, *_ in namespace["CALL_SITES"]]


@pytest.mark.parametrize("module_name, attr", call_sites())
def test_traced_call_site_resolves_to_a_callable(module_name, attr):
    assert module_name.startswith("benchgen.")
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_bench_worker_sets_only_tuner_config_fields():
    worker = PERFBENCH / "worker.py"
    calls = [
        node
        for node in ast.walk(ast.parse(worker.read_text(), str(worker)))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "TunerConfig"
    ]
    assert calls
    fields = set(field_names(TunerConfig))
    for call in calls:
        assert not call.args
        assert {keyword.arg for keyword in call.keywords} <= fields


def test_traced_search_reads_only_backtrack_result_fields():
    from benchgen.csp import BacktrackResult

    tree = ast.parse(TRACING.read_text(), str(TRACING))
    (nodes,) = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "_nodes"]
    read = {
        node.attr
        for node in ast.walk(nodes)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "result"
    }
    assert read
    assert read <= set(field_names(BacktrackResult))
