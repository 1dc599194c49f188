"""The benchmark's traced call sites exist in benchgen.

perfbench/tracing.py wraps benchgen functions by module and attribute
name. A refactor that renames such a function, or stops calling it through
that name, would leave its layer untraced; this test fails instead. It
reads perfbench/ and changes nothing there.
"""

import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
