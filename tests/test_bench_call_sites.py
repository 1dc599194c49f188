"""The benchmark's traced call sites and tuner settings exist in benchgen.

perfbench/tracing.py wraps benchgen functions by module and attribute
name. A refactor that renames such a function, or stops calling it through
that name, would leave its layer untraced; this test fails instead. In the
same way, a TunerConfig field that perfbench/worker.py sets, and a
BacktrackResult field that the traced search reads, must not be cut, and
a traced campaign must still call the tuner's hooks once per evaluation,
and search once per generator solve, so nodes per solution stay nodes per
solve.
These tests read perfbench/ and change nothing there.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
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


# One traced round of a 12-evaluation graded campaign, run in a child
# interpreter because tracing.install patches benchgen for good. The child
# executes tracing.py (argv[1]) from source, as call_sites() does. It keeps
# one grounding, so each configuration's second solve grounds it again.
TRACED_ROUND = r"""
import json, sys
namespace = {"__name__": "perfbench_tracing"}
exec(compile(open(sys.argv[1]).read(), sys.argv[1], "exec"), namespace)
import benchgen.campaign, benchgen.gensolve
benchgen.gensolve.CSP_CACHE_SIZE = 1
from benchgen import EvaluationLimits, GradedPolicy, SolverAdapter, TunerConfig, get_problem

tracer = namespace["Tracer"]()
namespace["install"](tracer)
solver = SolverAdapter(name="band", builtin="synthetic:capacity / 10")
policy = GradedPolicy(problem=get_problem("knapsack"), solver=solver, t_min=2.0, t_max=5.0)
model = "var capacity : int 1..100\nconstraint capacity = cap_t\n"
result = benchgen.campaign.run_campaign(
    sys.argv[2], "cap_t: 1..100", model, policy, TunerConfig(total_budget=12, seed=7),
    EvaluationLimits(mem_limit=None),
)
print(json.dumps({"evals": result.archive.evaluation_count(), "spans": tracer.spans}))
"""


def test_a_traced_round_spans_each_tuner_hook_once_per_evaluation(tmp_path):
    src = str(Path(importlib.import_module("benchgen").__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run(
        [sys.executable, "-c", TRACED_ROUND, str(TRACING), str(tmp_path / "camp")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    traced = json.loads(child.stdout)
    spans = {span["id"]: span for span in traced["spans"]}
    sinks = [span for span in spans.values() if span["name"] == "campaign.log_sink"]
    lines = [span for span in spans.values() if span["name"] == "archive.append_log"]
    assert traced["evals"] == len(sinks) == len(lines) == 12
    assert all(spans[span["parent"]]["name"] == "campaign.log_sink" for span in lines)
    # Every configuration of the model grounds, so every generator solve
    # reaches search, and it searches once.
    solves = [sid for sid, span in spans.items() if span["name"] == "gensolve.solve_generator"]
    searches = [span["parent"] for span in spans.values() if span["name"] == "csp.backtrack_solve"]
    assert len(solves) == 12 and sorted(searches) == sorted(solves)
