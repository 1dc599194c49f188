"""Each command loads only the layers it runs, and lazy names stay patchable.

Every check that depends on what is loaded runs in a fresh child
interpreter, because this process has long since imported all of
benchgen. The footprint checks compare sets of module names, never
timings, so they cannot flake.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import benchgen

from conftest import GENERATOR_MODEL

SRC = str(Path(benchgen.__file__).resolve().parents[1])

GENERATOR_STACK = {
    f"benchgen.{name}"
    for name in ("ground", "csp", "gensolve", "model", "expressions", "tuner", "campaign", "evaluate")
}

CONFIG = """\
[space]
cap_t: 1..50

[generator]
model: knapsack.gen

[campaign]
kind = graded
problem = knapsack
solver = band
t_min = 2
t_max = 5
budget = 12
seed = 11
mem_limit = none

[solver.band]
builtin = synthetic:capacity / 10
"""

# Runs the CLI commands given as a JSON list of argv lists, then reports
# their exit codes and every module loaded.
RUN_COMMANDS = """
import contextlib, io, json, sys
from benchgen.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "modules": sorted(sys.modules)}))
"""


def run_child(code: str, *args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    child = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


def run_commands(*commands: list[str]) -> dict:
    return run_child(RUN_COMMANDS, json.dumps(commands))


@pytest.fixture(scope="module")
def tuned(tmp_path_factory):
    """A campaign tuned by ``benchgen tune`` in a child, and what that child loaded."""
    ws = tmp_path_factory.mktemp("ws")
    (ws / "knapsack.gen").write_text(GENERATOR_MODEL)
    (ws / "campaign.ini").write_text(CONFIG)
    camp = ws / "camp"
    result = run_commands(["tune", str(ws / "campaign.ini"), "--out", str(camp), "--workers", "1"])
    assert result["codes"] == [0]
    return camp, set(result["modules"])


def test_plain_import_loads_no_submodule_and_submodules_still_resolve():
    code = (
        "import json, sys, benchgen\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('benchgen.'))\n"
        "run = benchgen.campaign.run_campaign\n"
        "print(json.dumps({'loaded': loaded, 'run': run.__module__ + '.' + run.__name__}))\n"
    )
    result = run_child(code)
    assert result["loaded"] == []
    assert result["run"] == "benchgen.campaign.run_campaign"


def test_tune_loads_neither_reports_nor_the_external_runner_nor_a_pool(tuned):
    _, modules = tuned
    assert "benchgen.campaign" in modules
    assert not {"benchgen.report", "benchgen.external", "concurrent.futures"} & modules


def test_tune_with_a_builtin_solver_builds_no_pool_at_any_workers(tuned, tmp_path):
    camp, _ = tuned
    pooled = tmp_path / "camp"
    result = run_commands(["tune", str(camp.parent / "campaign.ini"), "--out", str(pooled), "--workers", "3"])
    assert result["codes"] == [0]
    assert "concurrent.futures" not in result["modules"]
    for name in ("tuner.log", "records/evals.jsonl"):
        assert (pooled / name).read_bytes() == (camp / name).read_bytes()


def test_archive_commands_load_no_generator_stack(tuned, tmp_path):
    camp, _ = tuned
    result = run_commands(
        ["report", str(camp)],
        ["combine", str(camp), "--k", "3", "--out", str(tmp_path / "combined.json")],
        ["check", str(camp)],
    )
    assert result["codes"] == [0, 0, 0]
    modules = set(result["modules"])
    assert "benchgen.report" in modules
    assert not GENERATOR_STACK & modules


def test_no_command_loads_dataclasses_or_inspect(tuned, tmp_path):
    camp, tune_modules = tuned
    combined = tmp_path / "combined.json"
    result = run_commands(
        ["report", str(camp)],
        ["combine", str(camp), "--k", "3", "--out", str(combined)],
        ["check", str(camp)],
        ["evaluate", str(combined), "--solvers", "band", "--config", str(camp.parent / "campaign.ini"),
         "--t-max", "5", "--mem-limit", "none"],
    )
    assert result["codes"] == [0, 0, 0, 0]
    for modules in (tune_modules, set(result["modules"])):
        assert "benchgen.records" in modules
        assert not {"dataclasses", "inspect"} & modules


# Floats have no __module__; the module that defines each such name.
DEFINED_IN = {"LARGE_NEGATIVE": "benchgen.evaluate", "PLUS_INFINITY": "benchgen.evaluate"}


def test_every_public_name_resolves_to_the_object_of_its_module():
    star: dict = {}
    exec("from benchgen import *", star)
    assert set(benchgen.__all__) <= set(dir(benchgen))
    for name in benchgen.__all__:
        value = getattr(benchgen, name)
        assert star[name] is value
        module = DEFINED_IN.get(name) or value.__module__
        assert getattr(sys.modules[module], name) is value, name


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        benchgen.no_such_name
    assert not hasattr(benchgen, "no_such_name")
    with pytest.raises(ImportError):
        from benchgen import no_such_name


# Wraps the two lazily loaded back ends before either is first loaded, the
# way the benchmark's tracer does, then runs one report and one builtin
# solver run and counts the calls each wrapper saw.
PATCHED_CALLS = """
import contextlib, io, json, sys
import pytest
import benchgen.cli, benchgen.runner

loaded_before = sorted(m for m in ("benchgen.report", "benchgen.solvers") if m in sys.modules)
calls = {"write_reports": 0, "run_builtin": 0}

def counting(owner, name):
    original = getattr(owner, name)
    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)
    return counted

with pytest.MonkeyPatch.context() as patch:
    patch.setattr(benchgen.cli, "write_reports", counting(benchgen.cli, "write_reports"))
    patch.setattr(benchgen.runner, "run_builtin", counting(benchgen.runner, "run_builtin"))
    with contextlib.redirect_stdout(io.StringIO()):
        code = benchgen.cli.main(["report", sys.argv[1]])
    from benchgen.problems import get_problem
    from benchgen.runner import SolverAdapter, run_solver
    record = run_solver(SolverAdapter(name="exact", builtin="exact"), get_problem("knapsack"),
                        {"weight": [1], "value": [1], "capacity": 1}, 5.0)
print(json.dumps({"loaded_before": loaded_before, "calls": calls, "code": code,
                  "status": record.status.value}))
"""


def test_wrappers_on_lazy_back_ends_see_every_call(tuned):
    camp, _ = tuned
    result = run_child(PATCHED_CALLS, str(camp))
    assert result["loaded_before"] == []
    assert result["code"] == 0
    assert result["status"] == "sat"
    assert result["calls"] == {"write_reports": 1, "run_builtin": 1}
