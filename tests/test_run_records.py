"""The archived form of one solver run, pinned field by field.

Each case runs ``run_solver`` and then ``verify_record`` and compares the
record as the archive serializes it to a literal. Wall-clock fields (the
run time and the trace stamps of a solver that reads the clock) are
masked; virtual times of ``synthetic:`` solvers are pinned as they are.
"""

import json
import sys

import pytest

from benchgen.problems import Problem, get_problem
from benchgen.records import from_jsonable
from benchgen.runner import EvaluationLimits, SolverAdapter, SolverRecord, run_solver, verify_record

KNAPSACK = get_problem("knapsack")
DECISION = get_problem("knapsack_decision")
INSTANCE = {"weight": [2, 3, 4], "value": [3, 4, 5], "capacity": 5}
CLOCK = "<clock>"


class OtherProblem(Problem):
    name = "other"


def archived_form(name, record):
    """The record as the archive writes it under solver ``name``."""
    return record.to_jsonable(name)


def run_and_archive(adapter, problem, instance, time_limit, seed, clocked, tmp_path, mem_limit=None):
    limits = EvaluationLimits(mem_limit=mem_limit, workdir=str(tmp_path))
    record = run_solver(adapter, problem, instance, time_limit, limits, seed)
    data = archived_form(adapter.name, verify_record(problem, instance, record))
    if clocked:
        assert 0.0 <= data["time"] < time_limit
        assert all(0.0 <= stamp <= data["time"] for stamp, _ in data["trace"])
        data["time"] = CLOCK
        data["trace"] = [[CLOCK, objective] for _, objective in data["trace"]]
    return data


def expected(status, time, objective=None, optimal_claimed=False, solution=None, trace=(),
             solution_ok=None, note="", solver="x"):
    return {
        "solver": solver,
        "status": status,
        "time": time,
        "objective": objective,
        "optimal_claimed": optimal_claimed,
        "solution": solution,
        "time_to_best": None,
        "trace": [[CLOCK if time == CLOCK else time, o] for o in trace],
        "solution_ok": solution_ok,
        "note": note,
    }


BUILTIN_CASES = {
    "exact": (
        "exact", KNAPSACK, INSTANCE, 5.0, 0, True,
        expected("sat", CLOCK, 7, True, {"take": [1, 1, 0]}, [0, 3, 7], True),
    ),
    "exact-decision": (
        "exact", DECISION, {**INSTANCE, "target": 7}, 5.0, 0, True,
        expected("sat", CLOCK, None, False, {"take": [1, 1, 0]}, [0, 3, 7], True),
    ),
    "exact-decision-unsat": (
        "exact", DECISION, {**INSTANCE, "target": 100}, 5.0, 0, True,
        expected("unsat", CLOCK),
    ),
    "exact-decision-missing-target": (
        "exact", DECISION, INSTANCE, 5.0, 0, True,
        expected("error", CLOCK, note="missing target"),
    ),
    "exact-decision-boolean-target": (
        "exact", DECISION, {**INSTANCE, "target": True}, 5.0, 0, True,
        expected("error", CLOCK, note="missing target"),
    ),
    "hillclimb-seed-3": (
        "hillclimb", KNAPSACK, INSTANCE, 5.0, 3, True,
        expected("sat", CLOCK, 7, False, {"take": [1, 1, 0]}, [3, 7], True),
    ),
    "hillclimb-decision-seed-3": (
        "hillclimb", DECISION, {**INSTANCE, "target": 7}, 5.0, 3, True,
        expected("sat", CLOCK, None, False, {"take": [1, 1, 0]}, [3, 7], True),
    ),
    "hillclimb-decision-missed-target-seed-3": (
        "hillclimb", DECISION, {**INSTANCE, "target": 100}, 5.0, 3, True,
        expected("timeout", CLOCK, trace=[3, 7]),
    ),
    "synthetic-within-limit": (
        "synthetic:capacity / 10", KNAPSACK, INSTANCE, 5.0, 0, False,
        expected("sat", 0.5, 0, True, {"take": [0, 0, 0]}, [0], True),
    ),
    "synthetic-over-limit": (
        "synthetic:capacity / 10", KNAPSACK, INSTANCE, 0.2, 0, False,
        expected("timeout", 0.2),
    ),
    "synthetic-unknown-name": (
        "synthetic:capacity / missing", KNAPSACK, INSTANCE, 5.0, 0, False,
        expected("error", 0.0, note="latency expression: unknown identifier 'missing'"),
    ),
    "synthetic-division-by-zero": (
        "synthetic:capacity / 0", KNAPSACK, INSTANCE, 5.0, 0, False,
        expected("error", 0.0, note="latency expression: division by zero"),
    ),
    "buggy": (
        "buggy", KNAPSACK, INSTANCE, 5.0, 0, True,
        expected("sat", CLOCK, 12, True, {"take": [1, 1, 1]}, [], False,
                 note="infeasible solution returned"),
    ),
    "buggy-decision": (
        "buggy", DECISION, {**INSTANCE, "target": 7}, 5.0, 0, True,
        expected("sat", CLOCK, 12, True, {"take": [1, 1, 1]}, [], False,
                 note="infeasible solution returned"),
    ),
    "buggy-decision-missing-target": (
        "buggy", DECISION, INSTANCE, 5.0, 0, True,
        expected("sat", CLOCK, 12, True, {"take": [1, 1, 1]}, [], False,
                 note="check failed: decision instance needs an integer 'target'"),
    ),
    "unsupported-problem": (
        "exact", OtherProblem(), INSTANCE, 5.0, 0, False,
        expected("error", 0.0, note="unsupported problem other"),
    ),
    "malformed-instance": (
        "exact", KNAPSACK, {"weight": [1]}, 5.0, 0, False,
        expected("error", 0.0, note="instance missing field 'value'"),
    ),
    "non-positive-limit": (
        "exact", KNAPSACK, INSTANCE, 0.0, 0, False,
        expected("timeout", 0.0, note="non-positive time limit"),
    ),
}


@pytest.mark.parametrize("case", sorted(BUILTIN_CASES))
def test_builtin_run_archives_as_pinned(case, tmp_path):
    builtin, problem, instance, limit, seed, clocked, want = BUILTIN_CASES[case]
    adapter = SolverAdapter(name="x", builtin=builtin)
    data = run_and_archive(adapter, problem, instance, limit, seed, clocked, tmp_path)
    assert list(data.items()) == list(want.items())


@pytest.mark.parametrize("builtin", ["exact", "hillclimb"])
def test_builtin_run_stopped_by_the_memory_cap_archives_as_pinned(builtin, tmp_path):
    adapter = SolverAdapter(name="x", builtin=builtin)
    data = run_and_archive(adapter, KNAPSACK, INSTANCE, 5.0, 0, True, tmp_path, mem_limit=64)
    assert list(data.items()) == list(expected("error", CLOCK, note="memory cap exceeded").items())


TRAIL = " {model} {instance} {time_limit_ms}"  # placeholders the scripts ignore

SCRIPT_CASES = {
    "solution-block": (
        "print('take = [1, 0, 0]'); print('objective = 3'); print('-' * 10); print('=' * 10)",
        KNAPSACK, INSTANCE,
        expected("sat", CLOCK, 3, True, {"take": [1, 0, 0]}, [3], True, solver="s"),
    ),
    "unsat-marker": (
        "print('=====UNSATISFIABLE=====')",
        DECISION, {**INSTANCE, "target": 20},
        expected("unsat", CLOCK, solver="s"),
    ),
    "exit-code-3": (
        "import sys; sys.exit(3)",
        KNAPSACK, INSTANCE,
        expected("error", CLOCK, note="exit code 3", solver="s"),
    ),
}


@pytest.mark.parametrize("case", sorted(SCRIPT_CASES))
def test_script_run_archives_as_pinned(case, tmp_path):
    body, problem, instance, want = SCRIPT_CASES[case]
    adapter = SolverAdapter(name="s", command=f'{sys.executable} -c "{body}"' + TRAIL)
    data = run_and_archive(adapter, problem, instance, 5.0, 0, True, tmp_path)
    assert list(data.items()) == list(want.items())


# One line of records/evals.jsonl as a graded campaign with a local-search
# solver and an exact oracle writes it.
EVALS_LINE = (
    '{"seq": 1, "block": 0, "config_id": "gd37e29fb5e", "assignment": {"cap_t": 42}, '
    '"instance_id": "gd37e29fb5e-0000", "penalty": -1.0, "status": "graded", '
    '"generator_outcome": "solution", "records": {"ls": {"solver": "ls", "status": "sat", '
    '"time": 0.00014651400124421343, "objective": 3, "optimal_claimed": false, '
    '"solution": {"take": [1, 1, 1]}, "time_to_best": 0.00014651400124421343, '
    '"trace": [[0.00012650000280700624, 0], [0.00013706800018553622, 1], '
    '[0.0001437150021956768, 2], [0.00014651400124421343, 3]], "solution_ok": true, '
    '"note": ""}}, "scores": null, "oracle": {"optimum": 3, "proved": true, '
    '"time": 0.00020638400019379333, "infeasible": false}}\n'
)


def test_archived_evaluation_line_reads_back_byte_for_byte():
    entry = json.loads(EVALS_LINE)
    entry["records"] = {
        name: archived_form(name, from_jsonable(SolverRecord, raw)) for name, raw in entry["records"].items()
    }
    assert json.dumps(entry) + "\n" == EVALS_LINE
