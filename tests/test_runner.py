"""Solver adapters, external execution, classification, and the oracle path."""

import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

import benchgen
from benchgen.errors import ValidationError
from benchgen.evaluate import (
    PLUS_INFINITY,
    DiscriminatingPolicy,
    GradedPolicy,
    OracleResult,
    effective_graded_record,
    oracle_optimum,
)
from benchgen import external
from benchgen.external import run_external_command
from benchgen.gensolve import GenOutcome
from benchgen.problems import get_problem
from benchgen.runner import (
    EvaluationLimits,
    RunStatus,
    SolverAdapter,
    SolverRecord,
    Status,
    run_solver,
    verify_record,
)
from benchgen.scoring import pair_score
from benchgen.valuetext import parse_values

from conftest import evaluate_generator

KNAPSACK = get_problem("knapsack")
DECISION = get_problem("knapsack_decision")
PY = sys.executable

TRAIL = " {model} {instance} {time_limit_ms}"  # placeholders the scripts ignore


def script_adapter(name, body, kind="complete"):
    return SolverAdapter(name=name, kind=kind, command=f'{PY} -c "{body}"' + TRAIL)


def test_adapter_validation():
    with pytest.raises(ValidationError):
        SolverAdapter(name="x")  # neither builtin nor command
    with pytest.raises(ValidationError):
        SolverAdapter(name="x", builtin="exact", command="foo {model} {instance} {time_limit_ms}")
    with pytest.raises(ValidationError):
        SolverAdapter(name="x", command="no placeholders at all")
    with pytest.raises(ValidationError):
        SolverAdapter(name="x", builtin="exact", kind="psychic")


@pytest.mark.parametrize("name", ["translate_limit", "solve_limit"])
@pytest.mark.parametrize("value", [-1.0, 0.0, math.nan, math.inf])
def test_generator_limits_must_be_positive_and_finite(name, value):
    with pytest.raises(ValidationError, match=f"{name} must be positive and finite, got {value}"):
        EvaluationLimits(**{name: value})


@pytest.mark.parametrize("limit", [math.inf, math.nan])
def test_external_run_with_a_time_limit_that_is_not_finite_is_an_error_record(limit, tmp_path):
    adapter = script_adapter("s", "print(1)")
    instance = {"weight": [1], "value": [1], "capacity": 1}
    record = run_solver(adapter, KNAPSACK, instance, limit, EvaluationLimits(mem_limit=None, workdir=tmp_path))
    assert record.status is Status.ERROR
    assert record.note == f"time limit {limit} s is not finite"


@pytest.mark.parametrize(
    "template, message",
    [
        ("solve {model} {instance} {time_limit_ms} {", "bad command template"),
        ('solve "{model} {instance} {time_limit_ms}', "bad command template"),
        ("solve {model} {instance} {time_limit_ms} {seeed}", "bad command template"),
        ("solve {model} {instance} {time_limit_ms} {seed:s}", "bad command template"),
        ("solve {model} {instance} {time_limit_ms} {seed.x}", "bad command template"),
        ("solve {{model}} {instance} {time_limit_ms}", r"missing placeholders: \['\{model\}'\]"),
    ],
    ids=["stray-brace", "open-quote", "unknown-placeholder", "bad-format-spec", "bad-field", "escaped-brace"],
)
def test_malformed_command_template_is_refused_by_its_adapter(template, message):
    with pytest.raises(ValidationError, match=message):
        SolverAdapter(name="x", command=template)


@pytest.mark.parametrize(
    "template",
    ["solve {model} {instance} {time_limit_ms:d}", "solve {model!s} {instance} {time_limit_ms}"],
    ids=["format-spec", "conversion"],
)
def test_placeholder_with_a_spec_or_conversion_is_accepted(template):
    assert SolverAdapter(name="x", command=template).command == template


@pytest.mark.parametrize(
    "template, prefix, note",
    [
        ("solve {model} {instance} {time_limit_ms} {", None, "bad command template"),
        ('solve "{model} {instance} {time_limit_ms}', None, "bad command template"),
        ("true {model} {instance} {time_limit_ms}", "env CAP={mem_limit_gb}", "bad limiter prefix"),
        ("true {model} {instance} {time_limit_ms}", "sh -c 'ulimit", "bad limiter prefix"),
    ],
    ids=["stray-brace", "open-quote", "prefix-unknown-placeholder", "prefix-open-quote"],
)
def test_malformed_template_or_prefix_is_an_error_record_not_raised(tmp_path, template, prefix, note):
    record = run_external_command(
        template, str(tmp_path / "m"), str(tmp_path / "i"), 5.0, mem_limit=1 << 30, limiter_prefix=prefix
    )
    assert record.status is Status.ERROR
    assert record.note.startswith(note)


def test_builtin_trivial_instance_sat_quickly():
    adapter = SolverAdapter(name="exact", builtin="exact")
    record = run_solver(adapter, KNAPSACK, {"weight": [1], "value": [2], "capacity": 1}, 5.0)
    assert record.status is Status.SAT
    assert record.optimal_claimed
    assert record.time < 5.0
    assert record.objective == 2


def test_external_unsat_marker(tmp_path):
    adapter = script_adapter("u", "print('=====UNSATISFIABLE=====')")
    record = run_solver(adapter, DECISION, {"weight": [1], "value": [1], "capacity": 0, "target": 5},
                        5.0, EvaluationLimits(mem_limit=None, workdir=tmp_path))
    assert record.status is Status.UNSAT
    assert record.objective is None and record.solution is None


def test_external_solution_block_parsed(tmp_path):
    body = (
        "print('take = [1, 0]'); print('objective = 7'); "
        "print('-' * 10); print('=' * 10)"
    )
    adapter = script_adapter("s", body)
    record = run_solver(adapter, KNAPSACK, {"weight": [1, 1], "value": [7, 1], "capacity": 1},
                        5.0, EvaluationLimits(mem_limit=None, workdir=tmp_path))
    assert record.status is Status.SAT
    assert record.objective == 7
    assert record.optimal_claimed
    assert record.solution == {"take": [1, 0]}
    checked = verify_record(KNAPSACK, {"weight": [1, 1], "value": [7, 1], "capacity": 1}, record)
    assert checked.solution_ok is True


def test_an_unreadable_solution_value_is_an_error_record_not_raised(tmp_path):
    adapter = script_adapter("deep", "print('take = ' + '[' * 5000 + ']' * 5000); print('-' * 10)")
    record = run_solver(adapter, KNAPSACK, {"weight": [1], "value": [1], "capacity": 1},
                        5.0, EvaluationLimits(mem_limit=None, workdir=tmp_path))
    assert record.status is Status.ERROR
    assert record.note.startswith("unparseable solution block")


def test_external_improvement_trace_timestamps(tmp_path):
    body = (
        "import time; "
        "print('take = [0, 0]'); print('objective = 0'); print('-' * 10, flush=True); "
        "time.sleep(0.2); "
        "print('take = [1, 0]'); print('objective = 7'); print('-' * 10, flush=True)"
    )
    adapter = script_adapter("t", body)
    record = run_solver(adapter, KNAPSACK, {"weight": [1, 1], "value": [7, 1], "capacity": 1},
                        5.0, EvaluationLimits(mem_limit=None, workdir=tmp_path))
    assert record.status is Status.SAT
    assert [o for _, o in record.trace] == [0, 7]
    assert record.trace[1][0] >= record.trace[0][0] + 0.15


def test_an_external_run_parses_only_the_block_it_records(tmp_path, monkeypatch):
    parsed = []

    def counted(text):
        parsed.append(text)
        return parse_values(text)

    monkeypatch.setattr(external, "parse_values", counted)
    script = 'i=0; while [ $i -lt 50 ]; do i=$((i + 1)); echo "take = [1]"; echo objective = $i; echo ----------; done'
    adapter = SolverAdapter(name="sh", command=f"sh -c '{script}' sh" + TRAIL)
    record = run_solver(adapter, KNAPSACK, {"weight": [1], "value": [1], "capacity": 1},
                        5.0, EvaluationLimits(mem_limit=None, workdir=tmp_path))
    assert record.status is Status.SAT and record.objective == 50
    assert [o for _, o in record.trace] == list(range(1, 51))
    assert parsed == ["take = [1]"]


def test_external_sleeper_killed_within_grace(tmp_path):
    adapter = script_adapter("sleeper", "import time; time.sleep(30)")
    start = time.monotonic()
    record = run_solver(adapter, KNAPSACK, {"weight": [1], "value": [1], "capacity": 1},
                        0.4, EvaluationLimits(mem_limit=None, workdir=tmp_path))
    wall = time.monotonic() - start
    assert record.status is Status.TIMEOUT
    assert record.time >= 0.4
    assert wall < 0.4 + 2.0


def test_killed_run_keeps_the_block_it_printed(tmp_path):
    body = (
        "import time; "
        "print('take = [1, 0]'); print('objective = 7'); print('-' * 10, flush=True); "
        "time.sleep(30)"
    )
    adapter = script_adapter("late", body)
    instance = {"weight": [1, 1], "value": [7, 1], "capacity": 1}
    record = run_solver(adapter, KNAPSACK, instance, 0.5, EvaluationLimits(mem_limit=None, workdir=tmp_path))
    assert record.status is Status.TIMEOUT
    assert record.time >= 0.5
    assert record.solution == {"take": [1, 0]}
    assert record.objective == 7
    assert [o for _, o in record.trace] == [7]
    assert not record.optimal_claimed
    checked = verify_record(KNAPSACK, instance, record)
    assert checked.solution_ok is True
    assert checked.objective == 7
    # Scored as a solved answer of objective 7 that claims no optimum.
    same = SolverRecord(Status.SAT, checked.time, 7, solution=checked.solution)
    assert pair_score(checked, same, KNAPSACK.kind) == (0.5, 0.5)


def running_in_group(pgid):
    """The pids of group ``pgid`` that still run. ``os.killpg(pgid, 0)`` also
    finds a killed process that its new parent has not reaped yet, a zombie,
    so each member's state is read from ``/proc``."""
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return []
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            state, _, group = stat.read_text().rpartition(")")[2].split()[:3]
        except OSError:
            continue  # it ended meanwhile
        if int(group) == pgid and state != "Z":
            pids.append(int(stat.parent.name))
    return pids


@pytest.mark.parametrize(
    "child", ["sleep 37 &", "sleep 38 >/dev/null 2>&1 &"], ids=["holding-stdout", "detached"]
)
def test_an_external_run_ends_with_its_solver_and_leaves_no_process(tmp_path, child):
    """A solver that prints its answer and exits, leaving a child behind, is
    timed to its own exit, and the child is killed with it: the child that
    holds stdout no longer adds the 2 s grace to the record's time."""
    pid_file = tmp_path / "pid"
    script = f'echo $$ > {pid_file}; {child} echo "take = [1]"; echo {"-" * 10}'
    record = run_external_command(f"sh -c '{script}' sh" + TRAIL, "m", "i", 10.0)
    pgid = int(pid_file.read_text())
    try:
        deadline = time.monotonic() + 1.0
        while running_in_group(pgid) and time.monotonic() < deadline:
            time.sleep(0.01)  # SIGKILL takes effect when each process is next scheduled
        assert running_in_group(pgid) == []
        assert record.status is Status.SAT and record.solution == {"take": [1]}
        assert record.time < 1.0
    finally:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def test_an_external_runs_time_ends_when_its_solver_exits():
    """The clock stops as the solver is reaped. Waiting by polling, with its
    backoff of up to 50 ms, recorded this 0.07 s solver at about 0.115 s."""
    times = [run_external_command("sh -c 'sleep 0.07' sh" + TRAIL, "m", "i", 5.0).time for _ in range(3)]
    assert sorted(times)[1] < 0.09, times


@pytest.mark.parametrize(
    "script, limit, ending",
    [("sleep 0.05", 5.0, "# exit=0 killed=False "), ("sleep 30", 0.3, "# exit=-9 killed=True ")],
    ids=["exited", "killed"],
)
def test_run_log_ends_with_the_solvers_cpu_seconds(tmp_path, script, limit, ending):
    run_external_command(f"sh -c '{script}' sh" + TRAIL, "m", "i", limit, log_path=tmp_path / "run.log")
    tail = (tmp_path / "run.log").read_text().splitlines()[-1]
    assert tail.startswith(ending), tail
    assert re.fullmatch(r"# exit=\S+ killed=\S+ elapsed=\d+\.\d{3} cpu=\d+\.\d{3}", tail), tail


def test_output_that_is_not_utf8_is_read_to_its_end():
    """A stray byte neither ends the reader nor loses the block before it."""
    lines = ["take = [1]", "-" * 10, r"\377", "=" * 10]
    script = "printf '" + r"\n".join(lines) + r"\n'"
    record = run_external_command(f"sh -c \"{script}\" sh" + TRAIL, "m", "i", 5.0)
    assert record.status is Status.SAT
    assert record.solution == {"take": [1]}
    assert record.optimal_claimed


def test_external_nonzero_exit_is_error(tmp_path):
    adapter = script_adapter("boom", "import sys; sys.exit(3)")
    record = run_solver(adapter, KNAPSACK, {"weight": [1], "value": [1], "capacity": 1},
                        5.0, EvaluationLimits(mem_limit=None, workdir=tmp_path))
    assert record.status is Status.ERROR


def test_external_garbage_output_is_error(tmp_path):
    adapter = script_adapter("noise", "print('hello world')")
    record = run_solver(adapter, KNAPSACK, {"weight": [1], "value": [1], "capacity": 1},
                        5.0, EvaluationLimits(mem_limit=None, workdir=tmp_path))
    assert record.status is Status.ERROR


def test_external_run_that_prints_nothing_is_an_error_record(tmp_path):
    adapter = script_adapter("silent", "pass")
    record = run_solver(adapter, KNAPSACK, {"weight": [1], "value": [1], "capacity": 1},
                        5.0, EvaluationLimits(mem_limit=None, workdir=tmp_path))
    assert record.status is Status.ERROR
    assert record.note == "no parseable solver output"
    assert record.trace == []


def test_time_includes_process_startup(tmp_path):
    body = "print('take = [0]'); print('objective = 0'); print('-' * 10)"
    adapter = script_adapter("slowstart", body)
    record = run_solver(adapter, KNAPSACK, {"weight": [1], "value": [1], "capacity": 1},
                        5.0, EvaluationLimits(mem_limit=None, workdir=tmp_path))
    assert record.time > 0.0  # interpreter startup counts, per the total-time rule


def test_oracle_proves_optimum_against_enumeration():
    instance = {"weight": [2, 3, 4], "value": [3, 4, 6], "capacity": 6}
    oracle = SolverAdapter(name="exact", builtin="exact")
    result = oracle_optimum(KNAPSACK, instance, oracle, budget=10.0)
    assert result.proved and not result.infeasible
    # Exhaustive oracle: all 8 subsets by hand -> best value 9 (items 1 and 3).
    assert result.optimum == 9


def test_the_oracles_time_is_its_runs_own_time():
    oracle = SolverAdapter(name="latency", builtin="synthetic:capacity / 10")
    result = oracle_optimum(KNAPSACK, {"weight": [1], "value": [1], "capacity": 5}, oracle, budget=10.0)
    assert result.proved and result.optimum == 0
    assert result.time == 0.5


def test_oracle_zero_budget_not_proved():
    oracle = SolverAdapter(name="exact", builtin="exact")
    result = oracle_optimum(KNAPSACK, {"weight": [1], "value": [1], "capacity": 1}, oracle, 0.0)
    assert not result.proved


def test_oracle_marks_infeasible_instances():
    oracle = SolverAdapter(name="exact", builtin="exact")
    instance = {"weight": [1], "value": [1], "capacity": 1, "target": 10}
    result = oracle_optimum(DECISION, instance, oracle, budget=10.0)
    assert result.proved and result.infeasible and result.optimum is None


def test_run_without_a_workdir_leaves_no_run_directory(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    body = "print('take = [0]'); print('objective = 0'); print('-' * 10)"
    record = run_solver(script_adapter("s", body), KNAPSACK, {"weight": [1], "value": [1], "capacity": 1},
                        5.0)
    assert record.status is Status.SAT
    assert list(tmp_path.iterdir()) == []


def test_oracle_without_a_workdir_leaves_no_run_directory(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    oracle = script_adapter("o", "print('=====UNSATISFIABLE=====')")
    result = oracle_optimum(KNAPSACK, {"weight": [1], "value": [1], "capacity": 1}, oracle, budget=5.0)
    assert result.infeasible
    assert list(tmp_path.iterdir()) == []


def test_unmakeable_run_directory_is_an_error_record(tmp_path):
    not_a_dir = tmp_path / "taken"
    not_a_dir.write_text("")
    body = "print('take = [0]'); print('objective = 0'); print('-' * 10)"
    record = run_solver(script_adapter("s", body), KNAPSACK, {"weight": [1], "value": [1], "capacity": 1},
                        5.0, EvaluationLimits(mem_limit=None, workdir=not_a_dir))
    assert record.status is Status.ERROR
    assert record.note.startswith("run directory:") and str(not_a_dir) in record.note


def test_measure_time_to_best():
    # A local-search run's time is its first trace stamp at the proven optimum.
    proved = OracleResult(optimum=7, proved=True, time=1.0)

    def time_to_best(trace, oracle=proved):
        run = SolverRecord(Status.SAT, 100.0, objective=7, trace=trace, solution={"take": [1]}, solution_ok=True)
        return effective_graded_record(run, oracle).time_to_best

    assert time_to_best([(1.0, 10), (4.0, 7), (9.0, 7)]) == 4.0
    assert time_to_best([(1.0, 10)]) is None
    assert time_to_best([]) is None
    assert time_to_best([(1.0, 10)], OracleResult(optimum=None, proved=False, time=1.0)) is None


def make_record(status, t, solution_ok=None, solution=None):
    return SolverRecord(status, t, solution=solution, solution_ok=solution_ok)


def graded(t_min=10.0, types=frozenset({"SAT", "UNSAT"})):
    return GradedPolicy(
        problem=KNAPSACK, solver=SolverAdapter(name="one", builtin="synthetic:1"),
        t_min=t_min, t_max=1200.0, types=types,
    )


def test_classify_generator_failures():
    # A generator that yields no instance is unsolved under either policy,
    # discarded when infeasible or untranslatable, and scored 1 on a search timeout.
    discriminating = DiscriminatingPolicy(
        problem=KNAPSACK, favoured=SolverAdapter(name="f", builtin="synthetic:1"),
        base=SolverAdapter(name="b", builtin="synthetic:2"), t_min=10.0, t_max=1200.0,
    )
    for outcome, penalty in (
        (GenOutcome.UNSAT, PLUS_INFINITY),
        (GenOutcome.TRANSLATE_TIMEOUT, PLUS_INFINITY),
        (GenOutcome.SOLVE_TIMEOUT, 1.0),
    ):
        for policy in (graded(), discriminating):
            result = evaluate_generator(outcome, policy)
            assert result.status is RunStatus.GENERATOR_UNSOLVED, (outcome, policy)
            assert result.penalty == penalty, (outcome, policy)
            assert result.instance is None and result.records == {}


def test_classify_graded_bands():
    assert graded().classify(make_record(Status.SAT, 3.0)) is RunStatus.TOO_EASY_SAT
    assert graded().classify(make_record(Status.UNSAT, 3.0)) is RunStatus.TOO_EASY_UNSAT
    assert graded().classify(make_record(Status.SAT, 120.0)) is RunStatus.GRADED
    assert graded().classify(make_record(Status.TIMEOUT, 1200.0)) is RunStatus.TOO_DIFFICULT
    assert graded().classify(make_record(Status.ERROR, 1.0)) is RunStatus.OTHERS
    mismatch = make_record(Status.SAT, 120.0, solution_ok=False)
    assert graded().classify(mismatch) is RunStatus.OTHERS


def test_classification_partitions_fuzzed_runs():
    # Every (outcome, record) combination lands in exactly one status.
    statuses = set()
    records = [
        make_record(Status.SAT, 1.0),
        make_record(Status.SAT, 50.0),
        make_record(Status.UNSAT, 1.0),
        make_record(Status.UNSAT, 50.0),
        make_record(Status.TIMEOUT, 100.0),
        make_record(Status.ERROR, 0.1),
        make_record(Status.SAT, 50.0, solution_ok=False),
    ]
    for types in (frozenset({"SAT"}), frozenset({"SAT", "UNSAT"})):
        policy = graded(types=types)
        for outcome in (GenOutcome.UNSAT, GenOutcome.SOLVE_TIMEOUT):
            statuses.add(evaluate_generator(outcome, policy).status)
        for record in records:
            status = policy.classify(record)
            assert isinstance(status, RunStatus)
            statuses.add(status)
    graded_statuses = {
        RunStatus.GENERATOR_UNSOLVED, RunStatus.GRADED, RunStatus.TOO_DIFFICULT,
        RunStatus.TOO_EASY_SAT, RunStatus.TOO_EASY_UNSAT, RunStatus.OTHERS,
    }
    assert statuses == graded_statuses


def test_limiter_prefix_wraps_command(tmp_path):
    # "env VAR=..." as a stand-in external limiter; the command still runs.
    body = "import os; print('take = [0]'); print('objective = 0'); print('-' * 10)"
    adapter = SolverAdapter(name="wrapped", command=f'{PY} -c "{body}"' + TRAIL)
    record = run_solver(
        adapter, KNAPSACK, {"weight": [1], "value": [1], "capacity": 1},
        5.0, EvaluationLimits(
            mem_limit=256 * 1024 * 1024, workdir=tmp_path,
            limiter_prefix="env BENCH_CAP_MB={mem_limit_mb}",
        ),
    )
    assert record.status is Status.SAT


def cap_reporting_adapter(tmp_path):
    script = tmp_path / "cap.sh"
    script.write_text(
        'echo "% cap $(ulimit -v)"\n'
        "echo 'take = [0]'; echo 'objective = 0'; echo ----------\n"
    )
    return SolverAdapter(name="cap", command=f"sh {script}" + TRAIL)


def test_default_memory_cap_reaches_the_command(tmp_path):
    mem_limit = 512 * 1024 * 1024
    record = run_solver(
        cap_reporting_adapter(tmp_path), KNAPSACK, {"weight": [1], "value": [1], "capacity": 1},
        5.0, EvaluationLimits(mem_limit=mem_limit, workdir=tmp_path / "runs"),
    )
    assert record.status is Status.SAT
    (log,) = (tmp_path / "runs").glob("run_*/run.log")
    assert f"% cap {mem_limit // 1024}\n" in log.read_text()


def test_refused_memory_cap_still_runs_the_command(tmp_path):
    # Under a hard limit of 4 GB, an 8 GB cap is refused; the run goes on.
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))\n"
        "from benchgen.problems import get_problem\n"
        "from benchgen.runner import EvaluationLimits, SolverAdapter, run_solver\n"
        f"adapter = SolverAdapter(name='cap', command={cap_reporting_adapter(tmp_path).command!r})\n"
        "record = run_solver(adapter, get_problem('knapsack'),\n"
        "                    {'weight': [1], 'value': [1], 'capacity': 1}, 5.0,\n"
        f"                    EvaluationLimits(workdir={str(tmp_path / 'runs')!r}, mem_limit=8 << 30))\n"
        "print(record.status.value)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(benchgen.__file__).parents[1])}
    done = subprocess.run([PY, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert done.stdout.split() == ["sat"], done.stderr
    (log,) = (tmp_path / "runs").glob("run_*/run.log")
    assert f"% cap {4 << 20}\n" in log.read_text()


def test_zero_time_limit_yields_timeout_record():
    adapter = SolverAdapter(name="exact", builtin="exact")
    record = run_solver(adapter, KNAPSACK, {"weight": [1], "value": [1], "capacity": 1}, 0.0)
    assert record.status is Status.TIMEOUT


def test_run_log_written_per_external_run(tmp_path):
    body = "print('take = [0]'); print('objective = 0'); print('-' * 10)"
    adapter = script_adapter("logged", body)
    run_solver(adapter, KNAPSACK, {"weight": [1], "value": [1], "capacity": 1},
               5.0, EvaluationLimits(mem_limit=None, workdir=tmp_path))
    logs = list(tmp_path.glob("run_*/run.log"))
    assert len(logs) == 1
    assert "objective = 0" in logs[0].read_text()


def test_external_oracle_runs_in_the_given_workdir(tmp_path):
    oracle = script_adapter("o", "print('=====UNSATISFIABLE=====')")
    instance = {"weight": [1], "value": [1], "capacity": 1}
    result = oracle_optimum(
        KNAPSACK, instance, oracle, budget=5.0, limits=EvaluationLimits(mem_limit=None, workdir=tmp_path)
    )
    assert result.infeasible
    assert len(list(tmp_path.glob("run_*"))) == 1
