"""Cross-module behaviours: concurrency, UNSAT regions, archival of infinity."""

import json
import math
import threading

import pytest

from benchgen import campaign
from benchgen.campaign import graded_instance_ids, run_campaign
from benchgen.evaluate import EvaluationLimits, GradedPolicy
from benchgen.problems import get_problem
from benchgen.report import status_frequencies, time_distribution
from benchgen.runner import SolverAdapter, Status, run_solver
from benchgen.tuner import TunerConfig

KNAPSACK = get_problem("knapsack")
FAST_LIMITS = EvaluationLimits(translate_limit=5.0, solve_limit=5.0, mem_limit=None)
SPACE_TEXT = "cap_t: 1..50"
MODEL_TEXT = (
    "var capacity : int 1..50\n"
    "var weight[2] : int 1..9\n"
    "var value[2] : int 1..9\n"
    "constraint capacity = cap_t\n"
)
HALF_UNSAT_MODEL = MODEL_TEXT + "constraint capacity <= 25\n"


def banded_policy():
    return GradedPolicy(
        problem=KNAPSACK,
        solver=SolverAdapter(name="band", builtin="synthetic:capacity / 10"),
        t_min=2.0,
        t_max=5.0,
    )


def test_worker_pool_matches_single_threaded_run(tmp_path):
    def run(out, workers):
        return run_campaign(
            out, SPACE_TEXT, MODEL_TEXT, banded_policy(),
            TunerConfig(total_budget=42, first_race_size=6, seed=8, workers=workers),
            FAST_LIMITS,
        )

    serial = run(tmp_path / "serial", 1)
    threaded = run(tmp_path / "threaded", 3)
    assert serial.archive.log_text() == threaded.archive.log_text()
    assert graded_instance_ids(serial.archive) == graded_instance_ids(threaded.archive)
    evals = "records/evals.jsonl"
    assert (tmp_path / "serial" / evals).read_bytes() == (tmp_path / "threaded" / evals).read_bytes()


def test_external_solver_campaign_runs_on_the_pool(tmp_path, monkeypatch):
    script = tmp_path / "solver.sh"
    script.write_text("printf 'take = [0, 0]\\nobjective = 0\\n----------\\n'\n")
    policy = GradedPolicy(
        problem=KNAPSACK,
        solver=SolverAdapter(name="empty", command=f"sh {script} {{model}} {{instance}} {{time_limit_ms}}"),
        # Far below and above any process start-up, so no status depends on overlap.
        t_min=0.0001,
        t_max=60.0,
    )
    on_main_thread = []
    evaluate = campaign.evaluate_configuration

    def recording(*args, **kwargs):
        on_main_thread.append(threading.current_thread() is threading.main_thread())
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(campaign, "evaluate_configuration", recording)

    def run(out, workers):
        on_main_thread.clear()
        run_campaign(
            out, SPACE_TEXT, MODEL_TEXT, policy,
            TunerConfig(total_budget=24, first_race_size=6, seed=8, workers=workers),
            FAST_LIMITS,
        )
        return set(on_main_thread)

    assert run(tmp_path / "serial", 1) == {True}
    assert run(tmp_path / "pooled", 2) == {False}
    log = (tmp_path / "serial" / "tuner.log").read_text()
    assert "status=graded" in log
    assert (tmp_path / "pooled" / "tuner.log").read_text() == log


def test_half_unsat_generator_region(tmp_path):
    # Constraint capacity <= 25 makes half of cap_t in 1..50 infeasible. A
    # single uniform block (race size = budget) sees ~50% generator-unsolved.
    result = run_campaign(
        tmp_path / "camp", SPACE_TEXT, HALF_UNSAT_MODEL, banded_policy(),
        TunerConfig(total_budget=60, first_race_size=60, seed=21),
        FAST_LIMITS,
    )
    table = status_frequencies(result.archive)
    count, fraction = table["generator-unsolved"]
    assert abs(fraction - 0.5) <= 0.1, f"generator-unsolved fraction {fraction}"


def test_infinite_penalty_roundtrips_through_archive(tmp_path):
    result = run_campaign(
        tmp_path / "camp", SPACE_TEXT, HALF_UNSAT_MODEL, banded_policy(),
        TunerConfig(total_budget=30, first_race_size=6, seed=2),
        FAST_LIMITS,
    )
    entries = list(result.archive.evaluations())
    infinities = [e for e in entries if isinstance(e["penalty"], float) and math.isinf(e["penalty"])]
    assert infinities, "expected some infeasible configurations"
    for entry in infinities:
        assert entry["status"] == "generator-unsolved"
        assert entry["instance_id"] is None
    # Resuming replays the infinities faithfully.
    resumed = run_campaign(
        tmp_path / "camp", SPACE_TEXT, HALF_UNSAT_MODEL, banded_policy(),
        TunerConfig(total_budget=30, first_race_size=6, seed=2),
        FAST_LIMITS,
        resume=True,
    )
    assert resumed.archive.log_text() == result.archive.log_text()


def test_graded_times_match_programmed_latency(tmp_path):
    result = run_campaign(
        tmp_path / "camp", SPACE_TEXT, MODEL_TEXT, banded_policy(),
        TunerConfig(total_budget=60, first_race_size=6, seed=14),
        FAST_LIMITS,
    )
    summary = time_distribution(result.archive).get("band")
    assert summary is not None and summary.times
    graded = graded_instance_ids(result.archive)
    expected = sorted(result.archive.instance_values(iid)["capacity"] / 10 for iid in graded)
    assert sorted(summary.times) == pytest.approx(expected)


def test_default_race_size_scales_with_budget():
    assert TunerConfig(total_budget=2000).race_size == 50
    assert TunerConfig(total_budget=100).race_size == 6
    assert TunerConfig(total_budget=2000, first_race_size=12).race_size == 12


def test_external_memory_limit_kills_process(tmp_path):
    import sys

    body = "x = bytearray(512 * 1024 * 1024); print(len(x))"
    template = f'{sys.executable} -c "{body}"' + " {model} {instance} {time_limit_ms}"
    adapter = SolverAdapter(name="hog", command=template)
    record = run_solver(
        adapter, KNAPSACK, {"weight": [1], "value": [1], "capacity": 1},
        time_limit=10.0, limits=EvaluationLimits(mem_limit=64 * 1024 * 1024, workdir=tmp_path),
    )
    assert record.status is Status.ERROR


def test_oracle_graded_campaign_with_local_search(tmp_path):
    # Hill climber needs the exact solver as oracle; band in time-to-best.
    policy = GradedPolicy(
        problem=KNAPSACK,
        solver=SolverAdapter(name="hc", builtin="hillclimb", kind="local_search"),
        oracle=SolverAdapter(name="oracle", builtin="exact"),
        t_min=1e-7,
        t_max=0.3,
    )
    result = run_campaign(
        tmp_path / "camp", SPACE_TEXT, MODEL_TEXT, policy,
        TunerConfig(total_budget=6, first_race_size=6, seed=1),
        FAST_LIMITS,
    )
    assert result.report.evaluations_used == 6
    entries = list(result.archive.evaluations())
    assert all("oracle" in e for e in entries if e["records"])
    for entry in entries:
        if entry["status"] == "graded":
            record = entry["records"]["hc"]
            assert record["time_to_best"] is not None
            assert record["time_to_best"] == record["time"]
            assert record["objective"] == entry["oracle"]["optimum"]


def test_oversized_model_is_translate_failure():
    from benchgen.gensolve import GenOutcome, SolutionHistory, solve_generator
    from benchgen.model import parse_model
    from benchgen.space import make_configuration, parse_space

    space = parse_space("n: 1..1000000000")
    model = parse_model(space, "var huge[n] : int 1..1000000")
    config = make_configuration(space, {"n": 999999999})
    result = solve_generator(model, config, SolutionHistory(), 5.0, 5.0)
    assert result.outcome is GenOutcome.TRANSLATE_TIMEOUT


def test_external_runs_leave_logs_in_campaign_dir(tmp_path):
    import sys

    body = "print('take = [0, 0]'); print('objective = 0'); print('-' * 10)"
    template = f'{sys.executable} -c "{body}"' + " {model} {instance} {time_limit_ms}"
    policy = GradedPolicy(
        problem=KNAPSACK,
        solver=SolverAdapter(name="ext", command=template),
        t_min=0.0001,
        t_max=5.0,
    )
    result = run_campaign(
        tmp_path / "camp", SPACE_TEXT, MODEL_TEXT, policy,
        TunerConfig(total_budget=6, first_race_size=6, seed=3),
        EvaluationLimits(translate_limit=5.0, solve_limit=5.0, mem_limit=None),
    )
    runs = list((tmp_path / "camp" / "runs").glob("run_*/run.log"))
    assert len(runs) == result.report.evaluations_used
    content = runs[0].read_text()
    assert "take = [0, 0]" in content and "exit=0" in content


def test_combined_evaluation_time_summaries(tmp_path):
    result = run_campaign(
        tmp_path / "camp", SPACE_TEXT, MODEL_TEXT, banded_policy(),
        TunerConfig(total_budget=40, first_race_size=6, seed=19), FAST_LIMITS,
    )
    from benchgen.report import build_combined_set, evaluate_combined

    combined = build_combined_set([result.archive], k=4, seed=0)
    solvers = [
        SolverAdapter(name="three", builtin="synthetic:3"),
        SolverAdapter(name="one", builtin="synthetic:1"),
    ]
    outcome = evaluate_combined(combined, solvers, KNAPSACK, t_max=30.0, limits=FAST_LIMITS)
    summaries = outcome.time_summaries()
    n = len(combined.all_instance_ids())
    assert summaries["three"].times == [3.0] * n
    assert summaries["one"].times == [1.0] * n
