"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they pass. Time budgets are asserted inside the tests.
"""

import sys
import time
from random import Random

import pytest
from scipy import stats

from benchgen.archive import graded_instance_ids
from benchgen.campaign import run_campaign
from benchgen.evaluate import (
    LARGE_NEGATIVE,
    PLUS_INFINITY,
    DiscriminatingPolicy,
    EvaluationLimits,
    GradedPolicy,
    effective_graded_record,
    evaluate_configuration,
    oracle_optimum,
    status_penalty,
)
from benchgen.gensolve import GenOutcome, SolutionHistory
from benchgen.model import parse_model
from benchgen.problems import get_problem
from benchgen.report import build_combined_set, evaluate_combined
from benchgen.runner import (
    RunStatus,
    SolverAdapter,
    SolverRecord,
    Status,
    run_solver,
    verify_record,
)
from benchgen.scoring import borda_complete, pair_score
from benchgen.space import parse_space
from benchgen.tuner import TunerConfig, friedman_eliminate

from conftest import (
    comparable_from_record,
    decision_values,
    evaluate_generator,
    exclusion_key,
    make_configuration,
    naive_borda_totals,
    penalty_of,
    scoring_record,
    tuner_log,
)
from test_tuner import reference_statistic

KNAPSACK = get_problem("knapsack")
FAST_LIMITS = EvaluationLimits(translate_limit=5.0, solve_limit=5.0, mem_limit=None)


def ok(name):
    print(f"ACCEPTANCE {name}: PASS")


# -- criterion 1: algorithm truth tables -------------------------------------


def sat_record(t):
    return SolverRecord(Status.SAT, t, objective=0, solution={"take": [0]}, solution_ok=True)


def unsat_record(t):
    return SolverRecord(Status.UNSAT, t)


def timeout_record(t):
    return SolverRecord(Status.TIMEOUT, t)


BOTH = frozenset({"SAT", "UNSAT"})
SAT_ONLY = frozenset({"SAT"})
UNSAT_ONLY = frozenset({"UNSAT"})


def test_acceptance_algorithm_truth_tables():
    start = time.monotonic()
    checked = 0

    # Generator-outcome penalties: infeasible/untranslatable discard, search timeout scores 1.
    in_band = GradedPolicy(
        problem=KNAPSACK, solver=SolverAdapter(name="s", builtin="synthetic:20"),
        t_min=10.0, t_max=100.0,
    )
    for outcome, expected in [
        (GenOutcome.UNSAT, PLUS_INFINITY),
        (GenOutcome.TRANSLATE_TIMEOUT, PLUS_INFINITY),
        (GenOutcome.SOLVE_TIMEOUT, 1.0),
        (GenOutcome.SOLUTION, None),
    ]:
        result = evaluate_generator(outcome, in_band)
        if expected is None:
            # A solution owes nothing for the generator: the policy's verdict decides.
            assert result.status is RunStatus.GRADED
            assert result.penalty == status_penalty(result.status, outcome=outcome) == -1.0
        else:
            assert status_penalty(RunStatus.GENERATOR_UNSOLVED, outcome=outcome) == expected
            assert result.status is RunStatus.GENERATOR_UNSOLVED
            assert result.penalty == expected
        checked += 1

    # Gradedness gates, t_min=10, t_max=100.
    graded_table = [
        (sat_record(3.0), SAT_ONLY, 0.0, RunStatus.TOO_EASY_SAT),
        (sat_record(3.0), UNSAT_ONLY, 0.0, RunStatus.TOO_EASY_SAT),
        (sat_record(3.0), BOTH, 0.0, RunStatus.TOO_EASY_SAT),
        (sat_record(50.0), SAT_ONLY, -1.0, RunStatus.GRADED),
        (sat_record(50.0), UNSAT_ONLY, 0.0, RunStatus.OTHERS),
        (sat_record(50.0), BOTH, -1.0, RunStatus.GRADED),
        (unsat_record(3.0), SAT_ONLY, 0.0, RunStatus.TOO_EASY_UNSAT),
        (unsat_record(3.0), UNSAT_ONLY, 0.0, RunStatus.TOO_EASY_UNSAT),
        (unsat_record(3.0), BOTH, 0.0, RunStatus.TOO_EASY_UNSAT),
        (unsat_record(50.0), SAT_ONLY, 0.0, RunStatus.OTHERS),
        (unsat_record(50.0), UNSAT_ONLY, -1.0, RunStatus.GRADED),
        (unsat_record(50.0), BOTH, -1.0, RunStatus.GRADED),
        (timeout_record(100.0), SAT_ONLY, 0.0, RunStatus.TOO_DIFFICULT),
        (timeout_record(100.0), UNSAT_ONLY, 0.0, RunStatus.TOO_DIFFICULT),
        (timeout_record(100.0), BOTH, 0.0, RunStatus.TOO_DIFFICULT),
    ]
    for record, types, expected_penalty, expected_status in graded_table:
        policy = GradedPolicy(
            problem=KNAPSACK,
            solver=SolverAdapter(name="s", builtin="exact"),
            t_min=10.0,
            t_max=100.0,
            types=types,
        )
        assert penalty_of(policy, record) == expected_penalty
        status = policy.classify(record)
        assert status is expected_status, (record.status, types)
        checked += 1

    # Discrimination gates and ratios, t_min=10 on base, t_max=100.
    SENT = LARGE_NEGATIVE
    dis_table = [
        # favoured, base, types, expected penalty, expected status
        (sat_record(10.0), sat_record(4.0), BOTH, 0.0, RunStatus.BASE_TOO_EASY),
        (sat_record(10.0), sat_record(30.0), BOTH, -3.0, RunStatus.DIS_FOUND),
        (sat_record(10.0), timeout_record(100.0), BOTH, SENT, RunStatus.DIS_FOUND),
        (timeout_record(100.0), sat_record(4.0), BOTH, 0.0, RunStatus.FAVOURED_TIMEOUT),
        (timeout_record(100.0), sat_record(30.0), BOTH, 0.0, RunStatus.FAVOURED_TIMEOUT),
        (timeout_record(100.0), timeout_record(100.0), BOTH, 0.0, RunStatus.FAVOURED_TIMEOUT),
        (unsat_record(20.0), unsat_record(4.0), BOTH, 0.0, RunStatus.BASE_TOO_EASY),
        (unsat_record(20.0), unsat_record(30.0), BOTH, -1.5, RunStatus.DIS_FOUND),
        (unsat_record(20.0), timeout_record(100.0), BOTH, SENT, RunStatus.DIS_FOUND),
        (sat_record(10.0), sat_record(4.0), SAT_ONLY, 0.0, RunStatus.BASE_TOO_EASY),
        (sat_record(10.0), sat_record(30.0), SAT_ONLY, -3.0, RunStatus.DIS_FOUND),
        (sat_record(10.0), timeout_record(100.0), SAT_ONLY, SENT, RunStatus.DIS_FOUND),
        (timeout_record(100.0), sat_record(4.0), SAT_ONLY, 0.0, RunStatus.FAVOURED_TIMEOUT),
        (timeout_record(100.0), sat_record(30.0), SAT_ONLY, 0.0, RunStatus.FAVOURED_TIMEOUT),
        (timeout_record(100.0), timeout_record(100.0), SAT_ONLY, 0.0, RunStatus.FAVOURED_TIMEOUT),
        (unsat_record(20.0), unsat_record(4.0), SAT_ONLY, 0.0, RunStatus.WRONG_TYPE),
        (unsat_record(20.0), unsat_record(30.0), SAT_ONLY, 0.0, RunStatus.WRONG_TYPE),
        (unsat_record(20.0), timeout_record(100.0), SAT_ONLY, 0.0, RunStatus.WRONG_TYPE),
        (sat_record(10.0), sat_record(4.0), UNSAT_ONLY, 0.0, RunStatus.WRONG_TYPE),
        (sat_record(10.0), sat_record(30.0), UNSAT_ONLY, 0.0, RunStatus.WRONG_TYPE),
        (sat_record(10.0), timeout_record(100.0), UNSAT_ONLY, 0.0, RunStatus.WRONG_TYPE),
        (timeout_record(100.0), sat_record(4.0), UNSAT_ONLY, 0.0, RunStatus.FAVOURED_TIMEOUT),
        (timeout_record(100.0), sat_record(30.0), UNSAT_ONLY, 0.0, RunStatus.FAVOURED_TIMEOUT),
        (timeout_record(100.0), timeout_record(100.0), UNSAT_ONLY, 0.0, RunStatus.FAVOURED_TIMEOUT),
        (unsat_record(20.0), unsat_record(4.0), UNSAT_ONLY, 0.0, RunStatus.BASE_TOO_EASY),
        (unsat_record(20.0), unsat_record(30.0), UNSAT_ONLY, -1.5, RunStatus.DIS_FOUND),
        (unsat_record(20.0), timeout_record(100.0), UNSAT_ONLY, SENT, RunStatus.DIS_FOUND),
    ]
    for favoured, base, types, expected_penalty, expected_status in dis_table:
        policy = DiscriminatingPolicy(
            problem=KNAPSACK,
            favoured=SolverAdapter(name="f", builtin="exact"),
            base=SolverAdapter(name="b", builtin="hillclimb", kind="local_search"),
            t_min=10.0,
            t_max=100.0,
            types=types,
        )
        penalty = penalty_of(policy, favoured, base)
        assert penalty == pytest.approx(expected_penalty, abs=1e-12), (
            favoured.status, base.status, types,
        )
        status = policy.classify(favoured, base, pair_score(favoured, base, KNAPSACK.kind))
        assert status is expected_status, (favoured.status, base.status, types)
        checked += 1

    elapsed = time.monotonic() - start
    assert checked >= 40, checked
    assert elapsed < 1.0, f"truth tables took {elapsed:.2f}s"
    ok(f"algorithm truth tables ({checked} cases, {elapsed:.2f}s)")


# -- criterion 2: scoring oracle ----------------------------------------------


def test_acceptance_scoring_oracle():
    start = time.monotonic()
    rng = Random(777)

    def random_record(kind):
        solved = rng.random() < 0.7
        optimal = solved and rng.random() < 0.4
        quality = rng.randint(0, 15) if (kind != "decision" and solved and rng.random() < 0.9) else None
        return scoring_record(solved, optimal, quality, rng.choice([0.0, rng.uniform(0.1, 60.0)]))

    for trial in range(1000):
        kind = ("decision", "minimise", "maximise")[trial % 3]
        solvers = [f"s{i}" for i in range(rng.randint(3, 5))]
        instances = [f"i{i}" for i in range(rng.randint(5, 20))]
        records = {(s, i): random_record(kind) for s in solvers for i in instances}
        table, _ = borda_complete(records, kind, solvers, instances)
        comparables = {key: comparable_from_record(record, kind) for key, record in records.items()}
        reference = naive_borda_totals(comparables, solvers, instances)
        for s in solvers:
            assert abs(table.totals[s] - reference[s]) <= 1e-12
        a, b = records[(solvers[0], instances[0])], records[(solvers[1], instances[0])]
        pair = pair_score(a, b, kind)
        swap = pair_score(b, a, kind)
        assert abs(pair[0] - swap[1]) <= 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"scoring oracle took {elapsed:.2f}s"
    ok(f"scoring oracle (1000 record sets, {elapsed:.2f}s)")


# -- criterion 3: Friedman correctness ----------------------------------------


def test_acceptance_friedman_correctness():
    rng = Random(2718)
    for _ in range(200):
        n, k = rng.randint(2, 15), rng.randint(3, 6)
        tie_prone = rng.random() < 0.3
        matrix = [
            [float(rng.randint(0, 3)) if tie_prone else rng.uniform(-10, 10) for _ in range(k)]
            for _ in range(n)
        ]
        result = friedman_eliminate(matrix)
        assert abs(result.statistic - reference_statistic(matrix)) <= 1e-9
        columns = [[matrix[i][j] for i in range(n)] for j in range(k)]
        try:
            scipy_stat, _ = stats.friedmanchisquare(*columns)
        except ZeroDivisionError:
            continue
        assert abs(result.statistic - float(scipy_stat)) <= 1e-9

    for _ in range(200):
        n, k = rng.randint(3, 10), rng.randint(3, 5)
        matrix = [[rng.uniform(-5, 5) for _ in range(k)] for _ in range(n)]
        base = friedman_eliminate(matrix)
        transformed = [
            [row_offset + row_scale * (v**3 + v) for v in row]
            for row, row_offset, row_scale in (
                (row, rng.uniform(-9, 9), rng.uniform(0.05, 7.0)) for row in matrix
            )
        ]
        after = friedman_eliminate(transformed)
        assert abs(after.statistic - base.statistic) <= 1e-9
        assert after.eliminated == base.eliminated
    ok("Friedman correctness (200 reference + 200 rank-invariance cases)")


# -- criterion 4: generator exhaustion -----------------------------------------


def test_acceptance_generator_exhaustion():
    start = time.monotonic()
    space = parse_space("n: 1..1")
    model = parse_model(space, "var x : int 1..6\nvar y : int 1..8")
    total = 48  # |dom x| * |dom y|, brute force
    config = make_configuration(space, {"n": 1})
    policy = GradedPolicy(
        problem=KNAPSACK,
        solver=SolverAdapter(name="syn", builtin="synthetic:1"),
        t_min=0.5,
        t_max=2.0,
    )
    history = SolutionHistory()
    seen = set()
    for _ in range(total):
        result = evaluate_configuration(model, config, history, policy, FAST_LIMITS)
        assert result.instance is not None
        seen.add(exclusion_key(decision_values(result.instance, config)))
    assert len(seen) == total
    final = evaluate_configuration(model, config, history, policy, FAST_LIMITS)
    assert final.penalty == PLUS_INFINITY
    assert final.generator_outcome is GenOutcome.UNSAT
    assert final.status is RunStatus.GENERATOR_UNSOLVED
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"exhaustion took {elapsed:.2f}s"
    ok(f"generator exhaustion ({total} solutions then UNSAT, {elapsed:.2f}s)")


# -- criteria 5 and 6: closed-loop campaigns ------------------------------------


SPACE_TEXT = "cap_t: 1..100"
MODEL_TEXT = (
    "var capacity : int 1..100\n"
    "var weight[2] : int 1..9\n"
    "var value[2] : int 1..9\n"
    "constraint capacity = cap_t\n"
)


def test_acceptance_closed_loop_graded(tmp_path):
    start = time.monotonic()
    # Latency capacity/10 seconds; band [2, 5] seconds <=> capacity in [20, 50].
    policy = GradedPolicy(
        problem=KNAPSACK,
        solver=SolverAdapter(name="band", builtin="synthetic:capacity / 10"),
        t_min=2.0,
        t_max=5.0,
    )

    def campaign(out):
        return run_campaign(
            out, SPACE_TEXT, MODEL_TEXT, policy,
            TunerConfig(total_budget=300, seed=37), FAST_LIMITS,
        )

    result = campaign(tmp_path / "a")
    assert result.report.evaluations_used <= 300
    graded_ids = graded_instance_ids(result.archive)
    assert len(graded_ids) >= 20, f"only {len(graded_ids)} graded instances"
    in_band = 0
    for iid in graded_ids:
        capacity = result.archive.instance_values(iid)["capacity"]
        if 20 <= capacity <= 50:
            in_band += 1
    assert in_band / len(graded_ids) >= 0.9
    second = campaign(tmp_path / "b")
    assert tuner_log(second.archive) == tuner_log(result.archive)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"graded campaign took {elapsed:.1f}s"
    ok(
        f"closed-loop graded campaign ({len(graded_ids)} graded, "
        f"{in_band}/{len(graded_ids)} in band, {elapsed:.1f}s)"
    )


def test_acceptance_closed_loop_discriminating(tmp_path):
    start = time.monotonic()
    # Latencies cross at capacity 50 (5.0 s each); t_min=5 keeps only the
    # side where the base solver is slow, so every discriminating instance
    # must sit on the correct side of the crossing.
    rising = "capacity / 10"
    falling = "(100 - capacity) / 10"

    def direction(out, favoured_expr, base_expr, predicate):
        policy = DiscriminatingPolicy(
            problem=KNAPSACK,
            favoured=SolverAdapter(name="fav", builtin=f"synthetic:{favoured_expr}"),
            base=SolverAdapter(name="base", builtin=f"synthetic:{base_expr}"),
            t_min=5.0,
            t_max=12.0,
        )
        result = run_campaign(
            out, SPACE_TEXT, MODEL_TEXT, policy,
            TunerConfig(total_budget=300, seed=53), FAST_LIMITS,
        )
        found = [e for e in result.archive.evaluations() if e.status is RunStatus.DIS_FOUND]
        assert len(found) >= 10, f"only {len(found)} discriminating instances"
        for entry in found:
            capacity = result.archive.instance_values(entry.instance_id)["capacity"]
            assert predicate(capacity), f"capacity {capacity} on the wrong side"
        return len(found)

    high = direction(tmp_path / "favour_falling", falling, rising, lambda c: c >= 50)
    low = direction(tmp_path / "favour_rising", rising, falling, lambda c: c <= 50)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"discriminating campaigns took {elapsed:.1f}s"
    ok(f"closed-loop discriminating campaigns ({high} and {low} instances, {elapsed:.1f}s)")


# -- criterion 7: local-search gradedness path ----------------------------------


def test_acceptance_local_search_gradedness():
    rng = Random(1234)
    oracle_adapter = SolverAdapter(name="oracle", builtin="exact")
    hill = SolverAdapter(name="hc", builtin="hillclimb", kind="local_search")
    t_max = 1.0
    t_min = 1e-6
    policy = GradedPolicy(
        problem=KNAPSACK, solver=hill, t_min=t_min, t_max=t_max, oracle=oracle_adapter
    )
    for trial in range(20):
        n = rng.randint(2, 6)
        instance = {
            "weight": [rng.randint(1, 9) for _ in range(n)],
            "value": [rng.randint(1, 9) for _ in range(n)],
            "capacity": rng.randint(3, 25),
        }
        record = run_solver(hill, KNAPSACK, instance, t_max, seed=trial)
        record = verify_record(KNAPSACK, instance, record)
        oracle = oracle_optimum(KNAPSACK, instance, oracle_adapter, budget=3 * t_max)
        assert oracle.proved
        effective = effective_graded_record(record, oracle)
        if effective.time_to_best is not None:
            assert effective.time_to_best <= record.time + 1e-6
        status = policy.classify(effective)
        if effective.status is Status.SAT:
            in_band = t_min <= effective.time
            assert status is (RunStatus.GRADED if in_band else RunStatus.TOO_EASY_SAT)
            assert effective.objective == oracle.optimum
        else:
            assert status is RunStatus.TOO_DIFFICULT
    ok("local-search gradedness path (20 seeded instances)")


# -- criterion 8: end-to-end combined evaluation ---------------------------------


def test_acceptance_combined_evaluation(tmp_path):
    graded_policy_a = GradedPolicy(
        problem=KNAPSACK,
        solver=SolverAdapter(name="bandA", builtin="synthetic:capacity / 10"),
        t_min=2.0,
        t_max=5.0,
    )
    graded_policy_b = GradedPolicy(
        problem=KNAPSACK,
        solver=SolverAdapter(name="bandB", builtin="synthetic:(100 - capacity) / 10"),
        t_min=2.0,
        t_max=5.0,
    )
    a = run_campaign(tmp_path / "a", SPACE_TEXT, MODEL_TEXT, graded_policy_a,
                     TunerConfig(total_budget=80, seed=5), FAST_LIMITS)
    b = run_campaign(tmp_path / "b", SPACE_TEXT, MODEL_TEXT, graded_policy_b,
                     TunerConfig(total_budget=80, seed=6), FAST_LIMITS)
    combined = build_combined_set([a.archive, b.archive], k=5, seed=9)
    assert sum(len(v) for v in combined.selections.values()) > 0

    solvers = [
        SolverAdapter(name="exact", builtin="exact"),
        SolverAdapter(name="steady", builtin="synthetic:3"),
        SolverAdapter(name="liar", builtin="buggy"),
    ]
    result = evaluate_combined(
        combined, solvers, KNAPSACK, t_max=30.0, limits=FAST_LIMITS,
        seed=2, out_dir=tmp_path / "eval",
    )
    comparables = {
        key: comparable_from_record(rec, KNAPSACK.kind) for key, rec in result.records.items()
    }
    names = [s.name for s in solvers]
    instance_ids = combined.all_instance_ids()
    reference = naive_borda_totals(comparables, names, instance_ids)
    for name in names:
        assert result.borda.totals[name] == pytest.approx(reference[name], abs=1e-12)
    table, _ = borda_complete(result.records, KNAPSACK.kind, names, instance_ids)
    assert table.totals == result.borda.totals

    assert result.answered["liar"] == len(instance_ids)
    assert result.flagged["liar"] == result.answered["liar"], "buggy answers not all flagged"
    assert result.flagged["exact"] == 0
    ok(
        f"combined evaluation ({len(instance_ids)} instances, "
        f"buggy flagged {result.flagged['liar']}/{result.answered['liar']})"
    )


# -- criterion 9: resource enforcement -------------------------------------------


def test_acceptance_resource_enforcement(tmp_path):
    template = f'{sys.executable} -c "import time; time.sleep(600)"' + " {model} {instance} {time_limit_ms}"
    adapter = SolverAdapter(name="sleeper", command=template)
    time_limit = 0.3
    for trial in range(10):
        start = time.monotonic()
        record = run_solver(
            adapter, KNAPSACK, {"weight": [1], "value": [1], "capacity": 1},
            time_limit, EvaluationLimits(mem_limit=None, workdir=tmp_path), seed=trial,
        )
        wall = time.monotonic() - start
        assert record.status is Status.TIMEOUT, f"trial {trial}: {record.status}"
        assert record.time >= time_limit
        assert wall <= time_limit + 2.0, f"trial {trial} took {wall:.2f}s"
    ok("resource enforcement (10/10 sleeper kills within grace)")
