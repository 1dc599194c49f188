"""Builtin toy solvers: exact branch and bound, hill climbing, synthetic, buggy."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchgen import solvers
from benchgen.expressions import parse_expression
from benchgen.problems import get_problem, parse_knapsack
from benchgen.records import replace
from benchgen.runner import Status
from benchgen.solvers import (
    run_builtin,
    solve_buggy,
    solve_exact,
    solve_hillclimb,
    solve_synthetic,
)
from conftest import REFERENCE_SOLVERS, iter_selections

KNAPSACK = get_problem("knapsack")
DECISION = get_problem("knapsack_decision")


def brute_force_optimum(instance):
    """Exhaustive enumeration over all take vectors (test oracle)."""
    data = parse_knapsack(instance)
    best = None
    for take in iter_selections(data):
        if sum(t * w for t, w in zip(take, data.weight)) <= data.capacity:
            value = sum(t * v for t, v in zip(take, data.value))
            if best is None or value > best:
                best = value
    return best


def random_instance(rng, n_max=6):
    n = rng.randint(1, n_max)
    return {
        "weight": [rng.randint(1, 9) for _ in range(n)],
        "value": [rng.randint(0, 9) for _ in range(n)],
        "copies": [rng.randint(1, 2) for _ in range(n)],
        "capacity": rng.randint(0, 20),
    }


def test_exact_matches_brute_force_on_fuzzed_instances():
    rng = Random(4)
    for _ in range(40):
        instance = random_instance(rng)
        outcome = solve_exact(KNAPSACK, instance, 10.0)
        assert outcome.status is Status.SAT
        assert outcome.optimal_claimed
        assert outcome.objective == brute_force_optimum(instance)
        check = KNAPSACK.check(instance, outcome.solution)
        assert check.feasible and check.objective == outcome.objective


def test_exact_decision_sat_and_unsat():
    instance = {"weight": [2, 3], "value": [4, 5], "capacity": 5, "target": 9}
    outcome = solve_exact(DECISION, instance, 10.0)
    assert outcome.status is Status.SAT
    assert DECISION.check(instance, outcome.solution).feasible

    impossible = dict(instance, target=100)
    outcome = solve_exact(DECISION, impossible, 10.0)
    assert outcome.status is Status.UNSAT
    assert outcome.solution is None


def test_exact_memory_cap_aborts_with_error():
    instance = {
        "weight": [1] * 10,
        "value": list(range(10)),
        "copies": [3] * 10,
        "capacity": 12,
    }
    outcome = solve_exact(KNAPSACK, instance, 10.0, mem_limit=128)
    assert outcome.status is Status.ERROR
    assert "memory" in outcome.note


def test_hillclimb_reaches_optimum_on_small_instances():
    rng = Random(77)
    for trial in range(10):
        instance = random_instance(rng, n_max=4)
        optimum = brute_force_optimum(instance)
        outcome = solve_hillclimb(KNAPSACK, instance, 2.0, seed=trial)
        assert outcome.status is Status.SAT
        assert not outcome.optimal_claimed
        assert outcome.objective <= optimum
        check = KNAPSACK.check(instance, outcome.solution)
        assert check.feasible and check.objective == outcome.objective
        assert outcome.objective == optimum, f"trial {trial} stuck below optimum"


def test_hillclimb_trace_is_strictly_improving_and_timestamped():
    instance = {
        "weight": [3, 4, 5, 2],
        "value": [8, 9, 11, 3],
        "capacity": 9,
    }
    outcome = solve_hillclimb(KNAPSACK, instance, 2.0, seed=5)
    objectives = [o for _, o in outcome.trace]
    stamps = [t for t, _ in outcome.trace]
    assert objectives == sorted(set(objectives))
    assert stamps == sorted(stamps)
    assert all(0 <= t <= outcome.time + 1e-6 for t in stamps)
    assert outcome.trace[-1][1] == outcome.objective


def test_synthetic_latency_below_and_above_limit():
    instance = {"weight": [1], "value": [1], "capacity": 4}
    fast = solve_synthetic("capacity / 2", KNAPSACK, instance, time_limit=10.0)
    assert fast.status is Status.SAT
    assert fast.time == 2.0
    assert fast.optimal_claimed
    assert KNAPSACK.check(instance, fast.solution).feasible

    slow = solve_synthetic("capacity * 10", KNAPSACK, instance, time_limit=10.0)
    assert slow.status is Status.TIMEOUT
    assert slow.time >= 10.0


def test_a_latency_too_large_for_a_float_is_a_timeout_or_zero():
    instance = {"weight": [1], "value": [1], "capacity": 100}
    huge = " * ".join(["capacity"] * 200)  # 100 ** 200, beyond any float
    for text in (huge, f"{huge} / 3"):
        outcome = run_builtin(f"synthetic:{text}", KNAPSACK, instance, 10.0)
        assert (outcome.status, outcome.time) == (Status.TIMEOUT, 10.0)
    below = run_builtin(f"synthetic:0 - {huge}", KNAPSACK, instance, 10.0)
    assert (below.status, below.time) == (Status.SAT, 0.0)


def test_synthetic_latency_monotone_in_parameter():
    times = []
    for cap in (2, 5, 9, 14):
        instance = {"weight": [1], "value": [1], "capacity": cap}
        outcome = solve_synthetic("capacity", KNAPSACK, instance, time_limit=100.0)
        times.append(outcome.time)
    assert times == sorted(times)


def test_synthetic_bad_expression_is_error():
    outcome = solve_synthetic("nope +", KNAPSACK, {"weight": [1], "value": [1], "capacity": 1}, 1.0)
    assert outcome.status is Status.ERROR


def test_malformed_latency_is_an_error_on_every_run():
    instance = {"weight": [1], "value": [1], "capacity": 1}
    for _ in range(2):
        outcome = run_builtin("synthetic:capacity /", KNAPSACK, instance, 1.0)
        assert outcome.status is Status.ERROR
        assert outcome.note.startswith("latency expression:")


def test_latency_expression_is_parsed_once(monkeypatch):
    parsed = []

    def counting(text):
        parsed.append(text)
        return parse_expression(text)

    monkeypatch.setattr(solvers, "parse_expression", counting)
    instance = {"weight": [1], "value": [1], "capacity": 6}
    times = [run_builtin("synthetic:capacity / 3 + 1", KNAPSACK, instance, 10.0).time for _ in range(3)]
    assert times == [3.0] * 3
    assert parsed == ["capacity / 3 + 1"]


def test_buggy_solver_always_fails_verification():
    rng = Random(12)
    for _ in range(30):
        instance = random_instance(rng)
        outcome = solve_buggy(KNAPSACK, instance, 10.0)
        assert outcome.status is Status.SAT
        check = KNAPSACK.check(instance, outcome.solution)
        wrong = (not check.feasible) or check.objective != outcome.objective
        assert wrong, "buggy solver produced a verifiable answer"


def _instance(n):
    items = st.lists(st.integers(0, 9), min_size=n, max_size=n)
    return st.fixed_dictionaries({
        "weight": items, "value": items, "copies": st.lists(st.integers(0, 3), min_size=n, max_size=n),
        "capacity": st.integers(0, 25), "target": st.integers(-1, 40),
    })


def clock_masked(record):
    return replace(record, time=0.0, trace=[(0.0, value) for _, value in record.trace])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    solver=st.sampled_from(sorted(REFERENCE_SOLVERS)),
    problem=st.sampled_from([KNAPSACK, DECISION]),
    instance=st.integers(0, 6).flatmap(_instance),
    seed=st.integers(0, 2**32),
)
def test_each_search_records_what_its_reference_records(solver, problem, instance, seed):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solvers, "HILLCLIMB_MAX_ITERATIONS", 300)
        record = solvers.BUILTIN_SOLVERS[solver](problem, instance, 60.0, seed)
        reference = REFERENCE_SOLVERS[solver](problem, instance, 60.0, seed)
    assert clock_masked(record) == clock_masked(reference)
