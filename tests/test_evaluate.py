"""Penalty wiring: generator outcomes, gradedness gates, discrimination ratios."""

import itertools
import math
import sys
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from benchgen.errors import ValidationError
from benchgen.evaluate import (
    LARGE_NEGATIVE,
    PLUS_INFINITY,
    DiscriminatingPolicy,
    EvaluationLimits,
    GradedPolicy,
    OracleResult,
    effective_graded_record,
    evaluate_configuration,
)
from benchgen.gensolve import CandidateInstance, GenOutcome, SolutionHistory
from benchgen.model import parse_model
from benchgen.problems import get_problem
from benchgen.records import replace
from benchgen.runner import RunStatus, SolverAdapter, SolverRecord, Status
from benchgen.scoring import pair_score
from benchgen.space import parse_space

from conftest import decision_values, exclusion_key, make_configuration, penalty_of

KNAPSACK = get_problem("knapsack")
FAST_LIMITS = EvaluationLimits(translate_limit=5.0, solve_limit=5.0, mem_limit=None)


def record(status, t, *, solution_ok=None, objective=None, optimal=False, trace=(), solution=None):
    return SolverRecord(
        status, t,
        objective=objective, optimal_claimed=optimal,
        solution=solution, trace=list(trace), solution_ok=solution_ok,
    )


def graded_policy(t_min=10.0, t_max=1200.0, types=frozenset({"SAT", "UNSAT"})):
    return GradedPolicy(
        problem=KNAPSACK,
        solver=SolverAdapter(name="exact", builtin="exact"),
        t_min=t_min,
        t_max=t_max,
        types=types,
    )


def dis_policy(t_min=10.0, t_max=1200.0, types=frozenset({"SAT", "UNSAT"})):
    return DiscriminatingPolicy(
        problem=KNAPSACK,
        favoured=SolverAdapter(name="f", builtin="exact"),
        base=SolverAdapter(name="b", builtin="hillclimb", kind="local_search"),
        t_min=t_min,
        t_max=t_max,
        types=types,
    )


@pytest.mark.parametrize(
    "make",
    [
        lambda: graded_policy(t_max=math.inf),
        lambda: dis_policy(t_max=math.inf),
        lambda: replace(graded_policy(), oracle_budget=math.inf),
        lambda: replace(graded_policy(), oracle_budget=math.nan),
        lambda: replace(graded_policy(), oracle_budget=0.0),
    ],
    ids=["graded-t_max-inf", "discriminating-t_max-inf", "oracle_budget-inf", "oracle_budget-nan",
         "oracle_budget-zero"],
)
def test_policy_time_limits_must_be_positive_and_finite(make):
    with pytest.raises(ValidationError):
        make()


def test_policy_invariants():
    with pytest.raises(ValidationError):
        graded_policy(t_min=0.0)
    with pytest.raises(ValidationError):
        graded_policy(t_min=20.0, t_max=10.0)
    with pytest.raises(ValidationError):
        graded_policy(types=frozenset())
    with pytest.raises(ValidationError):
        DiscriminatingPolicy(
            problem=KNAPSACK,
            favoured=SolverAdapter(name="same", builtin="exact"),
            base=SolverAdapter(name="same", builtin="exact"),
            t_min=1.0,
            t_max=2.0,
        )
    with pytest.raises(ValidationError):
        GradedPolicy(
            problem=KNAPSACK,
            solver=SolverAdapter(name="hc", builtin="hillclimb", kind="local_search"),
            t_min=1.0,
            t_max=2.0,
        )  # local search on an optimisation problem without an oracle


def test_graded_penalty_gates():
    policy = graded_policy()
    assert penalty_of(policy, record(Status.SAT, 5.0)) == 0.0
    assert penalty_of(graded_policy(types=frozenset({"SAT"})), record(Status.UNSAT, 60.0)) == 0.0
    assert penalty_of(policy, record(Status.SAT, 60.0)) == -1.0
    assert penalty_of(policy, record(Status.TIMEOUT, 1200.0)) == 0.0
    assert penalty_of(policy, record(Status.ERROR, 0.5)) == 0.0
    assert penalty_of(policy, record(Status.SAT, 60.0, solution_ok=False)) == 0.0
    assert penalty_of(policy, record(Status.UNSAT, 60.0)) == -1.0


def test_discriminating_penalty_sentinel_on_base_shutout():
    policy = dis_policy()
    favoured = record(Status.SAT, 20.0, objective=5, optimal=True, solution={"take": [1]}, solution_ok=True)
    base = record(Status.TIMEOUT, 1200.0)
    assert penalty_of(policy, favoured, base) == LARGE_NEGATIVE


def test_discriminating_penalty_time_split_ratio():
    policy = dis_policy()
    favoured = record(Status.SAT, 10.0, objective=5, solution={"take": [1]}, solution_ok=True)
    base = record(Status.SAT, 30.0, objective=5, solution={"take": [1]}, solution_ok=True)
    # Scores (0.75, 0.25) by the time split, so the ratio penalty is -3.
    assert penalty_of(policy, favoured, base) == pytest.approx(-3.0)


def test_discriminating_penalty_base_too_easy():
    policy = dis_policy(t_min=10.0)
    favoured = record(Status.SAT, 20.0, objective=5, solution={"take": [1]}, solution_ok=True)
    base = record(Status.SAT, 4.0, objective=5, solution={"take": [1]}, solution_ok=True)
    assert penalty_of(policy, favoured, base) == 0.0


def test_discriminating_penalty_favoured_timeout_or_wrong_type():
    policy = dis_policy(types=frozenset({"UNSAT"}))
    favoured_sat = record(Status.SAT, 20.0, objective=5, solution={"take": [1]}, solution_ok=True)
    base = record(Status.SAT, 30.0, objective=5, solution={"take": [1]}, solution_ok=True)
    assert penalty_of(policy, favoured_sat, base) == 0.0  # wrong type
    favoured_to = record(Status.TIMEOUT, 1200.0)
    assert penalty_of(dis_policy(), favoured_to, base) == 0.0


def test_discriminating_monotone_in_base_time():
    policy = dis_policy(t_min=10.0)
    favoured = record(Status.SAT, 10.0, objective=5, solution={"take": [1]}, solution_ok=True)
    penalties = []
    for base_time in (12.0, 20.0, 50.0, 200.0, 1000.0):
        base = record(Status.SAT, base_time, objective=5, solution={"take": [1]}, solution_ok=True)
        penalties.append(penalty_of(policy, favoured, base))
    assert penalties == sorted(penalties, reverse=True)


def test_effective_record_for_local_search():
    def ls_record(trace):
        return record(Status.SAT, 100.0, objective=9, trace=trace, solution={"take": [1]}, solution_ok=True)

    proved = OracleResult(optimum=9, proved=True, time=1.0)
    reaches_9 = [(1.0, 4), (12.0, 9)]
    eff = effective_graded_record(ls_record(reaches_9), proved)
    assert eff.status is Status.SAT
    assert eff.time == 12.0 and eff.time_to_best == 12.0 and eff.objective == 9

    # Never reaching the optimum, an empty trace, or no proved optimum all count as a timeout.
    # Which trace stamp counts is tested in test_runner's test_measure_time_to_best.
    for trace, oracle in [
        ([(1.0, 10)], proved),
        ([], proved),
        (reaches_9, OracleResult(optimum=11, proved=True, time=1.0)),
        (reaches_9, OracleResult(optimum=None, proved=False, time=1.0)),
        (reaches_9, OracleResult(optimum=None, proved=True, time=1.0, infeasible=True)),
    ]:
        eff = effective_graded_record(ls_record(trace), oracle)
        assert eff.status is Status.TIMEOUT and eff.time == 100.0 and eff.time_to_best is None
    # A record whose answer failed its check is kept as it is.
    failed = replace(ls_record(reaches_9), solution_ok=False)
    assert effective_graded_record(failed, proved) == failed


@given(
    trace=st.lists(st.tuples(st.floats(0, 100), st.integers(0, 12)), max_size=6),
    optimum=st.one_of(st.none(), st.integers(0, 12)),
    proved=st.booleans(),
    infeasible=st.booleans(),
)
def test_a_set_time_to_best_is_the_records_time(trace, optimum, proved, infeasible):
    oracle = OracleResult(optimum=optimum, proved=proved, time=1.0, infeasible=infeasible)
    base = record(Status.SAT, 100.0, objective=3, trace=trace, solution={"take": [1]}, solution_ok=True)
    eff = effective_graded_record(base, oracle)
    if eff.time_to_best is not None:
        assert eff.time == eff.time_to_best
        assert (eff.time, optimum) in trace


# Twenty items of almost equal density, with room for many copies: ``exact``
# proves nothing within seconds, so its run under a t_max of 0.05 s is cut.
_WEIGHTS = [Random(1).randint(1000, 2000) for _ in range(20)]
UNPROVABLE = {
    "weight": _WEIGHTS, "value": [w + 100 for w in _WEIGHTS], "copies": [20] * 20, "capacity": 7 * sum(_WEIGHTS) + 1,
}


@pytest.mark.parametrize(
    "policy, verdict",
    [
        (GradedPolicy(problem=KNAPSACK, solver=SolverAdapter(name="exact", builtin="exact"), t_min=0.001, t_max=0.05),
         RunStatus.TOO_DIFFICULT),
        (DiscriminatingPolicy(problem=KNAPSACK, favoured=SolverAdapter(name="exact", builtin="exact"),
                              base=SolverAdapter(name="base", builtin="synthetic:1 / 100"), t_min=0.001, t_max=0.05),
         RunStatus.FAVOURED_TIMEOUT),
    ],
    ids=["graded", "discriminating"],
)
def test_a_complete_search_cut_by_its_deadline_is_a_timeout_that_keeps_its_answer(policy, verdict):
    result = policy.evaluate(CandidateInstance(values=UNPROVABLE, config_id="cut", sequence=0), FAST_LIMITS, 0)
    cut = result.records["exact"]
    assert cut.status is Status.TIMEOUT and cut.time >= 0.05 and not cut.optimal_claimed
    assert cut.solution_ok is True and cut.objective > 0 and cut.trace[-1][1] == cut.objective
    assert result.status is verdict


SPACE = parse_space("cap_t: 1..50")
MODEL = (
    "var capacity : int 1..50\n"
    "var weight[2] : int 1..9\n"
    "var value[2] : int 1..9\n"
    "constraint capacity = cap_t\n"
)


def make_graded_policy(latency, t_min, t_max):
    return GradedPolicy(
        problem=KNAPSACK,
        solver=SolverAdapter(name="syn", builtin=f"synthetic:{latency}"),
        t_min=t_min,
        t_max=t_max,
    )


def test_evaluate_configuration_generator_unsat_gives_plus_infinity():
    space = parse_space("n: 1..1")
    model = parse_model(space, "var x : int 1..3\nconstraint x = 0")
    config = make_configuration(space, {"n": 1})
    result = evaluate_configuration(
        model, config, SolutionHistory(), make_graded_policy("1", 1, 2), FAST_LIMITS
    )
    assert result.penalty == PLUS_INFINITY
    assert result.status is RunStatus.GENERATOR_UNSOLVED
    assert result.instance is None


def test_evaluate_configuration_generator_solve_timeout_gives_one():
    space = parse_space("n: 1..1")
    model = parse_model(space, "var x : int 1..3")
    config = make_configuration(space, {"n": 1})
    limits = EvaluationLimits(translate_limit=5.0, solve_limit=1e-9, mem_limit=None)  # below one search step
    result = evaluate_configuration(
        model, config, SolutionHistory(), make_graded_policy("1", 1, 2), limits
    )
    assert result.penalty == 1.0
    assert result.generator_outcome is GenOutcome.SOLVE_TIMEOUT
    assert result.status is RunStatus.GENERATOR_UNSOLVED


def test_evaluate_configuration_graded_path_records_instance():
    model = parse_model(SPACE, MODEL)
    config = make_configuration(SPACE, {"cap_t": 30})
    history = SolutionHistory()
    policy = make_graded_policy("capacity / 10", t_min=2.0, t_max=5.0)  # 3.0s latency
    result = evaluate_configuration(model, config, history, policy, FAST_LIMITS)
    assert result.penalty == -1.0
    assert result.status is RunStatus.GRADED
    assert result.instance is not None
    assert history.count(config.id) == 1
    assert result.records["syn"].time == pytest.approx(3.0)


def test_every_run_of_an_evaluation_takes_the_limiter_prefix(tmp_path):
    # A local-search solver and its oracle both run under the configured prefix.
    unsat = f'{sys.executable} -c "print(\'=====UNSATISFIABLE=====\')"'
    unsat += " {model} {instance} {time_limit_ms}"
    policy = GradedPolicy(
        problem=KNAPSACK,
        solver=SolverAdapter(name="ls", kind="local_search", command=unsat),
        oracle=SolverAdapter(name="oracle", command=unsat),
        t_min=1.0,
        t_max=5.0,
    )
    limits = EvaluationLimits(
        translate_limit=5.0, solve_limit=5.0,
        limiter_prefix="env BENCH_MARK=1", workdir=str(tmp_path / "runs"),
    )
    config = make_configuration(SPACE, {"cap_t": 30})
    model = parse_model(SPACE, MODEL)
    result = evaluate_configuration(model, config, SolutionHistory(), policy, limits)
    assert result.oracle is not None and result.oracle.infeasible
    logs = list((tmp_path / "runs").glob("run_*/run.log"))
    assert len(logs) == 2
    for log in logs:
        assert log.read_text().startswith("# env BENCH_MARK=1 ")


def test_evaluate_configuration_never_regenerates_instances():
    model = parse_model(SPACE, MODEL)
    config = make_configuration(SPACE, {"cap_t": 7})
    history = SolutionHistory()
    policy = make_graded_policy("1", t_min=0.5, t_max=2.0)
    seen = set()
    for _ in range(6):
        result = evaluate_configuration(model, config, history, policy, FAST_LIMITS)
        assert result.instance is not None
        assert exclusion_key(decision_values(result.instance, config)) not in seen
        seen.add(exclusion_key(decision_values(result.instance, config)))


def test_evaluate_configuration_discriminating_scores_and_status():
    model = parse_model(SPACE, MODEL)
    config = make_configuration(SPACE, {"cap_t": 40})
    policy = DiscriminatingPolicy(
        problem=KNAPSACK,
        favoured=SolverAdapter(name="fastside", builtin="synthetic:(50 - cap_t) / 10"),
        base=SolverAdapter(name="slowside", builtin="synthetic:cap_t / 10"),
        t_min=2.0,
        t_max=10.0,
    )
    result = evaluate_configuration(model, config, SolutionHistory(), policy, FAST_LIMITS)
    # favoured 1.0s, base 4.0s -> split (0.8, 0.2) -> penalty -4
    assert result.penalty == pytest.approx(-4.0)
    assert result.status is RunStatus.DIS_FOUND
    assert result.scores == (pytest.approx(0.8), pytest.approx(0.2))


def test_penalty_domain_invariant_fuzz():
    model = parse_model(SPACE, MODEL)
    rng = Random(17)
    graded = make_graded_policy("capacity / 10", t_min=2.0, t_max=5.0)
    dis = DiscriminatingPolicy(
        problem=KNAPSACK,
        favoured=SolverAdapter(name="f", builtin="synthetic:(50 - cap_t) / 10"),
        base=SolverAdapter(name="b", builtin="synthetic:cap_t / 10"),
        t_min=2.0,
        t_max=4.0,
    )
    graded_history, dis_history = SolutionHistory(), SolutionHistory()
    for _ in range(30):
        config = make_configuration(SPACE, {"cap_t": rng.randint(1, 50)})
        g = evaluate_configuration(model, config, graded_history, graded, FAST_LIMITS)
        assert g.penalty in (PLUS_INFINITY, 1.0, 0.0, -1.0)
        d = evaluate_configuration(model, config, dis_history, dis, FAST_LIMITS)
        assert d.penalty in (PLUS_INFINITY, 1.0, 0.0) or d.penalty < 0.0
        # Consistency between penalty sign and classification.
        assert (g.penalty == -1.0) == (g.status is RunStatus.GRADED)
        assert (d.penalty < 0.0 and not math.isinf(d.penalty)) == (
            d.status is RunStatus.DIS_FOUND
        )


# The penalty gates as they stood before the penalty was derived from the
# run status, kept verbatim as the reference the derivation must reproduce.


def _gated_graded_penalty(record, policy):
    if record.status is Status.ERROR or record.solution_ok is False:
        return 0.0
    if record.status is Status.TIMEOUT or record.time < policy.t_min:
        return 0.0
    kind = "UNSAT" if record.status is Status.UNSAT else "SAT"
    if kind not in policy.types:
        return 0.0
    return -1.0


def _gated_discriminating_penalty(favoured, base, policy):
    if favoured.status in (Status.TIMEOUT, Status.ERROR) or favoured.solution_ok is False:
        return 0.0
    kind = "UNSAT" if favoured.status is Status.UNSAT else "SAT"
    if kind not in policy.types:
        return 0.0
    if base.time < policy.t_min:
        return 0.0
    score_f, score_b = pair_score(favoured, base, policy.problem.kind)
    if score_f == 0.0:
        return 0.0
    if score_b == 0.0:
        return LARGE_NEGATIVE
    return -score_f / score_b


def _verdict_records():
    """Every status, times around t_min = 10 and t_max = 100, a solution
    present or absent, and every verification outcome."""
    out = []
    times = (0.0, 9.5, 10.0, 10.5, 99.5, 100.0, 100.5)
    for status, t, has_solution, ok in itertools.product(
        Status, times, (False, True), (None, True, False)
    ):
        objective = 3 + int(t) % 3 if has_solution else None
        out.append(SolverRecord(
            status, t,
            objective=objective,
            optimal_claimed=status is Status.SAT and t < 100.0,
            solution={"take": [1]} if has_solution else None,
            solution_ok=ok,
        ))
    return out


VERDICT_TYPES = (frozenset({"SAT"}), frozenset({"UNSAT"}), frozenset({"SAT", "UNSAT"}))


def test_derived_penalties_match_the_gates_bit_for_bit():
    records = _verdict_records()
    for types in VERDICT_TYPES:
        graded = graded_policy(t_min=10.0, t_max=100.0, types=types)
        for rec in records:
            assert repr(penalty_of(graded, rec)) == repr(_gated_graded_penalty(rec, graded)), rec
        dis = dis_policy(t_min=10.0, t_max=100.0, types=types)
        for favoured, base in itertools.product(records, records):
            got = penalty_of(dis, favoured, base)
            want = _gated_discriminating_penalty(favoured, base, dis)
            assert repr(got) == repr(want), (favoured, base, types)


def test_every_run_of_a_policy_evaluation_goes_through_the_traced_names(monkeypatch):
    # perfbench times the runner layer by wrapping these two module globals.
    import benchgen.evaluate as evaluate_module

    runs, verified = [], []
    run_solver, verify_record = evaluate_module.run_solver, evaluate_module.verify_record

    def counted_run(adapter, *args):
        runs.append(adapter.name)
        return run_solver(adapter, *args)

    def counted_verify(problem, values, rec):
        verified.append(rec)
        return verify_record(problem, values, rec)

    monkeypatch.setattr(evaluate_module, "run_solver", counted_run)
    monkeypatch.setattr(evaluate_module, "verify_record", counted_verify)
    model = parse_model(SPACE, MODEL)
    config = make_configuration(SPACE, {"cap_t": 30})
    graded = GradedPolicy(
        problem=KNAPSACK,
        solver=SolverAdapter(name="ls", kind="local_search", builtin="exact"),
        oracle=SolverAdapter(name="oracle", builtin="exact"),
        t_min=1.0,
        t_max=2.0,
    )
    result = evaluate_configuration(model, config, SolutionHistory(), graded, FAST_LIMITS)
    assert result.oracle is not None and result.oracle.proved
    assert runs == ["ls", "oracle"]
    assert len(verified) == 2
    runs.clear()
    verified.clear()
    result = evaluate_configuration(model, config, SolutionHistory(), dis_policy(1.0, 2.0), FAST_LIMITS)
    assert set(result.records) == {"f", "b"}
    assert runs == ["f", "b"]
    assert len(verified) == 2
