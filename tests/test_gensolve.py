"""Backtracking search, solution histories, and generator solving."""

import itertools
import sys
import threading
from random import Random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from benchgen.csp import (
    CspConstraint,
    CspVariable,
    GroundedCsp,
    SolveStatus,
    backtrack_solve,
)
from benchgen.errors import ModelError
from benchgen.gensolve import (
    GenOutcome,
    SolutionHistory,
    record_solution,
    solve_generator,
)
from benchgen.ground import ground
from benchgen.model import check_assignment, instantiate, parse_model
from benchgen.space import make_configuration, parse_space, sample_uniform
from benchgen.valuetext import canonical_key
from conftest import enumerate_solutions


def simple_csp(n_vars=2, domain=(1, 2), constraints=()):
    variables = [CspVariable(f"v{i}", tuple(domain)) for i in range(n_vars)]
    return GroundedCsp(
        variables=variables,
        constraints=list(constraints),
        decode=lambda a: {f"v{i}": a[i] for i in range(n_vars)},
        key_of=canonical_key,
    )


def test_first_solution_ordering_contract():
    result = backtrack_solve(simple_csp(), frozenset(), 10.0)
    assert result.status is SolveStatus.SOLUTION
    assert result.values == {"v0": 1, "v1": 1}


def test_exclusion_advances_in_lex_order():
    csp = simple_csp()
    seen = []
    keys: set[str] = set()
    for _ in range(5):
        result = backtrack_solve(csp, keys, 10.0)
        if result.status is not SolveStatus.SOLUTION:
            seen.append("unsat")
            break
        seen.append((result.values["v0"], result.values["v1"]))
        keys.add(result.key)
    assert seen == [(1, 1), (1, 2), (2, 1), (2, 2), "unsat"]


def test_zero_time_limit_times_out():
    result = backtrack_solve(simple_csp(), frozenset(), 0.0)
    assert result.status is SolveStatus.TIMEOUT


def test_six_queens_has_four_solutions():
    n = 6
    variables = [CspVariable(f"q{i}", tuple(range(n))) for i in range(n)]
    constraints = []
    for i in range(n):
        for j in range(i + 1, n):
            def make(i=i, j=j):
                def check(a):
                    return a[i] != a[j] and abs(a[i] - a[j]) != j - i
                return check
            constraints.append(CspConstraint(scope=(i, j), check=make()))
    csp = GroundedCsp(
        variables=variables,
        constraints=constraints,
        decode=lambda a: {"q": list(a)},
        key_of=canonical_key,
    )
    solutions = enumerate_solutions(csp)

    def brute_ok(p):
        return all(
            abs(p[i] - p[j]) != j - i for i in range(n) for j in range(i + 1, n)
        )

    brute = [list(p) for p in itertools.permutations(range(n)) if brute_ok(p)]
    assert len(brute) == 4
    assert sorted(s["q"] for s in solutions) == sorted(brute)


def test_contradictory_constraints_unsat():
    space = parse_space("n: 1..1")
    model = parse_model(space, "var x : int 1..5\nconstraint x = 1 and x = 2")
    config = make_configuration(space, {"n": 1})
    result = solve_generator(model, config, SolutionHistory(), 5.0, 5.0)
    assert result.outcome is GenOutcome.UNSAT


def test_history_exhausts_two_solution_model():
    space = parse_space("n: 1..1")
    model = parse_model(space, "var x : int 1..2")
    config = make_configuration(space, {"n": 1})
    history = SolutionHistory()
    # Brute force: domain 1..2, no constraints, exactly the two assignments.
    for expected in ({"x": 1}, {"x": 2}):
        result = solve_generator(model, config, history, 5.0, 5.0)
        assert result.outcome is GenOutcome.SOLUTION
        assert result.instance.decision_values == expected
        record_solution(history, config.id, result.instance)
    result = solve_generator(model, config, history, 5.0, 5.0)
    assert result.outcome is GenOutcome.UNSAT


def test_record_solution_idempotent():
    space = parse_space("n: 1..1")
    model = parse_model(space, "var x : int 1..2")
    config = make_configuration(space, {"n": 1})
    history = SolutionHistory()
    result = solve_generator(model, config, history, 5.0, 5.0)
    record_solution(history, config.id, result.instance)
    record_solution(history, config.id, result.instance)
    assert history.count(config.id) == 1


def test_history_roundtrip_preserves_exclusions(tmp_path):
    space = parse_space("n: 1..1")
    model = parse_model(space, "var x : int 1..3")
    config = make_configuration(space, {"n": 1})
    history = SolutionHistory()
    first = solve_generator(model, config, history, 5.0, 5.0)
    record_solution(history, config.id, first.instance)
    history.save(tmp_path / "history.json")

    reloaded = SolutionHistory.load(tmp_path / "history.json")
    assert reloaded.keys_for(config.id) == history.keys_for(config.id)
    again = solve_generator(model, config, reloaded, 5.0, 5.0)
    assert again.instance.decision_values != first.instance.decision_values


def test_translate_timeout_distinct_from_solve_timeout():
    space = parse_space("n: 1..1")
    model = parse_model(space, "var x : int 1..2")
    config = make_configuration(space, {"n": 1})
    result = solve_generator(model, config, SolutionHistory(), 0.0, 5.0)
    assert result.outcome is GenOutcome.TRANSLATE_TIMEOUT
    result = solve_generator(model, config, SolutionHistory(), 5.0, 0.0)
    assert result.outcome is GenOutcome.SOLVE_TIMEOUT


def test_model_error_propagates_for_ill_defined_shape():
    space = parse_space("n: 1..3")
    model = parse_model(space, "var a[n - 5] : int 1..2")
    config = make_configuration(space, {"n": 2})
    with pytest.raises(ModelError):
        solve_generator(model, config, SolutionHistory(), 5.0, 5.0)


def test_paper_style_successor_model_solves_to_density():
    space = parse_space("n_tasks_t: 1..60; s_density: 1..5")
    model = parse_model(
        space,
        "var succ[n_tasks_t] : set of 2..n_tasks_t\n"
        "constraint sum(card(succ)) / n_tasks_t = s_density",
    )
    config = make_configuration(space, {"n_tasks_t": 6, "s_density": 2})
    result = solve_generator(model, config, SolutionHistory(), 10.0, 10.0)
    assert result.outcome is GenOutcome.SOLUTION
    succ = result.instance.decision_values["succ"]
    assert sum(len(s) for s in succ) == 12  # density 2 x 6 tasks
    assert check_assignment(model, config, result.instance.decision_values)


def test_solutions_satisfy_checker_fuzz():
    rng = Random(99)
    space = parse_space("n: 2..4; cap: 2..9")
    model = parse_model(
        space,
        "var xs[n] : int 0..cap\n"
        "var pick : set of 1..n\n"
        "constraint sum(xs) <= cap * n\n"
        "constraint alldifferent(xs)\n"
        "constraint |pick| >= 1",
    )
    for _ in range(25):
        config = sample_uniform(space, rng)
        history = SolutionHistory()
        for _ in range(3):
            result = solve_generator(model, config, history, 5.0, 5.0)
            if result.outcome is not GenOutcome.SOLUTION:
                break
            assert check_assignment(model, config, result.instance.decision_values)
            record_solution(history, config.id, result.instance)


def test_small_model_exhaustion_yields_all_distinct():
    space = parse_space("n: 1..1")
    model = parse_model(space, "var x : int 1..3\nvar y : int 1..2")
    config = make_configuration(space, {"n": 1})
    total = 6  # |dom x| * |dom y| by direct enumeration
    history = SolutionHistory()
    seen = set()
    for _ in range(total):
        result = solve_generator(model, config, history, 5.0, 5.0)
        assert result.outcome is GenOutcome.SOLUTION
        seen.add(result.instance.exclusion_key)
        record_solution(history, config.id, result.instance)
    assert len(seen) == total
    assert solve_generator(model, config, history, 5.0, 5.0).outcome is GenOutcome.UNSAT


def test_canonical_text_deterministic():
    space = parse_space("n: 1..1")
    model = parse_model(space, "var x : int 1..3\nvar s : set of 1..3")
    config = make_configuration(space, {"n": 1})
    h1, h2 = SolutionHistory(), SolutionHistory()
    a = solve_generator(model, config, h1, 5.0, 5.0).instance
    b = solve_generator(model, config, h2, 5.0, 5.0).instance
    assert a.canonical_text == b.canonical_text
    assert a.canonical_text.endswith("\n")


def test_grounding_variable_order_is_declaration_order():
    space = parse_space("n: 1..1")
    model = parse_model(space, "var b : int 1..2\nvar a : int 1..2")
    csp = ground(model, make_configuration(space, {"n": 1}))
    assert [v.name for v in csp.variables] == ["b", "a"]


# -- lex cursor: resuming after the last solution changes no result ---------------
CURSOR_SPACE = parse_space("n: 1..2; k: 0..4")

# Constraint templates over x (int), a[n] (int array) and s (set); {c} is a constant.
CONSTRAINT_TEMPLATES = (
    "sum(a) >= {c}",
    "sum(a) <= {c}",
    "alldifferent(a)",
    "x in s",
    "x + a[1] != {c}",
    "|s| <= {c}",
    "sum(a) / n = x",  # reaches the Fraction path of interval pruning
    "x * 2 - k < {c}",
    "max(a) >= x and min(a) <= {c}",
)


@st.composite
def cursor_models(draw):
    x_lo = draw(st.integers(-1, 1))
    x_hi = x_lo + draw(st.integers(0, 2))
    a_hi = draw(st.integers(0, 2))
    lines = [
        f"var x : int {x_lo}..{x_hi}",
        f"var a[n] : int 0..{a_hi}",
        "var s : set of 1..2",
    ]
    templates = draw(st.lists(st.sampled_from(CONSTRAINT_TEMPLATES), max_size=3))
    for template in templates:
        lines.append("constraint " + template.format(c=draw(st.integers(0, 4))))
    config = {"n": draw(st.integers(1, 2)), "k": draw(st.integers(0, 4))}
    return "\n".join(lines), config


def solution_sequence(model, config, history, with_cursor, stop=None):
    """Solve and record until UNSAT (or ``stop`` solutions); outcomes in order."""
    seen = []
    while stop is None or len(seen) < stop:
        result = solve_generator(model, config, history, 5.0, 5.0)
        if result.outcome is not GenOutcome.SOLUTION:
            seen.append(result.outcome)
            break
        instance = result.instance
        seen.append((instance.sequence, instance.exclusion_key))
        if with_cursor:
            record_solution(history, config.id, instance)
        else:
            history.add(config.id, instance.exclusion_key)
    return seen


def brute_force_keys(model, config):
    """Canonical keys of every assignment the exact checker accepts."""
    names, options = [], []
    for iv in instantiate(model, config):
        universe = range(iv.lower, iv.upper + 1)
        if iv.kind == "int":
            cell = list(universe)
        else:
            cell = [set(c) for r in range(len(universe) + 1)
                    for c in itertools.combinations(universe, r)]
        names.append(iv.name)
        options.append(cell if iv.length is None
                       else [list(p) for p in itertools.product(cell, repeat=iv.length)])
    keys = set()
    for combo in itertools.product(*options):
        values = dict(zip(names, combo))
        if check_assignment(model, config, values):
            keys.add(canonical_key(values))
    return keys


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(cursor_models())
def test_cursor_resume_matches_exclusion_scan(case):
    model_text, values = case
    model = parse_model(CURSOR_SPACE, model_text)
    config = make_configuration(CURSOR_SPACE, values)
    scanned = solution_sequence(model, config, SolutionHistory(), with_cursor=False)
    resumed = solution_sequence(model, config, SolutionHistory(), with_cursor=True)
    assert resumed == scanned
    assert scanned[-1] is GenOutcome.UNSAT
    # Integer-interval pruning never refutes a solution.
    assert {key for _, key in scanned[:-1]} == brute_force_keys(model, config)


def test_loaded_history_continues_the_same_sequence(tmp_path):
    model = parse_model(
        CURSOR_SPACE,
        "var x : int 0..2\nvar a[n] : int 0..2\nvar s : set of 1..2\n"
        "constraint sum(a) / n = x\nconstraint x in s",
    )
    config = make_configuration(CURSOR_SPACE, {"n": 2, "k": 0})
    full = solution_sequence(model, config, SolutionHistory(), with_cursor=True)

    history = SolutionHistory()
    head = solution_sequence(model, config, history, with_cursor=True, stop=4)
    history.save(tmp_path / "history.json")
    reloaded = SolutionHistory.load(tmp_path / "history.json")
    assert reloaded.cursor_for(config.id) is None
    tail = solution_sequence(model, config, reloaded, with_cursor=True)
    assert head + tail == full
    assert len(full) > 5 and full[-1] is GenOutcome.UNSAT


def test_shared_history_keeps_each_configuration_sequence_under_threads():
    model = parse_model(
        CURSOR_SPACE, "var x : int 0..2\nvar a[n] : int 0..2\nconstraint sum(a) >= x"
    )
    configs = [make_configuration(CURSOR_SPACE, {"n": n, "k": k}) for n in (1, 2) for k in range(4)]
    expected = {
        c.id: solution_sequence(model, c, SolutionHistory(), with_cursor=False) for c in configs
    }
    shared = SolutionHistory()
    got = {}

    def work(config):
        got[config.id] = solution_sequence(model, config, shared, with_cursor=True)

    threads = [threading.Thread(target=work, args=(c,)) for c in configs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == expected


def test_zero_length_array_has_one_empty_solution():
    space = parse_space("n: 0..2")
    model = parse_model(space, "var w[n] : int 1..9")
    config = make_configuration(space, {"n": 0})
    first = solve_generator(model, config, SolutionHistory(), 5.0, 5.0)
    assert first.outcome is GenOutcome.SOLUTION
    assert first.instance.decision_values == {"w": []}
    for with_cursor in (False, True):
        sequence = solution_sequence(model, config, SolutionHistory(), with_cursor)
        assert sequence == [(0, first.instance.exclusion_key), GenOutcome.UNSAT]
    csp = ground(model, config)
    found = backtrack_solve(csp, frozenset(), 5.0)
    assert (found.status, found.assignment, found.nodes) == (SolveStatus.SOLUTION, (), 0)
    resumed = backtrack_solve(csp, frozenset(), 5.0, after=found.assignment)
    assert (resumed.status, resumed.nodes) == (SolveStatus.UNSAT, 0)
