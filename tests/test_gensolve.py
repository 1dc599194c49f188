"""Backtracking search, solution histories, and generator solving."""

import hashlib
import itertools
import sys
import tempfile
import threading
import time
from random import Random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from benchgen import gensolve
from benchgen.archive import CampaignArchive
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
    )


def test_first_solution_ordering_contract():
    result = backtrack_solve(simple_csp(), 10.0)
    assert result.status is SolveStatus.SOLUTION
    assert result.values == {"v0": 1, "v1": 1}


def test_exclusion_advances_in_lex_order():
    csp = simple_csp()
    seen = []
    cursor = None
    for _ in range(5):
        result = backtrack_solve(csp, 10.0, after=cursor)
        if result.status is not SolveStatus.SOLUTION:
            seen.append("unsat")
            break
        seen.append((result.values["v0"], result.values["v1"]))
        cursor = result.assignment
    assert seen == [(1, 1), (1, 2), (2, 1), (2, 2), "unsat"]


def test_zero_time_limit_times_out():
    result = backtrack_solve(simple_csp(), 0.0)
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
    assert reloaded.count(config.id) == history.count(config.id) == 1
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
def cursor_models(draw, set_array=False):
    x_lo = draw(st.integers(-1, 1))
    x_hi = x_lo + draw(st.integers(0, 2))
    a_hi = draw(st.integers(0, 2))
    lines = [
        f"var x : int {x_lo}..{x_hi}",
        f"var a[n] : int 0..{a_hi}",
        "var s : set of 1..2",
    ]
    if set_array:
        lines.append("var t[n] : set of 1..2")
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
            history.add(config.id)
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
    # Integer-interval pruning never refutes a solution, and none repeats.
    brute = brute_force_keys(model, config)
    assert {key for _, key in scanned[:-1]} == brute
    assert len(scanned) - 1 == len(brute)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(cursor_models(set_array=True))
@example(("var x : int 0..0\nvar a[n] : int 0..1\nvar s : set of 1..2\nvar t[n] : set of 1..2",
          {"n": 1, "k": 0}))
def test_key_rebuilt_from_the_archived_inst_is_the_exclusion_key(case):
    # An archived .inst holds the decision values: its values minus the
    # parameter names. Resume counts the recorded instances. The first 48
    # solutions of each case (lex order: empty sets come first).
    model_text, values = case
    model = parse_model(CURSOR_SPACE, model_text)
    config = make_configuration(CURSOR_SPACE, values)
    history = SolutionHistory()
    with tempfile.TemporaryDirectory() as root:
        archive = CampaignArchive.create(root, {}, "n: 1..2; k: 0..4", model_text)
        keys = {}
        while len(keys) < 48 and (result := solve_generator(model, config, history, 5.0, 5.0)).instance:
            instance = result.instance
            record_solution(history, config.id, instance)
            archive.add_instance(instance)
            archive.add_evaluation({"config_id": config.id, "instance_id": instance.id})
            keys[instance.id] = instance.exclusion_key
        for iid, key in keys.items():
            decision = {k: v for k, v in archive.instance_values(iid).items()
                        if k not in CURSOR_SPACE.names}
            assert canonical_key(decision) == key
        assert archive.load_history().count(config.id) == len(keys)


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


RESUME_MODEL_TEXT = (
    "var x : int 0..2\nvar a[n] : int 0..2\nvar s : set of 1..2\n"
    "constraint sum(a) / n = x\nconstraint x in s"
)


def test_history_loaded_from_the_records_continues_at_every_split(tmp_path):
    model = parse_model(CURSOR_SPACE, RESUME_MODEL_TEXT)
    config = make_configuration(CURSOR_SPACE, {"n": 2, "k": 0})
    other = make_configuration(CURSOR_SPACE, {"n": 1, "k": 0})
    full = solution_sequence(model, config, SolutionHistory(), with_cursor=True)
    assert len(full) > 5
    for k in range(len(full)):
        archive = CampaignArchive.create(tmp_path / str(k), {}, "n: 1..2; k: 0..4", RESUME_MODEL_TEXT)
        history = SolutionHistory()
        for _ in range(k):
            instance = solve_generator(model, config, history, 5.0, 5.0).instance
            record_solution(history, config.id, instance)
            archive.add_instance(instance)
            archive.add_evaluation({"config_id": config.id, "instance_id": instance.id})
            # Records without an instance, and another configuration's, count nothing.
            archive.add_evaluation({"config_id": config.id, "instance_id": None})
            archive.add_evaluation({"config_id": other.id, "instance_id": f"{other.id}-0000"})
        loaded = archive.load_history()
        assert loaded.count(config.id) == k and loaded.cursor_for(config.id) is None
        assert full[:k] + solution_sequence(model, config, loaded, with_cursor=True) == full


def test_catch_up_that_times_out_records_nothing():
    model = parse_model(CURSOR_SPACE, RESUME_MODEL_TEXT)
    config = make_configuration(CURSOR_SPACE, {"n": 2, "k": 0})
    full = solution_sequence(model, config, SolutionHistory(), with_cursor=True)
    history = SolutionHistory({config.id: 3})
    assert solve_generator(model, config, history, 5.0, 0.0).outcome is GenOutcome.SOLVE_TIMEOUT
    assert (history.count(config.id), history.cursor_for(config.id)) == (3, None)
    result = solve_generator(model, config, history, 5.0, 5.0)
    assert (result.instance.sequence, result.instance.exclusion_key) == full[3]


def test_recording_an_earlier_instance_changes_nothing():
    model = parse_model(CURSOR_SPACE, RESUME_MODEL_TEXT)
    config = make_configuration(CURSOR_SPACE, {"n": 2, "k": 0})
    history = SolutionHistory()
    taken = []
    for _ in range(2):
        taken.append(solve_generator(model, config, history, 5.0, 5.0).instance)
        record_solution(history, config.id, taken[-1])
    record_solution(history, config.id, taken[0])
    assert history.count(config.id) == 2
    assert history.cursor_for(config.id) == taken[1].cursor


def test_search_gets_the_whole_solve_limit_after_a_slow_grounding(monkeypatch):
    real_ground, real_solve = gensolve.ground, gensolve.backtrack_solve
    limits = []

    def slow_ground(model, config, deadline=None):
        time.sleep(0.3)
        return real_ground(model, config, deadline)

    def recording(csp, time_limit, after=None):
        limits.append(time_limit)
        return real_solve(csp, time_limit, after=after)

    monkeypatch.setattr(gensolve, "ground", slow_ground)
    monkeypatch.setattr(gensolve, "backtrack_solve", recording)
    model = parse_model(CURSOR_SPACE, RESUME_MODEL_TEXT)
    config = make_configuration(CURSOR_SPACE, {"n": 2, "k": 0})
    history = SolutionHistory({config.id: 3})
    result = solve_generator(model, config, history, 5.0, 1.0)
    assert result.outcome is GenOutcome.SOLUTION and result.instance.sequence == 3
    # The first search and the three catch-up steps share one deadline.
    assert len(limits) == 4
    assert 0.9 < limits[0] <= 1.0
    assert limits == sorted(limits, reverse=True)


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
    found = backtrack_solve(csp, 5.0)
    assert (found.status, found.assignment, found.nodes) == (SolveStatus.SOLUTION, (), 0)
    resumed = backtrack_solve(csp, 5.0, after=found.assignment)
    assert (resumed.status, resumed.nodes) == (SolveStatus.UNSAT, 0)


# -- the generator's work: pruning and grounding ------------------------------
SYNTH_SPACE = parse_space("cap_t: 1..100\nn: 2..8")
SYNTH_MODEL_TEXT = (
    "var capacity : int 1..100\n"
    "var weight[n] : int 1..9\n"
    "var value[n] : int 1..9\n"
    "constraint capacity = cap_t\n"
    "constraint sum(weight) >= capacity\n"
)


def _resumed(first, step):
    """Nodes of 30 cursor-resumed solves: the first search, then one step
    per solution and one more each time value[n - 1] moves."""
    return [first] + ([step] * 8 + [step + 1]) * 3 + [step] * 2


# Recorded before pruning was compiled to closures, when each prune walked
# the expression tree: (cap_t, n) -> first key, sha256 of the keys in order
# (an outcome value in place of a key), nodes of each search.
SYNTH_SEQUENCES = {
    (1, 2): ("capacity=1;value=[1, 1];weight=[1, 1]",
             "8823ee667d8edc1796f9085d045ff3459d003486d87af7c97169dcaa738649c4",
             _resumed(5, 6)),
    (40, 5): ("capacity=40;value=[1, 1, 1, 1, 1];weight=[4, 9, 9, 9, 9]",
              "9355263a8ec82a2b6adf118492368621599ec8db3fe605a37f9f2a3896f056fc",
              _resumed(85, 12)),
    (63, 7): ("capacity=63;value=[1, 1, 1, 1, 1, 1, 1];weight=[9, 9, 9, 9, 9, 9, 9]",
              "44fb78d2e6444804dce2e4e69e0ebb348f177c16583c2a313e7bad9c4ac944b2",
              _resumed(133, 16)),
    (72, 8): ("capacity=72;value=[1, 1, 1, 1, 1, 1, 1, 1];weight=[9, 9, 9, 9, 9, 9, 9, 9]",
              "5cca99183609c097a7416c2f20c3dbd7b9de0ce21cd7e2abeafd8fd71200bc16",
              _resumed(152, 18)),
    (73, 8): ("unsat",
              "af3a14c11c198ad9e92ed4a8f341a59e2602c0e1088144f05f0a6607d3cac3c1",
              [100]),
}


@pytest.mark.parametrize("cap_t, n", sorted(SYNTH_SEQUENCES))
def test_pruning_refutes_what_it_did_on_the_benchmark_model(monkeypatch, cap_t, n):
    # The number of nodes of each search pins what pruning refutes: one
    # refutation more or fewer changes it.
    nodes = []
    solve = gensolve.backtrack_solve

    def counting(*args, **kwargs):
        result = solve(*args, **kwargs)
        nodes.append(result.nodes)
        return result

    monkeypatch.setattr(gensolve, "backtrack_solve", counting)
    model = parse_model(SYNTH_SPACE, SYNTH_MODEL_TEXT)
    config = make_configuration(SYNTH_SPACE, {"cap_t": cap_t, "n": n})
    history = SolutionHistory()
    keys = []
    while len(keys) < 30:
        result = solve_generator(model, config, history, 5.0, 5.0)
        if result.instance is None:
            keys.append(result.outcome.value)
            break
        keys.append(result.instance.exclusion_key)
        record_solution(history, config.id, result.instance)
    first, digest, expected_nodes = SYNTH_SEQUENCES[(cap_t, n)]
    assert keys[0] == first
    assert hashlib.sha256("\n".join(keys).encode()).hexdigest() == digest
    assert nodes == expected_nodes


def test_history_grounds_each_configuration_once(monkeypatch):
    grounded = []
    real_ground = gensolve.ground

    def counting(model, config, deadline=None):
        grounded.append(config.id)
        return real_ground(model, config, deadline)

    monkeypatch.setattr(gensolve, "ground", counting)
    model = parse_model(SYNTH_SPACE, SYNTH_MODEL_TEXT)
    config = make_configuration(SYNTH_SPACE, {"cap_t": 20, "n": 3})
    history = SolutionHistory()
    for _ in range(5):
        result = solve_generator(model, config, history, 5.0, 5.0)
        record_solution(history, config.id, result.instance)
    assert grounded == [config.id]
    # A kept grounding cannot time out in translation.
    assert solve_generator(model, config, history, 0.0, 5.0).outcome is GenOutcome.SOLUTION

    # An equal model that is another object is grounded again.
    other = parse_model(SYNTH_SPACE, SYNTH_MODEL_TEXT)
    assert other == model and other is not model
    result = solve_generator(other, config, history, 5.0, 5.0)
    assert result.outcome is GenOutcome.SOLUTION
    assert grounded == [config.id] * 2

    # A fresh history keeps nothing, so a zero translate limit times out.
    assert solve_generator(model, config, SolutionHistory(), 0.0, 5.0).outcome is (
        GenOutcome.TRANSLATE_TIMEOUT
    )


def test_history_drops_the_least_recently_solved_grounding(monkeypatch):
    grounded = []
    real_ground = gensolve.ground

    def counting(model, config, deadline=None):
        grounded.append(config["cap_t"])
        return real_ground(model, config, deadline)

    monkeypatch.setattr(gensolve, "ground", counting)
    monkeypatch.setattr(gensolve, "CSP_CACHE_SIZE", 2)
    model = parse_model(SYNTH_SPACE, SYNTH_MODEL_TEXT)
    history = SolutionHistory()
    for cap_t in (1, 2, 1, 3, 1, 2):
        config = make_configuration(SYNTH_SPACE, {"cap_t": cap_t, "n": 2})
        result = solve_generator(model, config, history, 5.0, 5.0)
        record_solution(history, config.id, result.instance)
    # 3 drops 2 (1 was solved more recently); 2 comes back and drops 3.
    assert grounded == [1, 2, 3, 2]


def test_one_grounding_serves_concurrent_searches():
    # Compiled pruning holds no state, so threads may search one CSP at once.
    model = parse_model(
        CURSOR_SPACE,
        "var x : int 0..2\nvar a[n] : int 0..2\nvar s : set of 1..2\n"
        "constraint sum(a) >= x\nconstraint x in s",
    )
    csp = ground(model, make_configuration(CURSOR_SPACE, {"n": 2, "k": 0}))
    expected = enumerate_solutions(ground(model, make_configuration(CURSOR_SPACE, {"n": 2, "k": 0})))
    got = []

    def work():
        got.append(enumerate_solutions(csp))

    threads = [threading.Thread(target=work) for _ in range(6)]
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
    assert len(expected) > 10
    assert got == [expected] * len(threads)
