"""Backtracking search, solution histories, and generator solving."""

import hashlib
import itertools
import sys
import tempfile
import threading
import time
from random import Random
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from benchgen import csp as csp_module
from benchgen import gensolve
from benchgen.archive import CampaignArchive
from benchgen.csp import GroundedCsp, Search, backtrack_solve
from benchgen.errors import ModelError
from benchgen.gensolve import GenOutcome, SolutionHistory, solve_generator
from benchgen.ground import ground
from benchgen.model import check_assignment, instantiate, parse_model
from benchgen.space import parse_space, sample_uniform
from conftest import (
    CONSTRAINT_TEMPLATES,
    ERROR_TEMPLATES,
    append_record,
    decision_values,
    enumerate_solutions,
    exclusion_key,
    make_configuration,
    reference_check,
    write_instance,
)


def simple_csp(n_vars=2, domain=(1, 2)):
    return GroundedCsp(
        domains=[tuple(domain)] * n_vars,
        checks=[[] for _ in range(n_vars)],
        refuted=False,
        decode=lambda a: {f"v{i}": a[i] for i in range(n_vars)},
        encode=lambda values: [values[f"v{i}"] for i in range(n_vars)],
    )


def in_seconds(seconds):
    return time.monotonic() + seconds


def test_first_solution_ordering_contract():
    result = backtrack_solve(Search(simple_csp()), in_seconds(10.0))
    assert result.status is GenOutcome.SOLUTION
    assert result.values == {"v0": 1, "v1": 1}


def test_exclusion_advances_in_lex_order():
    search = Search(simple_csp())
    seen = []
    for _ in range(5):
        result = backtrack_solve(search, in_seconds(10.0))
        if result.status is not GenOutcome.SOLUTION:
            seen.append("unsat")
            break
        seen.append((result.values["v0"], result.values["v1"]))
    assert seen == [(1, 1), (1, 2), (2, 1), (2, 2), "unsat"]


def test_zero_time_limit_times_out():
    result = backtrack_solve(Search(simple_csp()), in_seconds(0.0))
    assert result.status is GenOutcome.SOLVE_TIMEOUT


def queens_csp(n):
    checks = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            def make(i=i, j=j):
                def refutes(a):
                    return a[j] is not None and (a[i] == a[j] or abs(a[i] - a[j]) == j - i)
                return refutes
            refutes = make()
            checks[i].append(refutes)
            checks[j].append(refutes)
    return GroundedCsp(
        domains=[tuple(range(n))] * n,
        checks=checks,
        refuted=False,
        decode=lambda a: {"q": list(a)},
        encode=lambda values: list(values["q"]),
    )


def test_six_queens_has_four_solutions():
    n = 6
    solutions = enumerate_solutions(queens_csp(n))

    def brute_ok(p):
        return all(
            abs(p[i] - p[j]) != j - i for i in range(n) for j in range(i + 1, n)
        )

    brute = [list(p) for p in itertools.permutations(range(n)) if brute_ok(p)]
    assert len(brute) == 4
    assert sorted(s["q"] for s in solutions) == sorted(brute)


def test_search_that_times_out_mid_tree_continues_where_it_stopped(monkeypatch):
    # A clock that ticks once per reading times each solve out after a few
    # nodes, anywhere in the tree; continued, the search returns the same
    # solutions in the same order.
    expected = enumerate_solutions(queens_csp(6))
    ticks = itertools.count()
    monkeypatch.setattr(csp_module, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
    for limit in (3, 4, 10):
        search = Search(queens_csp(6))
        solutions, timeouts = [], 0
        while (result := backtrack_solve(search, next(ticks) + limit)).status is not GenOutcome.UNSAT:
            if result.status is GenOutcome.SOLUTION:
                solutions.append(result.values)
            else:
                timeouts += 1
        assert solutions == expected
        assert timeouts > 10


def test_search_deeper_than_the_recursion_limit():
    # 1,500 CSP variables, one per element of the set's universe: more
    # search levels than the interpreter's default limit of 1,000 frames.
    space = parse_space("n: 1..1")
    model = parse_model(space, "var s : set of 1..1500\nconstraint |s| >= 1")
    config = make_configuration(space, {"n": 1})
    history = SolutionHistory()
    got = [decision_values(solve_generator(model, config, history, 30.0, 30.0).instance, config)
           for _ in range(3)]
    assert got == [{"s": {1500}}, {"s": {1499}}, {"s": {1499, 1500}}]


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
        assert decision_values(result.instance, config) == expected
    result = solve_generator(model, config, history, 5.0, 5.0)
    assert result.outcome is GenOutcome.UNSAT


def test_history_roundtrip_preserves_exclusions(tmp_path):
    space = parse_space("n: 1..1")
    model = parse_model(space, "var x : int 1..3")
    config = make_configuration(space, {"n": 1})
    history = SolutionHistory()
    first = solve_generator(model, config, history, 5.0, 5.0)
    archive = CampaignArchive.create(tmp_path, {}, "n: 1..1", "var x : int 1..3")
    record_instance(archive, 1, config, first.instance)

    reloaded = archive.load_history(model)
    assert reloaded.count(config.id) == history.count(config.id) == 1
    again = solve_generator(model, config, reloaded, 5.0, 5.0)
    assert decision_values(again.instance, config) != decision_values(first.instance, config)


def test_translate_timeout_distinct_from_solve_timeout():
    space = parse_space("n: 1..1")
    model = parse_model(space, "var x : int 1..2")
    config = make_configuration(space, {"n": 1})
    result = solve_generator(model, config, SolutionHistory(), 0.0, 5.0)
    assert result.outcome is GenOutcome.TRANSLATE_TIMEOUT
    result = solve_generator(model, config, SolutionHistory(), 5.0, 0.0)
    assert result.outcome is GenOutcome.SOLVE_TIMEOUT


def test_an_ill_defined_shape_is_an_outcome_not_an_error():
    space = parse_space("n: 1..3")
    model = parse_model(space, "var a[n - 5] : int 1..2")
    config = make_configuration(space, {"n": 2})
    with pytest.raises(ModelError):
        instantiate(model, config)
    result = solve_generator(model, config, SolutionHistory(), 5.0, 5.0)
    assert (result.outcome, result.instance) == (GenOutcome.ILL_DEFINED, None)


# Shapes and bounds that some configurations leave negative, fractional,
# undefined (a division by zero) or not a number at all.
SHAPES = ("n", "n - 2", "k / 2", "n / k")
BOUNDS = ("2", "n + 1", "0", "-1", "k / 2", "(n < k)", "2 / (k - 2)")
CONTRACT_SPACE = parse_space("n: 0..3; k: 0..4")


@st.composite
def contract_cases(draw):
    bound = st.sampled_from(BOUNDS)
    lines = [
        f"var x : int {draw(bound)}..{draw(bound)}",
        f"var a[{draw(st.sampled_from(SHAPES))}] : int 0..{draw(bound)}",
        "var s : set of 1..2",
        f"var t[{draw(st.sampled_from(SHAPES))}] : set of 1..{draw(bound)}",
    ]
    templates = draw(st.lists(st.sampled_from(CONSTRAINT_TEMPLATES + ERROR_TEMPLATES), max_size=3))
    lines += ["constraint " + template.format(c=draw(st.integers(0, 4))) for template in templates]
    config = {"n": draw(st.integers(0, 3)), "k": draw(st.integers(0, 4))}
    limits = draw(st.sampled_from(((5.0, 5.0), (5.0, 0.0), (0.0, 5.0))))
    return "\n".join(lines), config, limits


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(contract_cases())
def test_solve_generator_returns_an_outcome_and_never_raises(case):
    model_text, values, (translate_limit, solve_limit) = case
    model = parse_model(CONTRACT_SPACE, model_text)
    config = make_configuration(CONTRACT_SPACE, values)
    try:
        instantiate(model, config)
        ill_defined = False
    except ModelError:
        ill_defined = True
    history = SolutionHistory()
    for _ in range(3):
        result = solve_generator(model, config, history, translate_limit, solve_limit)
        assert isinstance(result, gensolve.GeneratorSolveResult)
        assert (result.outcome is GenOutcome.SOLUTION) == (result.instance is not None)
        if translate_limit == 0.0:
            assert result.outcome is GenOutcome.TRANSLATE_TIMEOUT
        elif ill_defined:
            assert result.outcome is GenOutcome.ILL_DEFINED
        elif solve_limit == 0.0:
            assert result.outcome is GenOutcome.SOLVE_TIMEOUT
        else:
            assert result.outcome in (GenOutcome.SOLUTION, GenOutcome.UNSAT)
        if result.instance is not None:
            assert check_assignment(model, config, decision_values(result.instance, config))


ROOT_SPACE = parse_space("cap_t: 1..10")


@pytest.mark.parametrize("constraint", ["cap_t > 5", "1 / 0 = 1"], ids=["fails", "undefined"])
def test_a_constraint_that_reads_no_slot_and_fails_refutes_the_root(constraint):
    model = parse_model(ROOT_SPACE, f"var x : int 1..3\nconstraint {constraint}")
    config = make_configuration(ROOT_SPACE, {"cap_t": 3})
    csp = ground(model, config)
    assert csp.refuted and csp.checks == [[]]
    result = backtrack_solve(Search(csp), in_seconds(5.0))
    assert (result.status, result.nodes) == (GenOutcome.UNSAT, 0)
    assert solve_generator(model, config, SolutionHistory(), 5.0, 5.0).outcome is GenOutcome.UNSAT


def test_a_constraint_that_reads_no_slot_and_holds_blocks_nothing():
    model = parse_model(ROOT_SPACE, "var x : int 1..3\nconstraint cap_t > 5")
    config = make_configuration(ROOT_SPACE, {"cap_t": 7})
    csp = ground(model, config)
    assert not csp.refuted and csp.checks == [[]]
    assert enumerate_solutions(csp) == [{"x": 1}, {"x": 2}, {"x": 3}]


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
    succ = decision_values(result.instance, config)["succ"]
    assert sum(len(s) for s in succ) == 12  # density 2 x 6 tasks
    assert check_assignment(model, config, decision_values(result.instance, config))


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
            assert check_assignment(model, config, decision_values(result.instance, config))


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
        seen.add(exclusion_key(decision_values(result.instance, config)))
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
    model = parse_model(space, "var b : int 1..2\nvar a : int 3..5")
    csp = ground(model, make_configuration(space, {"n": 1}))
    assert csp.domains == [(1, 2), (3, 4, 5)]


def test_grounding_edge_shapes_decode_to_every_solution_in_lex_order():
    # With n = 0, a and t are zero-length arrays; e is a set over an empty
    # universe and u an array of sets.
    space = parse_space("n: 0..1")
    model = parse_model(space, "\n".join([
        "var a[n] : int 1..2",
        "var t[n] : set of 1..2",
        "var e : set of 1..0",
        "var u[2] : set of 1..2",
        "var x : int 0..2",
        "constraint x in u[1]",
        "constraint |e| + sum(a) <= x",
    ]))

    def elements(iv):  # one element's values, in search order
        if iv.kind == "int":
            return list(range(iv.lower, iv.upper + 1))
        universe = range(iv.lower, iv.upper + 1)
        return [
            {u for u, bit in zip(universe, bits) if bit}
            for bits in itertools.product((0, 1), repeat=len(universe))
        ]

    def values(iv):
        if iv.length is None:
            return elements(iv)
        return [list(p) for p in itertools.product(elements(iv), repeat=iv.length)]

    for n in (0, 1):
        config = make_configuration(space, {"n": n})
        ivs = instantiate(model, config)
        candidates = [
            {iv.name: v for iv, v in zip(ivs, combo)}
            for combo in itertools.product(*(values(iv) for iv in ivs))
        ]
        expected = [v for v in candidates if reference_check(model, config, v)]
        solutions = enumerate_solutions(ground(model, config))
        assert solutions == expected and solutions
        for s in solutions:
            assert type(s["e"]) is set and s["e"] == set()
            assert len(s["u"]) == 2 and all(type(m) is set for m in s["u"])
            if n == 0:
                assert s["a"] == [] and s["t"] == []


# -- continued searches: however a search resumes, the sequence is the same --
CURSOR_SPACE = parse_space("n: 1..2; k: 0..4")

@st.composite
def cursor_models(draw, set_array=False, error_paths=False):
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
    if error_paths:
        # A universe of one keeps the exclusion scan, quadratic in the
        # number of solutions, short.
        lines.append("var t[n] : set of 1..1")
        templates = [draw(st.sampled_from(ERROR_TEMPLATES))]
        either = st.sampled_from(CONSTRAINT_TEMPLATES + ERROR_TEMPLATES)
        templates += draw(st.lists(either, max_size=2))
    else:
        templates = draw(st.lists(st.sampled_from(CONSTRAINT_TEMPLATES), max_size=3))
    for template in templates:
        lines.append("constraint " + template.format(c=draw(st.integers(0, 4))))
    config = {"n": draw(st.integers(1, 2)), "k": draw(st.integers(0, 4))}
    return "\n".join(lines), config


def outcomes(model, config, history, mode="kept"):
    """Solve until UNSAT, yielding each outcome. In mode "counts" each solve
    starts from a history rebuilt from the last instance alone, as a resume
    rebuilds it; in mode "timeouts" each one follows a zero-limit solve,
    which times out and counts nothing."""
    last = None
    while True:
        if mode == "counts":
            history = SolutionHistory()
            if last is not None:
                history.add(last)
        elif mode == "timeouts":
            count = history.count(config.id)
            timed_out = solve_generator(model, config, history, 5.0, 0.0)
            assert timed_out.outcome is GenOutcome.SOLVE_TIMEOUT
            assert history.count(config.id) == count
        result = solve_generator(model, config, history, 5.0, 5.0)
        if result.outcome is not GenOutcome.SOLUTION:
            yield result.outcome
            return
        last = result.instance
        yield (last.sequence, exclusion_key(decision_values(last, config)))


def solution_sequence(model, config, history, mode="kept", stop=None):
    """The outcomes of solving until UNSAT, or of the first ``stop`` solves."""
    return list(itertools.islice(outcomes(model, config, history, mode), stop))


def brute_force_keys(model, config):
    """Canonical keys of every assignment the reference checker accepts."""
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
        if reference_check(model, config, values):
            keys.add(exclusion_key(values))
    return keys


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(cursor_models())
def test_cursor_resume_matches_exclusion_scan(case):
    model_text, values = case
    model = parse_model(CURSOR_SPACE, model_text)
    config = make_configuration(CURSOR_SPACE, values)
    scanned = solution_sequence(model, config, SolutionHistory(), mode="counts")
    resumed = solution_sequence(model, config, SolutionHistory())
    assert resumed == scanned
    assert solution_sequence(model, config, SolutionHistory(), mode="timeouts") == resumed
    # Two configurations in turn through a history that keeps one search:
    # each solve finds the other's search kept, so it starts afresh.
    other = make_configuration(CURSOR_SPACE, {**values, "n": 3 - values["n"]})
    shared = SolutionHistory()
    with mock.patch.object(gensolve, "CSP_CACHE_SIZE", 1):
        turns = list(itertools.zip_longest(outcomes(model, config, shared), outcomes(model, other, shared)))
    assert [mine for mine, _ in turns if mine is not None] == resumed
    assert [theirs for _, theirs in turns if theirs is not None] == (
        solution_sequence(model, other, SolutionHistory())
    )
    assert scanned[-1] is GenOutcome.UNSAT
    # Integer-interval pruning never refutes a solution, and none repeats.
    brute = brute_force_keys(model, config)
    assert {key for _, key in scanned[:-1]} == brute
    assert len(scanned) - 1 == len(brute)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(cursor_models(error_paths=True))
def test_cursor_resume_matches_exclusion_scan_on_error_paths(case):
    # A constraint that evaluation rejects is violated once its scope is
    # complete, and refutes nothing before.
    test_cursor_resume_matches_exclusion_scan.hypothesis.inner_test(case)


# The keys besides seq, config_id and instance_id that every reader of an
# evaluation record requires, with legal values.
RECORD_KEYS = {"block": 0, "assignment": {}, "penalty": 0.0, "status": "others",
               "generator_outcome": "solution", "records": {}, "scores": None}


def record_instance(archive, seq, config, instance):
    """Write the ``.inst`` of ``config``'s ``instance`` and its record ``seq``, as a campaign does."""
    write_instance(archive, instance)
    append_record(archive, {**RECORD_KEYS, "seq": seq, "config_id": config.id,
                            "assignment": dict(config.assignment), "instance_id": instance.id})


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(cursor_models(set_array=True))
@example(("var x : int 0..0\nvar a[n] : int 0..1\nvar s : set of 1..2\nvar t[n] : set of 1..2",
          {"n": 1, "k": 0}))
def test_key_rebuilt_from_the_archived_inst_is_the_exclusion_key(case):
    # An archived .inst holds the decision values: its values minus the
    # parameter names. Resume reads the last one and counts the recorded
    # instances. The first 48 solutions of each case (lex order: empty sets
    # come first).
    model_text, values = case
    model = parse_model(CURSOR_SPACE, model_text)
    config = make_configuration(CURSOR_SPACE, values)
    history = SolutionHistory()
    with tempfile.TemporaryDirectory() as root:
        archive = CampaignArchive.create(root, {}, "n: 1..2; k: 0..4", model_text)
        keys = {}
        while len(keys) < 48 and (result := solve_generator(model, config, history, 5.0, 5.0)).instance:
            instance = result.instance
            keys[instance.id] = exclusion_key(decision_values(instance, config))
            record_instance(archive, len(keys), config, instance)
        for iid, key in keys.items():
            decision = {k: v for k, v in archive.instance_values(iid).items()
                        if k not in CURSOR_SPACE.names}
            assert exclusion_key(decision) == key
        assert archive.load_history(model).count(config.id) == len(keys)


def test_loaded_history_continues_the_same_sequence(tmp_path):
    model_text = (
        "var x : int 0..2\nvar a[n] : int 0..2\nvar s : set of 1..2\n"
        "constraint sum(a) / n = x\nconstraint x in s"
    )
    model = parse_model(CURSOR_SPACE, model_text)
    config = make_configuration(CURSOR_SPACE, {"n": 2, "k": 0})
    full = solution_sequence(model, config, SolutionHistory())

    history = SolutionHistory()
    archive = CampaignArchive.create(tmp_path, {}, "n: 1..2; k: 0..4", model_text)
    head = []
    for seq in range(1, 5):
        instance = solve_generator(model, config, history, 5.0, 5.0).instance
        record_instance(archive, seq, config, instance)
        head.append((instance.sequence, exclusion_key(decision_values(instance, config))))
    tail = solution_sequence(model, config, archive.load_history(model))
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
    full = solution_sequence(model, config, SolutionHistory())
    other_first = solve_generator(model, other, SolutionHistory(), 5.0, 5.0).instance
    assert len(full) > 5
    for k in range(len(full)):
        archive = CampaignArchive.create(tmp_path / str(k), {}, "n: 1..2; k: 0..4", RESUME_MODEL_TEXT)
        history = SolutionHistory()
        for i in range(k):
            instance = solve_generator(model, config, history, 5.0, 5.0).instance
            record_instance(archive, 3 * i + 1, config, instance)
            # Records without an instance, and another configuration's, count nothing.
            append_record(archive, {"seq": 3 * i + 2, "config_id": config.id, "instance_id": None, **RECORD_KEYS})
            record_instance(archive, 3 * i + 3, other, other_first)
        loaded = archive.load_history(model)
        assert loaded.count(config.id) == k
        assert full[:k] + solution_sequence(model, config, loaded) == full


def restored_history(model, config, k):
    """A history that holds only the k-th instance of ``config``, as a resume
    rebuilds it: no grounding is kept."""
    kept = SolutionHistory()
    for _ in range(k):
        instance = solve_generator(model, config, kept, 5.0, 5.0).instance
    history = SolutionHistory()
    history.add(instance)
    return history


def test_a_restored_solve_that_times_out_records_nothing():
    model = parse_model(CURSOR_SPACE, RESUME_MODEL_TEXT)
    config = make_configuration(CURSOR_SPACE, {"n": 2, "k": 0})
    full = solution_sequence(model, config, SolutionHistory())
    history = restored_history(model, config, 3)
    assert solve_generator(model, config, history, 5.0, 0.0).outcome is GenOutcome.SOLVE_TIMEOUT
    assert history.count(config.id) == 3
    result = solve_generator(model, config, history, 5.0, 5.0)
    assert (result.instance.sequence, exclusion_key(decision_values(result.instance, config))) == full[3]


def test_search_gets_the_whole_solve_limit_after_a_slow_grounding(monkeypatch):
    real_ground, real_solve = gensolve.ground, gensolve.backtrack_solve
    limits, deadlines = [], []

    def slow_ground(model, config, deadline=None):
        time.sleep(0.3)
        return real_ground(model, config, deadline)

    def recording(search, deadline):
        limits.append(deadline - time.monotonic())
        deadlines.append(deadline)
        return real_solve(search, deadline)

    model = parse_model(CURSOR_SPACE, RESUME_MODEL_TEXT)
    config = make_configuration(CURSOR_SPACE, {"n": 2, "k": 0})
    history = restored_history(model, config, 3)
    monkeypatch.setattr(gensolve, "ground", slow_ground)
    monkeypatch.setattr(gensolve, "backtrack_solve", recording)
    result = solve_generator(model, config, history, 5.0, 1.0)
    assert result.outcome is GenOutcome.SOLUTION and result.instance.sequence == 3
    # One search, restored after the last solution, gets the whole limit.
    assert len(limits) == 1 and len(set(deadlines)) == 1
    assert 0.9 < limits[0] <= 1.0
    assert limits == sorted(limits, reverse=True)


def test_shared_history_keeps_each_configuration_sequence_under_threads():
    model = parse_model(
        CURSOR_SPACE, "var x : int 0..2\nvar a[n] : int 0..2\nconstraint sum(a) >= x"
    )
    configs = [make_configuration(CURSOR_SPACE, {"n": n, "k": k}) for n in (1, 2) for k in range(4)]
    expected = {
        c.id: solution_sequence(model, c, SolutionHistory(), mode="counts") for c in configs
    }
    shared = SolutionHistory()
    got = {}

    def work(config):
        got[config.id] = solution_sequence(model, config, shared)

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
    assert decision_values(first.instance, config) == {"w": []}
    for mode in ("counts", "kept"):
        sequence = solution_sequence(model, config, SolutionHistory(), mode)
        assert sequence == [(0, exclusion_key(decision_values(first.instance, config))), GenOutcome.UNSAT]
    search = Search(ground(model, config))
    found = backtrack_solve(search, in_seconds(5.0))
    assert (found.status, search.assignment, found.nodes) == (GenOutcome.SOLUTION, [], 0)
    resumed = backtrack_solve(search, in_seconds(5.0))
    assert (resumed.status, resumed.nodes) == (GenOutcome.UNSAT, 0)


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
    """Nodes of 30 solves of one kept search: the first search, then
    ``step`` per solution and one more each time value[n - 1] moves."""
    return [first] + ([step] * 8 + [step + 1]) * 3 + [step] * 2


# Recorded before pruning was compiled to closures, when each prune walked
# the expression tree: (cap_t, n) -> first key, sha256 of the keys in order
# (an outcome value in place of a key), nodes of each search.
SYNTH_SEQUENCES = {
    (1, 2): ("capacity=1;value=[1, 1];weight=[1, 1]",
             "8823ee667d8edc1796f9085d045ff3459d003486d87af7c97169dcaa738649c4",
             _resumed(5, 1)),
    (40, 5): ("capacity=40;value=[1, 1, 1, 1, 1];weight=[4, 9, 9, 9, 9]",
              "9355263a8ec82a2b6adf118492368621599ec8db3fe605a37f9f2a3896f056fc",
              _resumed(85, 1)),
    (63, 7): ("capacity=63;value=[1, 1, 1, 1, 1, 1, 1];weight=[9, 9, 9, 9, 9, 9, 9]",
              "44fb78d2e6444804dce2e4e69e0ebb348f177c16583c2a313e7bad9c4ac944b2",
              _resumed(133, 1)),
    (72, 8): ("capacity=72;value=[1, 1, 1, 1, 1, 1, 1, 1];weight=[9, 9, 9, 9, 9, 9, 9, 9]",
              "5cca99183609c097a7416c2f20c3dbd7b9de0ce21cd7e2abeafd8fd71200bc16",
              _resumed(152, 1)),
    (73, 8): ("unsat",
              "af3a14c11c198ad9e92ed4a8f341a59e2602c0e1088144f05f0a6607d3cac3c1",
              [100]),
}


# Nodes of each configuration's first search: what pruning alone refutes,
# which no later search of the configuration changes.
FIRST_SEARCH_NODES = {(1, 2): 5, (40, 5): 85, (63, 7): 133, (72, 8): 152, (73, 8): 100}


@pytest.mark.parametrize("cap_t, n", sorted(SYNTH_SEQUENCES))
def test_first_search_refutes_what_it_did_on_the_benchmark_model(monkeypatch, cap_t, n):
    nodes = []
    solve = gensolve.backtrack_solve

    def counting(*args, **kwargs):
        result = solve(*args, **kwargs)
        nodes.append(result.nodes)
        return result

    monkeypatch.setattr(gensolve, "backtrack_solve", counting)
    model = parse_model(SYNTH_SPACE, SYNTH_MODEL_TEXT)
    config = make_configuration(SYNTH_SPACE, {"cap_t": cap_t, "n": n})
    solve_generator(model, config, SolutionHistory(), 5.0, 5.0)
    assert nodes == [FIRST_SEARCH_NODES[(cap_t, n)]]


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
        keys.append(exclusion_key(decision_values(result.instance, config)))
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
        solve_generator(model, config, history, 5.0, 5.0)
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
        solve_generator(model, config, history, 5.0, 5.0)
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
