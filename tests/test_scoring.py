"""Pairwise scoring and Borda aggregation against a naive reference."""

from random import Random
from typing import NamedTuple

import pytest

from benchgen.errors import MissingRecord
from benchgen.runner import SolverRecord, Status
from benchgen.scoring import borda_complete, pair_rows, pair_score
from benchgen.report import TABLES, read_table, write_table

from conftest import comparable_from_record, minizinc_score, scoring_record


# -- independent reference implementation (kept deliberately naive) -----------


class Facts(NamedTuple):
    solved: bool
    optimal: bool
    quality: int | None
    time: float


def ref_is_better(a, b, kind):
    if kind == "decision":
        return a.solved and (not b.solved)
    if a.solved and not b.solved:
        return True
    if b.solved and not a.solved:
        return False
    if a.optimal and not b.optimal:
        return True
    if b.optimal and not a.optimal:
        return False
    if a.quality is not None and b.quality is not None:
        if kind == "minimise" and a.quality < b.quality:
            return True
        if kind == "maximise" and a.quality > b.quality:
            return True
    return False


def ref_score(a, b, kind):
    if ref_is_better(a, b, kind):
        return 1.0, 0.0
    if ref_is_better(b, a, kind):
        return 0.0, 1.0
    if a.solved and b.solved:
        if a.time + b.time == 0:
            return 0.5, 0.5
        return b.time / (a.time + b.time), a.time / (a.time + b.time)
    return 0.0, 0.0


def ref_borda_totals(facts, kind, solvers, instances):
    totals = {s: 0.0 for s in solvers}
    for i in instances:
        for s in solvers:
            for t in solvers:
                if s != t:
                    totals[s] += ref_score(facts[(s, i)], facts[(t, i)], kind)[0]
    return totals


def random_record(rng, kind):
    solved = rng.random() < 0.7
    optimal = solved and rng.random() < 0.4
    quality = None
    if kind != "decision" and solved and rng.random() < 0.9:
        quality = rng.randint(0, 20)
    time = rng.choice([0.0, rng.uniform(0.1, 100.0)])
    return Facts(solved, optimal, quality, time)


def score(a, b, kind):
    """``pair_score`` of the records with the facts ``a`` and ``b``."""
    return pair_score(scoring_record(*a), scoring_record(*b), kind)


# -- examples -----------------------------------------------------------------


def test_is_better_decision_solved_vs_unsolved():
    a = scoring_record(True, False, None, 5.0)
    b = scoring_record(False, False, None, 5.0)
    assert pair_score(a, b, "decision") == (1.0, 0.0)
    assert pair_score(b, a, "decision") == (0.0, 1.0)


def test_is_better_optimality_breaks_quality_tie():
    a = scoring_record(True, True, 8, 10.0)
    b = scoring_record(True, False, 8, 10.0)
    assert pair_score(a, b, "minimise") == (1.0, 0.0)
    assert pair_score(b, a, "minimise") == (0.0, 1.0)


def test_is_better_irreflexive_on_equal_records():
    a = scoring_record(True, False, 8, 10.0)
    b = scoring_record(True, False, 8, 10.0)
    assert pair_score(a, b, "minimise") == pair_score(b, a, "minimise") == (0.5, 0.5)


def test_score_time_split():
    a = scoring_record(True, False, 8, 10.0)
    b = scoring_record(True, False, 8, 30.0)
    assert pair_score(a, b, "minimise") == (0.75, 0.25)


def test_score_equal_times_split_evenly():
    a = scoring_record(True, False, None, 12.0)
    b = scoring_record(True, False, None, 12.0)
    assert pair_score(a, b, "decision") == (0.5, 0.5)


def test_score_both_failed_is_zero_zero():
    a = scoring_record(False, False, None, 100.0)
    b = scoring_record(False, False, None, 100.0)
    assert pair_score(a, b, "minimise") == (0.0, 0.0)


def test_score_zero_times_split_evenly():
    a = scoring_record(True, False, None, 0.0)
    b = scoring_record(True, False, None, 0.0)
    assert pair_score(a, b, "decision") == pair_score(b, a, "decision")
    assert pair_score(a, b, "decision")[0] == 0.5


def test_borda_single_pair():
    records = {
        ("A", "i"): scoring_record(True, False, None, 5.0),
        ("B", "i"): scoring_record(False, False, None, 5.0),
    }
    table, _ = borda_complete(records, "decision", ["A", "B"], ["i"])
    assert table.totals == {"A": 1.0, "B": 0.0}


def test_borda_all_failed():
    records = {(s, "i"): scoring_record(False, False, None, 1.0) for s in "ABC"}
    table, _ = borda_complete(records, "minimise", ["A", "B", "C"], ["i"])
    assert set(table.totals.values()) == {0.0}


def test_borda_missing_record_raises():
    records = {("A", "i"): scoring_record(True, False, None, 1.0)}
    with pytest.raises(MissingRecord):
        borda_complete(records, "decision", ["A", "B"], ["i"])


# -- bit-for-bit agreement with the earlier scoring ---------------------------


def test_pair_score_matches_the_earlier_scoring_bit_for_bit():
    """Every pair of a grid of solver records, under each problem kind, scores
    as the earlier projection onto comparable facts and its score did, to the
    last bit: the tie split's score_b is ``1.0 - score_a``, which the
    discriminating penalty archives."""
    records = [
        SolverRecord(status, time, objective, optimal, solution, solution_ok=ok)
        for status in Status
        for solution in (None, {"take": [1]})
        for ok in (None, True, False)
        for optimal in (False, True)
        for objective in (None, 3, 5)
        for time in (0.0, 0.1, 0.2)
    ]
    for kind in ("decision", "minimise", "maximise"):
        facts = [comparable_from_record(r, kind) for r in records]
        for a, fa in zip(records, facts):
            for b, fb in zip(records, facts):
                assert repr(pair_score(a, b, kind)) == repr(minizinc_score(fa, fb)), (a, b, kind)


# -- randomised agreement with the reference ----------------------------------


def test_scores_match_reference_on_randomised_sets():
    rng = Random(20240917)
    for _ in range(300):
        kind = rng.choice(["decision", "minimise", "maximise"])
        a, b = random_record(rng, kind), random_record(rng, kind)
        pair = score(a, b, kind)
        expect = ref_score(a, b, kind)
        assert abs(pair[0] - expect[0]) <= 1e-12
        assert abs(pair[1] - expect[1]) <= 1e-12


def test_borda_matches_reference_on_randomised_sets():
    rng = Random(31337)
    for _ in range(50):
        kind = rng.choice(["decision", "minimise", "maximise"])
        solvers = [f"s{i}" for i in range(rng.randint(3, 5))]
        instances = [f"i{i}" for i in range(rng.randint(5, 20))]
        facts = {(s, i): random_record(rng, kind) for s in solvers for i in instances}
        records = {key: scoring_record(*f) for key, f in facts.items()}
        table, _ = borda_complete(records, kind, solvers, instances)
        expect = ref_borda_totals(facts, kind, solvers, instances)
        for s in solvers:
            assert abs(table.totals[s] - expect[s]) <= 1e-12
        for s in solvers:
            row_sum = sum(table.cells[(s, i)] for i in instances)
            assert abs(row_sum - table.totals[s]) <= 1e-9


# -- invariants ----------------------------------------------------------------


def test_antisymmetry_fuzz():
    rng = Random(8)
    for _ in range(500):
        kind = rng.choice(["decision", "minimise", "maximise"])
        a, b = random_record(rng, kind), random_record(rng, kind)
        assert not (score(a, b, kind) == (1.0, 0.0) and score(b, a, kind) == (1.0, 0.0))


def test_score_components_bounded_and_summing():
    rng = Random(9)
    for _ in range(500):
        kind = rng.choice(["decision", "minimise", "maximise"])
        a, b = random_record(rng, kind), random_record(rng, kind)
        score_a, score_b = score(a, b, kind)
        assert 0.0 <= score_a <= 1.0 and 0.0 <= score_b <= 1.0
        assert score_a + score_b in (0.0, 1.0) or abs(score_a + score_b - 1.0) < 1e-12


def test_time_scaling_leaves_split_unchanged():
    rng = Random(10)
    for _ in range(200):
        t_a, t_b = rng.uniform(0.1, 50), rng.uniform(0.1, 50)
        scale = rng.uniform(0.01, 100)
        a, b = Facts(True, False, 5, t_a), Facts(True, False, 5, t_b)
        a2, b2 = Facts(True, False, 5, t_a * scale), Facts(True, False, 5, t_b * scale)
        p1, p2 = score(a, b, "minimise"), score(a2, b2, "minimise")
        assert abs(p1[0] - p2[0]) < 1e-9


def test_swap_symmetry():
    rng = Random(11)
    for _ in range(300):
        kind = rng.choice(["decision", "minimise", "maximise"])
        a, b = random_record(rng, kind), random_record(rng, kind)
        ab, ba = score(a, b, kind), score(b, a, kind)
        assert abs(ab[0] - ba[1]) < 1e-12
        assert abs(ab[1] - ba[0]) < 1e-12


def test_borda_invariant_under_solver_permutation():
    rng = Random(12)
    solvers = ["x", "y", "z"]
    instances = ["i1", "i2"]
    records = {
        (s, i): scoring_record(*random_record(rng, "maximise")) for s in solvers for i in instances
    }
    t1, _ = borda_complete(records, "maximise", solvers, instances)
    t2, _ = borda_complete(records, "maximise", list(reversed(solvers)), instances)
    assert t1.totals == t2.totals


def test_score_csv_roundtrip(tmp_path):
    rng = Random(13)
    solvers = ["a", "b", "c"]
    instances = ["i1", "i2", "i3"]
    records = {
        (s, i): scoring_record(*random_record(rng, "minimise")) for s in solvers for i in instances
    }
    rows = pair_rows(records, "minimise", solvers, instances)
    path = tmp_path / "scores.csv"
    write_table(path, TABLES["pair_scores.csv"], rows)
    assert read_table(path) == (TABLES["pair_scores.csv"], rows)


def test_borda_json_roundtrip(tmp_path):
    from benchgen.report import read_borda_json, write_borda_json

    records = {
        ("A", "i1"): scoring_record(True, True, 5, 3.0),
        ("B", "i1"): scoring_record(True, False, 4, 2.0),
        ("A", "i2"): scoring_record(False, False, None, 9.0),
        ("B", "i2"): scoring_record(True, False, 1, 1.0),
    }
    table, _ = borda_complete(records, "maximise", ["A", "B"], ["i1", "i2"])
    path = tmp_path / "borda.json"
    write_borda_json(path, table)
    back = read_borda_json(path)
    assert back.totals == table.totals
    assert back.cells == table.cells
    assert back.solvers == table.solvers and back.instances == table.instances
