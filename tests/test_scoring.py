"""Pairwise scoring and Borda aggregation against a naive reference."""

from random import Random

import pytest

from benchgen.errors import MissingRecord, ValidationError
from benchgen.scoring import (
    ComparableRecord,
    borda_complete,
    is_better,
    minizinc_score,
    pair_rows,
)
from benchgen.report import TABLES, read_table, write_table


# -- independent reference implementation (kept deliberately naive) -----------


def ref_is_better(a, b):
    if a.kind == "decision":
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
        if a.kind == "minimise" and a.quality < b.quality:
            return True
        if a.kind == "maximise" and a.quality > b.quality:
            return True
    return False


def ref_score(a, b):
    if ref_is_better(a, b):
        return 1.0, 0.0
    if ref_is_better(b, a):
        return 0.0, 1.0
    if a.solved and b.solved:
        if a.time + b.time == 0:
            return 0.5, 0.5
        return b.time / (a.time + b.time), a.time / (a.time + b.time)
    return 0.0, 0.0


def ref_borda_totals(records, solvers, instances):
    totals = {s: 0.0 for s in solvers}
    for i in instances:
        for s in solvers:
            for t in solvers:
                if s != t:
                    totals[s] += ref_score(records[(s, i)], records[(t, i)])[0]
    return totals


def random_record(rng, kind):
    solved = rng.random() < 0.7
    optimal = solved and rng.random() < 0.4
    quality = None
    if kind != "decision" and solved and rng.random() < 0.9:
        quality = rng.randint(0, 20)
    time = rng.choice([0.0, rng.uniform(0.1, 100.0)])
    return ComparableRecord(solved=solved, optimal=optimal, quality=quality, time=time, kind=kind)


# -- examples -----------------------------------------------------------------


def test_is_better_decision_solved_vs_unsolved():
    a = ComparableRecord(True, False, None, 5.0, "decision")
    b = ComparableRecord(False, False, None, 5.0, "decision")
    assert is_better(a, b) is True
    assert is_better(b, a) is False


def test_is_better_optimality_breaks_quality_tie():
    a = ComparableRecord(True, True, 8, 10.0, "minimise")
    b = ComparableRecord(True, False, 8, 10.0, "minimise")
    assert is_better(a, b) is True
    assert is_better(b, a) is False


def test_is_better_irreflexive_on_equal_records():
    a = ComparableRecord(True, False, 8, 10.0, "minimise")
    b = ComparableRecord(True, False, 8, 10.0, "minimise")
    assert not is_better(a, b) and not is_better(b, a)


def test_is_better_rejects_mixed_kinds():
    a = ComparableRecord(True, False, None, 1.0, "decision")
    b = ComparableRecord(True, False, 8, 1.0, "minimise")
    with pytest.raises(ValidationError):
        is_better(a, b)


def test_score_time_split():
    a = ComparableRecord(True, False, 8, 10.0, "minimise")
    b = ComparableRecord(True, False, 8, 30.0, "minimise")
    pair = minizinc_score(a, b)
    assert (pair.score_a, pair.score_b) == (0.75, 0.25)


def test_score_equal_times_split_evenly():
    a = ComparableRecord(True, False, None, 12.0, "decision")
    b = ComparableRecord(True, False, None, 12.0, "decision")
    pair = minizinc_score(a, b)
    assert (pair.score_a, pair.score_b) == (0.5, 0.5)


def test_score_both_failed_is_zero_zero():
    a = ComparableRecord(False, False, None, 100.0, "minimise")
    b = ComparableRecord(False, False, None, 100.0, "minimise")
    pair = minizinc_score(a, b)
    assert (pair.score_a, pair.score_b) == (0.0, 0.0)


def test_score_zero_times_split_evenly():
    a = ComparableRecord(True, False, None, 0.0, "decision")
    b = ComparableRecord(True, False, None, 0.0, "decision")
    assert minizinc_score(a, b) == minizinc_score(b, a)
    assert minizinc_score(a, b).score_a == 0.5


def test_borda_single_pair():
    records = {
        ("A", "i"): ComparableRecord(True, False, None, 5.0, "decision"),
        ("B", "i"): ComparableRecord(False, False, None, 5.0, "decision"),
    }
    table = borda_complete(records, ["A", "B"], ["i"])
    assert table.totals == {"A": 1.0, "B": 0.0}


def test_borda_all_failed():
    records = {
        (s, "i"): ComparableRecord(False, False, None, 1.0, "minimise")
        for s in "ABC"
    }
    table = borda_complete(records, ["A", "B", "C"], ["i"])
    assert set(table.totals.values()) == {0.0}


def test_borda_missing_record_raises():
    records = {("A", "i"): ComparableRecord(True, False, None, 1.0, "decision")}
    with pytest.raises(MissingRecord):
        borda_complete(records, ["A", "B"], ["i"])


# -- randomised agreement with the reference ----------------------------------


def test_scores_match_reference_on_randomised_sets():
    rng = Random(20240917)
    for _ in range(300):
        kind = rng.choice(["decision", "minimise", "maximise"])
        a, b = random_record(rng, kind), random_record(rng, kind)
        pair = minizinc_score(a, b)
        expect = ref_score(a, b)
        assert abs(pair.score_a - expect[0]) <= 1e-12
        assert abs(pair.score_b - expect[1]) <= 1e-12


def test_borda_matches_reference_on_randomised_sets():
    rng = Random(31337)
    for _ in range(50):
        kind = rng.choice(["decision", "minimise", "maximise"])
        solvers = [f"s{i}" for i in range(rng.randint(3, 5))]
        instances = [f"i{i}" for i in range(rng.randint(5, 20))]
        records = {
            (s, i): random_record(rng, kind) for s in solvers for i in instances
        }
        table = borda_complete(records, solvers, instances)
        expect = ref_borda_totals(records, solvers, instances)
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
        assert not (is_better(a, b) and is_better(b, a))


def test_score_components_bounded_and_summing():
    rng = Random(9)
    for _ in range(500):
        kind = rng.choice(["decision", "minimise", "maximise"])
        a, b = random_record(rng, kind), random_record(rng, kind)
        pair = minizinc_score(a, b)
        assert 0.0 <= pair.score_a <= 1.0 and 0.0 <= pair.score_b <= 1.0
        assert pair.score_a + pair.score_b in (0.0, 1.0) or abs(
            pair.score_a + pair.score_b - 1.0
        ) < 1e-12


def test_time_scaling_leaves_split_unchanged():
    rng = Random(10)
    for _ in range(200):
        t_a, t_b = rng.uniform(0.1, 50), rng.uniform(0.1, 50)
        scale = rng.uniform(0.01, 100)
        a = ComparableRecord(True, False, 5, t_a, "minimise")
        b = ComparableRecord(True, False, 5, t_b, "minimise")
        a2 = ComparableRecord(True, False, 5, t_a * scale, "minimise")
        b2 = ComparableRecord(True, False, 5, t_b * scale, "minimise")
        p1, p2 = minizinc_score(a, b), minizinc_score(a2, b2)
        assert abs(p1.score_a - p2.score_a) < 1e-9


def test_swap_symmetry():
    rng = Random(11)
    for _ in range(300):
        kind = rng.choice(["decision", "minimise", "maximise"])
        a, b = random_record(rng, kind), random_record(rng, kind)
        ab, ba = minizinc_score(a, b), minizinc_score(b, a)
        assert abs(ab.score_a - ba.score_b) < 1e-12
        assert abs(ab.score_b - ba.score_a) < 1e-12


def test_borda_invariant_under_solver_permutation():
    rng = Random(12)
    solvers = ["x", "y", "z"]
    instances = ["i1", "i2"]
    records = {
        (s, i): random_record(rng, "maximise") for s in solvers for i in instances
    }
    t1 = borda_complete(records, solvers, instances)
    t2 = borda_complete(records, list(reversed(solvers)), instances)
    assert t1.totals == t2.totals


def test_score_csv_roundtrip(tmp_path):
    rng = Random(13)
    solvers = ["a", "b", "c"]
    instances = ["i1", "i2", "i3"]
    records = {
        (s, i): random_record(rng, "minimise") for s in solvers for i in instances
    }
    rows = pair_rows(records, solvers, instances)
    path = tmp_path / "scores.csv"
    write_table(path, TABLES["pair_scores.csv"], rows)
    assert read_table(path) == (TABLES["pair_scores.csv"], rows)


def test_borda_json_roundtrip(tmp_path):
    from benchgen.report import read_borda_json, write_borda_json

    records = {
        ("A", "i1"): ComparableRecord(True, True, 5, 3.0, "maximise"),
        ("B", "i1"): ComparableRecord(True, False, 4, 2.0, "maximise"),
        ("A", "i2"): ComparableRecord(False, False, None, 9.0, "maximise"),
        ("B", "i2"): ComparableRecord(True, False, 1, 1.0, "maximise"),
    }
    table = borda_complete(records, ["A", "B"], ["i1", "i2"])
    path = tmp_path / "borda.json"
    write_borda_json(path, table)
    back = read_borda_json(path)
    assert back.totals == table.totals
    assert back.cells == table.cells
    assert back.solvers == table.solvers and back.instances == table.instances
