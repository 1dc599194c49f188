"""Combined sets, frequency/time tables, cross-solver evaluation, exports."""

import json
import sys
import tempfile

import pytest

from benchgen.errors import ArchiveError
from benchgen.evaluate import EvaluationLimits
from benchgen.problems import get_problem
from benchgen.report import (
    CombinedSet,
    EmptyArchive,
    build_combined_set,
    discrimination_report,
    evaluate_combined,
    read_discrimination_csv,
    read_status_csv,
    read_times_csv,
    status_frequencies,
    time_distribution,
    write_discrimination_csv,
    write_status_csv,
    write_times_csv,
)
from benchgen.runner import SolverAdapter
from benchgen.scoring import comparable_from_record

from conftest import fabricate_graded_archive, naive_borda_totals

KNAPSACK = get_problem("knapsack")
NO_MEM = EvaluationLimits(mem_limit=None)


def graded_rows(n_graded, n_other=0):
    rows = [{"status": "graded", "time": 20.0 + i} for i in range(n_graded)]
    rows += [{"status": "too-easy-SAT", "time": 1.0} for _ in range(n_other)]
    return rows


def test_combined_set_samples_exactly_k(tmp_path):
    archive = fabricate_graded_archive(tmp_path / "a", "s1", graded_rows(183))
    combined = build_combined_set([archive], k=50, seed=4)
    assert len(combined.selections["s1"]) == 50
    assert len(set(combined.selections["s1"])) == 50


def test_combined_set_takes_all_when_scarce(tmp_path):
    archive = fabricate_graded_archive(tmp_path / "a", "s1", graded_rows(4))
    combined = build_combined_set([archive], k=50, seed=4)
    assert len(combined.selections["s1"]) == 4


def test_combined_set_k_zero_empty(tmp_path):
    archive = fabricate_graded_archive(tmp_path / "a", "s1", graded_rows(6))
    combined = build_combined_set([archive], k=0, seed=4)
    assert combined.selections["s1"] == []


def test_combined_set_warns_on_empty_campaign(tmp_path):
    archive = fabricate_graded_archive(tmp_path / "a", "s1", graded_rows(0, n_other=5))
    with pytest.warns(EmptyArchive):
        combined = build_combined_set([archive], k=50, seed=4)
    assert combined.selections["s1"] == []


def test_combined_set_rejects_sources_of_two_problems(tmp_path):
    knapsack = fabricate_graded_archive(tmp_path / "a", "s1", graded_rows(3))
    decision = fabricate_graded_archive(
        tmp_path / "b", "s2", graded_rows(3), problem="knapsack_decision"
    )
    with pytest.raises(ArchiveError, match=r"a \(knapsack\) with .*b \(knapsack_decision\)"):
        build_combined_set([knapsack, decision], k=5, seed=4)


def test_combined_set_deterministic_and_roundtrips(tmp_path):
    archive = fabricate_graded_archive(tmp_path / "a", "s1", graded_rows(30))
    c1 = build_combined_set([archive], k=10, seed=123)
    c2 = build_combined_set([archive], k=10, seed=123)
    assert c1.selections == c2.selections
    path = tmp_path / "combined.json"
    c1.save(path)
    assert CombinedSet.load(path).to_jsonable() == c1.to_jsonable()


def test_status_frequencies_fractions(tmp_path):
    rows = graded_rows(4, n_other=6)
    archive = fabricate_graded_archive(tmp_path / "a", "s1", rows)
    table = status_frequencies(archive)
    assert table["graded"] == (4, 0.4)
    assert sum(f for _, f in table.values()) == pytest.approx(1.0, abs=1e-9)


def test_status_frequencies_empty_archive(tmp_path):
    archive = fabricate_graded_archive(tmp_path / "a", "s1", [])
    assert status_frequencies(archive) == {}


def test_time_distribution_quartiles(tmp_path):
    rows = [{"status": "graded", "time": t} for t in (10.0, 20.0, 30.0, 40.0)]
    archive = fabricate_graded_archive(tmp_path / "a", "s1", rows)
    summary = time_distribution(archive)["s1"]
    assert summary.times == [10.0, 20.0, 30.0, 40.0]


def test_time_distribution_single_instance(tmp_path):
    archive = fabricate_graded_archive(tmp_path / "a", "s1", [{"status": "graded", "time": 33.0}])
    summary = time_distribution(archive)["s1"]
    assert summary.times == [33.0]


def test_time_distribution_local_search_uses_time_to_best(tmp_path):
    rows = [{"status": "graded", "time": 500.0, "time_to_best": 42.0}]
    archive = fabricate_graded_archive(
        tmp_path / "a", "ls", rows, solver_kind="local_search"
    )
    assert time_distribution(archive)["ls"].times == [42.0]


def test_discrimination_report_counts_and_scores(tmp_path):
    meta_entries = [
        {"status": "dis-found", "penalty": -4.0, "scores": [0.8, 0.2]},
        {"status": "dis-found", "penalty": -1e6, "scores": [1.0, 0.0]},
        {"status": "base-too-easy", "penalty": 0.0, "scores": [0.9, 0.1]},
    ]
    archive = fabricate_graded_archive(tmp_path / "a", "f", meta_entries)
    # Rewrite campaign kind: discrimination reports demand a discriminating archive.
    meta = archive.meta
    meta["campaign"] = "discriminating"
    (archive.root / "config.json").write_text(json.dumps(meta))
    report = discrimination_report(archive)
    assert report.count == 2
    assert report.favoured_scores == [0.8, 1.0]


def test_discrimination_report_empty(tmp_path):
    archive = fabricate_graded_archive(
        tmp_path / "a", "f", [{"status": "zero-scores", "penalty": 0.0}]
    )
    meta = archive.meta
    meta["campaign"] = "discriminating"
    (archive.root / "config.json").write_text(json.dumps(meta))
    report = discrimination_report(archive)
    assert report.count == 0 and report.favoured_scores == []


def test_evaluate_combined_fast_solver_sweeps(tmp_path):
    archive = fabricate_graded_archive(tmp_path / "a", "s1", graded_rows(6))
    combined = build_combined_set([archive], k=5, seed=1)
    solvers = [
        SolverAdapter(name="quick", builtin="synthetic:1"),
        SolverAdapter(name="never", builtin="synthetic:10000"),  # beyond t_max
    ]
    result = evaluate_combined(combined, solvers, KNAPSACK, t_max=60.0, limits=NO_MEM)
    n = len(combined.all_instance_ids())
    assert result.borda.totals["quick"] == pytest.approx(float(n))
    assert result.borda.totals["never"] == 0.0
    assert result.ranking()[0][0] == "quick"


def test_evaluate_combined_matches_naive_reference(tmp_path):
    archive = fabricate_graded_archive(tmp_path / "a", "s1", graded_rows(5))
    combined = build_combined_set([archive], k=4, seed=2)
    solvers = [
        SolverAdapter(name="exact", builtin="exact"),
        SolverAdapter(name="steady", builtin="synthetic:3"),
        SolverAdapter(name="swift", builtin="synthetic:1"),
    ]
    result = evaluate_combined(combined, solvers, KNAPSACK, t_max=30.0, limits=NO_MEM)
    comparables = {
        key: comparable_from_record(rec, KNAPSACK.kind)
        for key, rec in result.records.items()
    }
    expected = naive_borda_totals(
        comparables, [s.name for s in solvers], combined.all_instance_ids()
    )
    for name, total in expected.items():
        assert result.borda.totals[name] == pytest.approx(total, abs=1e-12)


def test_evaluate_combined_flags_buggy_solver(tmp_path):
    archive = fabricate_graded_archive(tmp_path / "a", "s1", graded_rows(4))
    combined = build_combined_set([archive], k=4, seed=3)
    solvers = [
        SolverAdapter(name="exact", builtin="exact"),
        SolverAdapter(name="liar", builtin="buggy"),
    ]
    result = evaluate_combined(
        combined, solvers, KNAPSACK, t_max=30.0, limits=NO_MEM, out_dir=tmp_path / "out"
    )
    assert result.answered["liar"] > 0
    assert result.flagged["liar"] == result.answered["liar"]
    assert result.flagged["exact"] == 0
    assert (tmp_path / "out" / "borda.json").exists()
    assert (tmp_path / "out" / "pair_scores.csv").exists()


def test_evaluate_combined_keeps_external_runs_under_out_dir(tmp_path, monkeypatch):
    archive = fabricate_graded_archive(tmp_path / "a", "s1", graded_rows(3))
    combined = build_combined_set([archive], k=3, seed=1)
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    unsat = f'{sys.executable} -c "print(\'=====UNSATISFIABLE=====\')"'
    unsat += " {model} {instance} {time_limit_ms}"
    out = tmp_path / "out"
    solvers = [SolverAdapter(name="ext", command=unsat)]
    evaluate_combined(combined, solvers, KNAPSACK, t_max=5.0, out_dir=out)
    assert len(list((out / "runs").glob("run_*/run.log"))) == 3
    assert list(tmp.iterdir()) == []


def test_export_roundtrips(tmp_path):
    archive = fabricate_graded_archive(tmp_path / "a", "s1", graded_rows(7, n_other=3))
    freq = status_frequencies(archive)
    write_status_csv(tmp_path / "freq.csv", freq)
    assert read_status_csv(tmp_path / "freq.csv") == freq

    times = time_distribution(archive)
    write_times_csv(tmp_path / "times.csv", times)
    back = read_times_csv(tmp_path / "times.csv")
    assert {k: v.times for k, v in back.items()} == {k: v.times for k, v in times.items()}

    entries = [
        {"status": "dis-found", "penalty": -4.0, "scores": [0.8, 0.2]},
        {"status": "dis-found", "penalty": -2.5, "scores": [0.7142857142857143, 0.2857142857142857]},
    ]
    dis_archive = fabricate_graded_archive(tmp_path / "d", "f", entries)
    meta = dis_archive.meta
    meta["campaign"] = "discriminating"
    (dis_archive.root / "config.json").write_text(json.dumps(meta))
    report = discrimination_report(dis_archive)
    write_discrimination_csv(tmp_path / "dis.csv", report)
    back = read_discrimination_csv(tmp_path / "dis.csv")
    assert back.favoured_scores == report.favoured_scores
    assert back.penalties == report.penalties
    assert back.instance_ids == report.instance_ids
