"""Combined sets, frequency/time tables, cross-solver evaluation, exports."""

import json
import re
import sys
import tempfile

import pytest

from benchgen.campaign import run_campaign
from benchgen.cli import main
from benchgen.errors import ArchiveError
from benchgen.evaluate import EvaluationLimits, GradedPolicy
from benchgen.problems import get_problem
from benchgen.records import from_jsonable
from benchgen.report import (
    TABLES,
    CombinedEvaluation,
    CombinedSet,
    EmptyArchive,
    build_combined_set,
    evaluate_combined,
    read_borda_json,
    read_table,
    report_tables,
    write_reports,
)
from benchgen.runner import SolverAdapter, SolverRecord
from benchgen.scoring import borda_complete, comparable_from_record, pair_rows
from benchgen.tuner import TunerConfig

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
    assert CombinedSet.load(path) == c1


def test_status_frequencies_fractions(tmp_path):
    rows = graded_rows(4, n_other=6)
    archive = fabricate_graded_archive(tmp_path / "a", "s1", rows)
    table = {s: (n, f) for s, n, f in report_tables(archive)["status_frequencies.csv"]}
    assert table["graded"] == (4, 0.4)
    assert sum(f for _, f in table.values()) == pytest.approx(1.0, abs=1e-9)


def test_status_frequencies_empty_archive(tmp_path):
    archive = fabricate_graded_archive(tmp_path / "a", "s1", [])
    assert report_tables(archive)["status_frequencies.csv"] == []


def test_time_distribution_quartiles(tmp_path):
    rows = [{"status": "graded", "time": t} for t in (10.0, 20.0, 30.0, 40.0)]
    archive = fabricate_graded_archive(tmp_path / "a", "s1", rows)
    times = report_tables(archive)["graded_times.csv"]
    assert times == [("s1", 10.0), ("s1", 20.0), ("s1", 30.0), ("s1", 40.0)]


def test_time_distribution_single_instance(tmp_path):
    archive = fabricate_graded_archive(tmp_path / "a", "s1", [{"status": "graded", "time": 33.0}])
    assert report_tables(archive)["graded_times.csv"] == [("s1", 33.0)]


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
    rows = report_tables(archive)["discrimination.csv"]
    assert len(rows) == 2
    assert [score for _, score, _ in rows] == [0.8, 1.0]


def test_discrimination_report_empty(tmp_path):
    archive = fabricate_graded_archive(
        tmp_path / "a", "f", [{"status": "zero-scores", "penalty": 0.0}]
    )
    meta = archive.meta
    meta["campaign"] = "discriminating"
    (archive.root / "config.json").write_text(json.dumps(meta))
    rows = report_tables(archive)["discrimination.csv"]
    assert rows == []


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


def test_an_id_shared_by_two_sources_must_name_one_instance(tmp_path):
    # An instance id is unique within its campaign only: two campaigns over
    # one space share their ids, and with different models their instances.
    limits = EvaluationLimits(translate_limit=5.0, solve_limit=5.0, mem_limit=None)

    def campaign(name, constraint):
        model = (
            "var capacity : int 1..50\nvar weight[2] : int 1..9\nvar value[2] : int 1..9\n"
            f"constraint capacity = cap_t\nconstraint {constraint}\n"
        )
        solver = SolverAdapter(name=name, builtin="synthetic:3")
        policy = GradedPolicy(problem=KNAPSACK, solver=solver, t_min=2.0, t_max=5.0)
        return run_campaign(
            tmp_path / name, "cap_t: 1..3", model, policy, TunerConfig(total_budget=12, seed=5), limits
        ).archive

    a, a2 = campaign("a", "weight[1] <= 1"), campaign("a2", "weight[1] <= 1")
    b = campaign("b", "weight[1] >= 6")
    solvers = [SolverAdapter(name="exact", builtin="exact")]
    differing = build_combined_set([a, b], k=12, seed=1)
    shared = set(differing.selections["a"]) & set(differing.selections["b"])
    assert shared
    with pytest.raises(ArchiveError, match=f"instance g[0-9a-f]+-[0-9]{{4}} differs between {a.root} and {b.root}"):
        evaluate_combined(differing, solvers, KNAPSACK, t_max=5.0, limits=limits)
    # Equal instances under one id stay one instance.
    equal = build_combined_set([a, a2], k=12, seed=1)
    result = evaluate_combined(equal, solvers, KNAPSACK, t_max=5.0, limits=limits)
    assert len(equal.all_instance_ids()) == len(equal.selections["a"]) == len(result.records)


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


def test_evaluate_outputs_are_computed_from_its_records_alone(tmp_path):
    archive = fabricate_graded_archive(tmp_path / "a", "s1", graded_rows(4))
    combined = build_combined_set([archive], k=4, seed=3)
    # Not in sorted order, so flags.json must take the solvers' order from the table.
    solvers = [
        SolverAdapter(name="swift", builtin="synthetic:1"),
        SolverAdapter(name="liar", builtin="buggy"),
        SolverAdapter(name="exact", builtin="exact"),
    ]
    out = tmp_path / "out"
    evaluate_combined(combined, solvers, KNAPSACK, t_max=30.0, limits=NO_MEM, out_dir=out)
    lines = (out / "combined_evals.jsonl").read_text().splitlines()
    records = {
        (line["solver"], line["instance"]): from_jsonable(SolverRecord, line["record"])
        for line in map(json.loads, lines)
    }
    names, instance_ids = [s.name for s in solvers], combined.all_instance_ids()
    comparables = {key: comparable_from_record(record, KNAPSACK.kind) for key, record in records.items()}
    rows = pair_rows(comparables, names, instance_ids)
    assert read_table(out / "pair_scores.csv") == (TABLES["pair_scores.csv"], rows)
    borda = borda_complete(comparables, names, instance_ids)
    assert read_borda_json(out / "borda.json") == borda
    rebuilt = CombinedEvaluation(borda, records)
    assert rebuilt.flagged["liar"] > 0
    flags = {"flagged": rebuilt.flagged, "answered": rebuilt.answered}
    assert (out / "flags.json").read_text() == json.dumps(flags, indent=2)


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
    written = write_reports(archive)
    assert [path.name for path in written] == ["status_frequencies.csv", "graded_times.csv"]
    for path, rows in written.items():
        assert read_table(path) == (TABLES[path.name], rows)

    entries = [
        {"status": "dis-found", "penalty": -4.0, "scores": [0.8, 0.2]},
        {"status": "dis-found", "penalty": -2.5, "scores": [0.7142857142857143, 0.2857142857142857]},
    ]
    dis_archive = fabricate_graded_archive(tmp_path / "d", "f", entries)
    meta = dis_archive.meta
    meta["campaign"] = "discriminating"
    (dis_archive.root / "config.json").write_text(json.dumps(meta))
    written = write_reports(dis_archive)
    assert [path.name for path in written] == ["status_frequencies.csv", "discrimination.csv"]
    for path, rows in written.items():
        assert read_table(path) == (TABLES[path.name], rows)


def test_a_table_that_is_not_utf8_is_refused_with_its_path(tmp_path):
    path = tmp_path / "status_frequencies.csv"
    path.write_bytes(b"status,count,fraction\r\n\xff,1,1.0\r\n")
    with pytest.raises(ArchiveError, match=f"^cannot read {re.escape(str(path))}: 'utf-8' codec can't decode"):
        read_table(path)


@pytest.mark.parametrize(
    "text, reason",
    [
        ("{not json", "Borda table {path} is not JSON: "),
        ('{"solvers": [], "instances": [], "totals": {}}', "{path} is not a Borda table: it has no key 'cells'"),
        (
            '{"solvers": [], "instances": [], "totals": {}, "cells": [{"solver": "a", "score": 1}]}',
            "{path} is not a Borda table: it has no key 'instance'",
        ),
        ("[]", "{path} is not a Borda table: "),
    ],
    ids=["not-json", "no-cells", "cell-without-instance", "not-an-object"],
)
def test_a_borda_table_that_cannot_be_read_is_refused_with_its_path(tmp_path, text, reason):
    path = tmp_path / "borda.json"
    path.write_text(text)
    with pytest.raises(ArchiveError, match="^" + re.escape(reason.format(path=path))):
        read_borda_json(path)


def test_combine_reports_a_source_without_graded_instances_as_one_warning_line(tmp_path, capsys):
    fabricate_graded_archive(tmp_path / "c0", "s1", graded_rows(0, n_other=5))
    assert main(["combine", str(tmp_path / "c0"), "--out", str(tmp_path / "combined.json")]) == 0
    assert capsys.readouterr().err == f"warning: campaign {tmp_path / 'c0'} has no graded instances\n"


PINNED_GRADED = {
    "status_frequencies.csv": (
        "status,count,fraction\r\n"
        "generator-unsolved,1,0.14285714285714285\r\n"
        "graded,3,0.42857142857142855\r\n"
        "too-difficult,1,0.14285714285714285\r\n"
        "too-easy-SAT,2,0.2857142857142857\r\n"
    ),
    "graded_times.csv": "solver,time\r\nband,20.5\r\nband,33.333333333333336\r\nband,7.0\r\n",
}

PINNED_DISCRIMINATING = {
    "status_frequencies.csv": (
        "status,count,fraction\r\nbase-too-easy,1,0.2\r\ndis-found,3,0.6\r\nzero-scores,1,0.2\r\n"
    ),
    "discrimination.csv": (
        "instance,favoured_score,penalty\r\n"
        "gfake0000-0000,0.8,-4.0\r\n"
        "gfake0002-0000,1.0,-1000000.0\r\n"
        "gfake0003-0000,0.7142857142857143,-2.5\r\n"
    ),
}

PINNED_EVALUATION = {
    "pair_scores.csv": (
        "solver,instance,opponent,score\r\n"
        "quick,gfake0000-0000,slow,0.9523809523809523\r\n"
        "quick,gfake0000-0000,never,1.0\r\n"
        "slow,gfake0000-0000,quick,0.047619047619047616\r\n"
        "slow,gfake0000-0000,never,1.0\r\n"
        "never,gfake0000-0000,quick,0.0\r\n"
        "never,gfake0000-0000,slow,0.0\r\n"
        "quick,gfake0001-0000,slow,0.96\r\n"
        "quick,gfake0001-0000,never,1.0\r\n"
        "slow,gfake0001-0000,quick,0.04\r\n"
        "slow,gfake0001-0000,never,1.0\r\n"
        "never,gfake0001-0000,quick,0.0\r\n"
        "never,gfake0001-0000,slow,0.0\r\n"
    ),
    "borda.json": """{
  "solvers": [
    "quick",
    "slow",
    "never"
  ],
  "instances": [
    "gfake0000-0000",
    "gfake0001-0000"
  ],
  "totals": {
    "quick": 3.9123809523809525,
    "slow": 2.0876190476190475,
    "never": 0.0
  },
  "cells": [
    {
      "solver": "never",
      "instance": "gfake0000-0000",
      "score": 0.0
    },
    {
      "solver": "never",
      "instance": "gfake0001-0000",
      "score": 0.0
    },
    {
      "solver": "quick",
      "instance": "gfake0000-0000",
      "score": 1.9523809523809523
    },
    {
      "solver": "quick",
      "instance": "gfake0001-0000",
      "score": 1.96
    },
    {
      "solver": "slow",
      "instance": "gfake0000-0000",
      "score": 1.0476190476190477
    },
    {
      "solver": "slow",
      "instance": "gfake0001-0000",
      "score": 1.04
    }
  ]
}""",
}


def test_report_files_and_report_output_are_pinned_byte_for_byte(tmp_path, capsys):
    graded = fabricate_graded_archive(
        tmp_path / "g",
        "band",
        [
            {"status": "graded", "time": 20.5},
            {"status": "too-easy-SAT", "time": 1.0},
            {"status": "graded", "time": 100 / 3},
            {"status": "generator-unsolved", "with_instance": False, "penalty": 1.0},
            {"status": "too-difficult", "time": 1200.0},
            {"status": "graded", "time": 7.0, "time_to_best": 7.0},
            {"status": "too-easy-SAT", "time": 2.25},
        ],
        solver_kind="local_search",
    )
    dis = fabricate_graded_archive(
        tmp_path / "d",
        "fast",
        [
            {"status": "dis-found", "penalty": -4.0, "scores": [0.8, 0.2]},
            {"status": "base-too-easy", "penalty": 0.0, "scores": [0.9, 0.1]},
            {"status": "dis-found", "penalty": -1e6, "scores": [1.0, 0.0]},
            {"status": "dis-found", "penalty": -2.5, "scores": [0.7142857142857143, 0.2857142857142857]},
            {"status": "zero-scores", "penalty": 0.0, "scores": [0.0, 0.0]},
        ],
    )
    meta = dis.meta
    meta["campaign"] = "discriminating"
    (dis.root / "config.json").write_text(json.dumps(meta))

    for archive, pinned in ((graded, PINNED_GRADED), (dis, PINNED_DISCRIMINATING)):
        write_reports(archive)
        reports = archive.root / "reports"
        assert sorted(p.name for p in reports.iterdir()) == sorted(pinned)
        for name, text in pinned.items():
            assert (reports / name).read_bytes() == text.encode(), name

    assert main(["report", str(graded.root)]) == 0
    assert main(["report", str(dis.root)]) == 0
    assert capsys.readouterr().out.replace(str(tmp_path), "TMP") == (
        "evaluations: 7\n"
        "  generator-unsolved: 1 (14.3%)\n"
        "  graded: 3 (42.9%)\n"
        "  too-difficult: 1 (14.3%)\n"
        "  too-easy-SAT: 2 (28.6%)\n"
        "wrote TMP/g/reports/status_frequencies.csv\n"
        "wrote TMP/g/reports/graded_times.csv\n"
        "evaluations: 5\n"
        "  base-too-easy: 1 (20.0%)\n"
        "  dis-found: 3 (60.0%)\n"
        "  zero-scores: 1 (20.0%)\n"
        "discriminating instances: 3\n"
        "favoured-score distribution: min 0.714, median 0.800, max 1.000\n"
        "wrote TMP/d/reports/status_frequencies.csv\n"
        "wrote TMP/d/reports/discrimination.csv\n"
    )

    two = fabricate_graded_archive(tmp_path / "t", "band", graded_rows(2))
    combined = build_combined_set([two], k=2, seed=0)
    solvers = [
        SolverAdapter(name="quick", builtin="synthetic:capacity / 4"),
        SolverAdapter(name="slow", builtin="synthetic:capacity * capacity"),
        SolverAdapter(name="never", builtin="synthetic:10000"),
    ]
    out = tmp_path / "out"
    evaluate_combined(combined, solvers, KNAPSACK, t_max=60.0, limits=NO_MEM, out_dir=out)
    for name, text in PINNED_EVALUATION.items():
        assert (out / name).read_bytes() == text.encode(), name
