"""CLI subcommands driven end to end on a tiny campaign."""

import json
import os
import re
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

import pytest

import benchgen
from benchgen.cli import main, parse_mem_limit
from benchgen.expressions import MAX_DEPTH

from conftest import GENERATOR_MODEL, fabricate_graded_archive, killed_copy


@pytest.fixture
def workspace(tmp_path, campaign_config_text):
    (tmp_path / "knapsack.gen").write_text(GENERATOR_MODEL)
    (tmp_path / "campaign.ini").write_text(campaign_config_text(solver="band"))
    return tmp_path


def test_parse_mem_limit():
    assert parse_mem_limit("8G") == 8 * 1024**3
    assert parse_mem_limit("512m") == 512 * 1024**2
    assert parse_mem_limit("1024") == 1024
    assert parse_mem_limit("none") is None


def test_tune_report_combine_evaluate_check(workspace, capsys):
    config = str(workspace / "campaign.ini")
    out = workspace / "camp"

    assert main(["tune", config, "--out", str(out), "--budget", "30"]) == 0
    stdout = capsys.readouterr().out
    assert "campaign: graded" in stdout
    assert (out / "records" / "evals.jsonl").exists()

    assert main(["report", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "graded" in stdout
    assert (out / "reports" / "status_frequencies.csv").exists()

    combined_path = workspace / "combined.json"
    assert main(["combine", str(out), "--k", "5", "--seed", "3", "--out", str(combined_path)]) == 0
    capsys.readouterr()
    combined = json.loads(combined_path.read_text())
    assert combined["selections"]

    eval_out = workspace / "eval"
    assert main([
        "evaluate", str(combined_path),
        "--solvers", "exact,band",
        "--config", config,
        "--t-max", "30",
        "--mem-limit", "none",
        "--out", str(eval_out),
    ]) == 0
    stdout = capsys.readouterr().out
    assert "Borda ranking" in stdout
    assert (eval_out / "borda.json").exists()

    assert main(["check", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "re-checked" in stdout


def test_tune_discriminating_via_flags(workspace, capsys):
    config = str(workspace / "campaign.ini")
    out = workspace / "dis"
    code = main([
        "tune", config,
        "--out", str(out),
        "--budget", "30",
        "--favoured", "falling",
        "--base", "rising",
        "--t-min", "2.5",
        "--t-max", "10",
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "campaign: discriminating" in stdout
    meta = json.loads((out / "config.json").read_text())
    assert meta["campaign"] == "discriminating"
    assert meta["favoured"]["name"] == "falling"

    assert main(["report", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "discriminating instances:" in stdout
    assert (out / "reports" / "discrimination.csv").exists()


def test_tune_resume_flag(workspace, capsys):
    config = str(workspace / "campaign.ini")
    full = workspace / "full"
    assert main(["tune", config, "--out", str(full), "--budget", "24"]) == 0
    out = killed_copy(full, workspace / "resume", 12)
    capsys.readouterr()
    assert main(["tune", config, "--out", str(out), "--budget", "24", "--resume"]) == 0
    capsys.readouterr()
    lines = (out / "tuner.log").read_text().strip().splitlines()
    assert len(lines) == 24


@pytest.fixture
def ill_defined(workspace):
    """The workspace with a parameter n whose values below 5 give weight a negative shape."""
    ini, gen = workspace / "campaign.ini", workspace / "knapsack.gen"
    ini.write_text(ini.read_text().replace("cap_t: 1..50\n", "cap_t: 1..100\nn: 1..10\n"))
    gen.write_text(gen.read_text().replace("var weight[2]", "var weight[n - 5]"))
    return workspace


def test_an_ill_defined_configuration_is_discarded_and_the_campaign_goes_on(ill_defined, capsys):
    out = ill_defined / "camp"
    assert main(["tune", str(ill_defined / "campaign.ini"), "--out", str(out)]) == 0
    capsys.readouterr()
    records = [json.loads(line) for line in (out / "records" / "evals.jsonl").read_text().splitlines()]
    assert len(records) == 30
    ill = [r for r in records if r["generator_outcome"] == "ill_defined"]
    assert ill == [r for r in records if r["assignment"]["n"] < 5] != []
    for record in ill:
        assert record["status"] == "generator-unsolved" and record["penalty"] == float("inf")
        assert record["instance_id"] is None and record["records"] == {}


def test_a_campaign_cut_after_an_ill_defined_record_resumes_byte_identical(ill_defined, capsys):
    config, full = str(ill_defined / "campaign.ini"), ill_defined / "full"
    assert main(["tune", config, "--out", str(full)]) == 0
    records = (full / "records" / "evals.jsonl").read_text().splitlines()
    cut = 1 + next(i for i, line in enumerate(records) if '"ill_defined"' in line)
    out = killed_copy(full, ill_defined / "resume", cut)
    assert main(["tune", config, "--out", str(out), "--resume"]) == 0
    capsys.readouterr()
    for name in ("tuner.log", "records/evals.jsonl", "history.json"):
        assert (out / name).read_bytes() == (full / name).read_bytes(), name


DEEP_MODEL_CONFIG = """
[space]
n: 1100..1200

[generator]
model: deep.gen

[campaign]
kind = graded
problem = knapsack
solver = one
t_min = 0.5
t_max = 5
budget = 12
seed = 11
translate_limit = 30
solve_limit = 30
mem_limit = none

[solver.one]
builtin = synthetic:1
"""


def test_tune_on_a_model_deeper_than_the_recursion_limit(tmp_path, capsys):
    # Over 1,100 CSP variables: one search level each, more than the
    # interpreter's default recursion limit of 1,000 frames.
    (tmp_path / "deep.gen").write_text("var a[n] : int 0..1\nconstraint sum(a) >= 0\n")
    (tmp_path / "campaign.ini").write_text(DEEP_MODEL_CONFIG)
    out = tmp_path / "camp"
    assert main(["tune", str(tmp_path / "campaign.ini"), "--out", str(out)]) == 0
    capsys.readouterr()
    records = (out / "records" / "evals.jsonl").read_text().splitlines()
    assert len(records) == 12
    assert all(json.loads(r)["generator_outcome"] == "solution" for r in records)


def test_tune_resume_with_another_seed_is_reported(workspace, capsys):
    config = str(workspace / "campaign.ini")
    out = workspace / "resume"
    assert main(["tune", config, "--out", str(out), "--budget", "12"]) == 0
    capsys.readouterr()
    assert main(["tune", config, "--out", str(out), "--budget", "12", "--seed", "12", "--resume"]) == 2
    assert capsys.readouterr().err.startswith("error: cannot resume")
    assert len((out / "tuner.log").read_text().splitlines()) == 12


def test_tune_resume_with_another_t_max_is_reported(workspace, capsys):
    config = str(workspace / "campaign.ini")
    out = workspace / "resume"
    assert main(["tune", config, "--out", str(out), "--budget", "12"]) == 0
    capsys.readouterr()
    assert main(["tune", config, "--out", str(out), "--budget", "12", "--t-max", "3", "--resume"]) == 2
    assert capsys.readouterr().err.startswith("error: cannot resume")
    assert len((out / "tuner.log").read_text().splitlines()) == 12


def files_of(root: Path) -> dict:
    return {path.relative_to(root): path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("budget", [10, 60], ids=["below", "above"])
def test_resume_with_another_budget_is_reported_and_changes_nothing(workspace, capsys, budget):
    config = str(workspace / "campaign.ini")
    out = workspace / "resume"
    assert main(["tune", config, "--out", str(out), "--budget", "30"]) == 0
    recorded = len((out / "records" / "evals.jsonl").read_text().splitlines())
    assert recorded == 30
    before = files_of(out)
    capsys.readouterr()
    assert main(["tune", config, "--out", str(out), "--budget", str(budget), "--resume"]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot resume {out}: total_budget {budget} differs from the recorded 30\n"
    )
    assert files_of(out) == before


def test_resume_needs_no_inst_but_check_reports_a_missing_one(workspace, capsys):
    config = str(workspace / "campaign.ini")
    full = workspace / "full"
    assert main(["tune", config, "--out", str(full), "--budget", "36"]) == 0
    out = killed_copy(full, workspace / "camp", 24)
    entries = [json.loads(line) for line in (out / "records" / "evals.jsonl").read_text().splitlines()]
    gone = next(e["instance_id"] for e in entries if e["instance_id"] and any(
        r.get("solution") is not None for r in e["records"].values()))
    (out / "instances" / f"{gone}.inst").unlink()
    capsys.readouterr()
    # Resume counts the recorded instances from evals.jsonl alone.
    assert main(["tune", config, "--out", str(out), "--budget", "36", "--resume"]) == 0
    capsys.readouterr()
    assert main(["check", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: unknown instance {gone}")


@pytest.mark.parametrize("name", ["space.txt", "generator.model", "config.json"])
def test_resume_of_an_archive_without_one_of_its_files_is_reported_and_writes_nothing(workspace, capsys, name):
    config = str(workspace / "campaign.ini")
    out = workspace / "camp"
    assert main(["tune", config, "--out", str(out), "--budget", "12"]) == 0
    (out / name).unlink()
    before = files_of(out)
    capsys.readouterr()
    assert main(["tune", config, "--out", str(out), "--budget", "12", "--resume"]) == 2
    assert capsys.readouterr().err == {
        "space.txt": f"error: cannot read {out / 'space.txt'}: No such file or directory\n",
        "generator.model": f"error: cannot read {out / 'generator.model'}: No such file or directory\n",
        "config.json": f"error: {out} already holds campaign records; it has no config.json\n",
    }[name]
    assert files_of(out) == before


@pytest.mark.parametrize("name", ["space.txt", "generator.model"])
def test_resume_of_an_archive_with_a_file_that_is_not_utf8_is_reported_and_writes_nothing(workspace, capsys, name):
    config = str(workspace / "campaign.ini")
    out = workspace / "camp"
    assert main(["tune", config, "--out", str(out), "--budget", "12"]) == 0
    (out / name).write_bytes(b"\xff" + (out / name).read_bytes())
    before = files_of(out)
    capsys.readouterr()
    assert main(["tune", config, "--out", str(out), "--budget", "12", "--resume"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {out / name}: 'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1
    assert files_of(out) == before


@pytest.mark.parametrize("command", ["check", "evaluate"])
@pytest.mark.parametrize("bad", ["directory", "unparsable", "not-utf-8"])
def test_an_inst_that_cannot_be_read_is_reported_with_its_path(workspace, capsys, command, bad):
    if command == "check":
        camp = workspace / "camp"
        assert main(["tune", str(workspace / "campaign.ini"), "--out", str(camp), "--budget", "24"]) == 0
        entries = map(json.loads, (camp / "records" / "evals.jsonl").read_text().splitlines())
        iid = next(e["instance_id"] for e in entries
                   if e["instance_id"] and any(r.get("solution") is not None for r in e["records"].values()))
        argv = ["check", str(camp)]
    else:
        combined = combined_set(workspace)
        camp, iid = workspace / "graded", json.loads(combined.read_text())["selections"]["band"][0]
        argv = ["evaluate", str(combined), "--solvers", "exact", "--out", str(workspace / "eval")]
    inst = camp / "instances" / f"{iid}.inst"
    inst.unlink()
    if bad == "directory":
        inst.mkdir()
    elif bad == "unparsable":
        inst.write_text("garbage [\n")
    else:
        inst.write_bytes(b"x = \xff\n")
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == {
        "directory": f"error: cannot read {inst}: Is a directory\n",
        "unparsable": f"error: {inst}: expected 'name = value', got 'garbage ['\n",
        "not-utf-8": f"error: cannot read {inst}: 'utf-8' codec can't decode byte 0xff in position 4: "
                     "invalid start byte\n",
    }[bad]
    assert not (workspace / "eval").exists()


def test_missing_config_is_reported(tmp_path, capsys):
    code = main(["tune", str(tmp_path / "absent.ini"), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_missing_generator_model_is_reported(workspace, capsys):
    config = workspace / "campaign.ini"
    config.write_text(config.read_text().replace("model: knapsack.gen", "model: absent.gen"))
    assert main(["tune", str(config), "--out", str(workspace / "camp")]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: cannot read {workspace / 'absent.gen'}: "
    )
    assert not (workspace / "camp").exists()


def test_a_generator_model_that_is_not_utf8_is_reported(workspace, capsys):
    model = workspace / "knapsack.gen"
    model.write_bytes(b"\xff\xfe" + model.read_bytes())
    assert main(["tune", str(workspace / "campaign.ini"), "--out", str(workspace / "camp")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {model}: 'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1
    assert not (workspace / "camp").exists()


@pytest.mark.parametrize(
    "line, bad, message",
    [
        ("budget = 30", "budget = abc", "[campaign] budget must be an integer, got 'abc'"),
        ("translate_limit = 5", "translate_limit = fast",
         "[campaign] translate_limit must be a number, got 'fast'"),
    ],
    ids=["budget", "translate-limit"],
)
def test_non_numeric_campaign_value_is_reported(workspace, capsys, line, bad, message):
    config = workspace / "campaign.ini"
    assert line in config.read_text()
    config.write_text(config.read_text().replace(line, bad))
    assert main(["tune", str(config), "--out", str(workspace / "camp")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not (workspace / "camp").exists()


@pytest.mark.parametrize(
    "section, line",
    [("campaign", "budgte = 20"), ("campaign", "tmin = 2"), ("generator", "modle: knapsack.gen"),
     ("solver.band", "bultin = exact")],
    ids=["budgte", "tmin", "modle", "bultin"],
)
def test_a_campaign_file_key_that_nothing_reads_is_refused(workspace, capsys, section, line):
    ini = workspace / "campaign.ini"
    ini.write_text(ini.read_text().replace(f"[{section}]\n", f"[{section}]\n{line}\n"))
    key = line.split()[0].rstrip(":")
    combined = combined_set(workspace)
    capsys.readouterr()
    for argv in (["tune", str(ini), "--out", str(workspace / "camp")],
                 ["evaluate", str(combined), "--solvers", "band", "--config", str(ini)]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith(f"error: [{section}] has no key {key!r}; it reads ")
    assert not (workspace / "camp").exists()


def combined_set(workspace: Path) -> Path:
    graded = fabricate_graded_archive(workspace / "graded", "band", [{"status": "graded"}] * 3)
    path = workspace / "combined.json"
    assert main(["combine", str(graded.root), "--k", "3", "--seed", "3", "--out", str(path)]) == 0
    return path


PINNED_COMBINED = """{
  "seed": 3,
  "k": 3,
  "sources": {
    "band": "TMP/a",
    "band#2": "TMP/b"
  },
  "selections": {
    "band": [
      "gfake0000-0000",
      "gfake0001-0000",
      "gfake0002-0000"
    ],
    "band#2": [
      "gfake0000-0000",
      "gfake0001-0000"
    ]
  }
}"""


def test_combine_writes_combined_json_pinned_byte_for_byte(tmp_path, capsys):
    a = fabricate_graded_archive(tmp_path / "a", "band", [{"status": "graded"}] * 4)
    b = fabricate_graded_archive(tmp_path / "b", "band", [{"status": "graded"}] * 2 + [{"status": "too-easy-SAT"}])
    out = tmp_path / "combined.json"
    assert main(["combine", str(a.root), str(b.root), "--k", "3", "--seed", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_text().replace(str(tmp_path), "TMP") == PINNED_COMBINED


@pytest.mark.parametrize(
    "text",
    [
        "[campaign]\nbudget = 3\nbudget = 4\n",
        "budget = 3\n",
        "[solver.x]\ncommand = run 50%\n",
        b"[campaign]\nbudget = \xff\n",
    ],
    ids=["repeated-key", "no-section-header", "bad-interpolation", "not-utf-8"],
)
@pytest.mark.parametrize("command", ["tune", "evaluate"])
def test_config_file_that_does_not_parse_is_reported(workspace, capsys, command, text):
    bad = workspace / "bad.ini"
    bad.write_bytes(text if isinstance(text, bytes) else text.encode())
    if command == "tune":
        argv = ["tune", str(bad), "--out", str(workspace / "camp")]
    else:
        argv = ["evaluate", str(combined_set(workspace)), "--solvers", "exact", "--config", str(bad)]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot parse config file {bad}: ")
    assert len(err.splitlines()) == 1
    assert not (workspace / "camp").exists()


def test_malformed_synthetic_latency_is_reported_before_the_campaign(workspace, capsys):
    config = workspace / "campaign.ini"
    line = "builtin = synthetic:capacity / 10"
    assert line in config.read_text()
    config.write_text(config.read_text().replace(line, "builtin = synthetic:capacity /"))
    assert main(["tune", str(config), "--out", str(workspace / "camp")]) == 2
    assert capsys.readouterr().err == (
        "error: builtin solver 'synthetic:capacity /': latency expression: unexpected end of expression\n"
    )
    assert not (workspace / "camp").exists()


@pytest.mark.parametrize(
    "old, new",
    [
        ("constraint capacity = cap_t", "constraint capacity = " + "1" * 5000),
        ("constraint capacity = cap_t", "constraint capacity = " + "(" * 3000 + "cap_t" + ")" * 3000),
        ("constraint capacity = cap_t", "constraint capacity" + " + 0" * MAX_DEPTH + " = cap_t"),
        ("cap_t: 1..50", "cap_t: 1.." + "1" * 5000),
        ("synthetic:capacity / 10", "synthetic:" + "1" * 5000),
    ],
    ids=["model-digits", "model-parentheses", "model-depth", "space-digits", "latency-digits"],
)
def test_tune_reports_text_python_cannot_hold_as_an_error(workspace, capsys, old, new):
    for name in ("knapsack.gen", "campaign.ini"):
        path = workspace / name
        path.write_text(path.read_text().replace(old, new, 1))
    assert new in (workspace / "knapsack.gen").read_text() + (workspace / "campaign.ini").read_text()
    assert main(["tune", str(workspace / "campaign.ini"), "--out", str(workspace / "camp")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not (workspace / "camp").exists()


def test_a_model_expression_that_does_not_parse_is_reported_with_its_line(workspace, capsys):
    (workspace / "knapsack.gen").write_text("var capacity : int 1..50\nconstraint capacity /\n")
    assert main(["tune", str(workspace / "campaign.ini"), "--out", str(workspace / "camp")]) == 2
    assert capsys.readouterr().err == "error: line 2: unexpected end of expression\n"
    assert not (workspace / "camp").exists()


@pytest.mark.parametrize(
    "old, new, flags",
    [("budget = 30", "budget = " + "1" * 5000, []), ("", "", ["--solver", "synthetic:" + "1" * 5000])],
    ids=["campaign-budget", "solver-flag"],
)
def test_a_long_value_is_cut_in_its_error(workspace, capsys, old, new, flags):
    ini = workspace / "campaign.ini"
    ini.write_text(ini.read_text().replace(old, new))
    assert main(["tune", str(ini), "--out", str(workspace / "camp")] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err) < 200
    assert not (workspace / "camp").exists()


@pytest.mark.parametrize(
    "command, reason",
    [
        ("solve {model} {instance} {time_limit_ms} {", "Single '{'"),
        ('solve "{model} {instance} {time_limit_ms}', "No closing quotation"),
        ("solve {model} {instance} {time_limit_ms} {seeed}", "KeyError('seeed')"),
    ],
    ids=["stray-brace", "open-quote", "unknown-placeholder"],
)
def test_malformed_command_template_is_reported_before_the_campaign(workspace, capsys, command, reason):
    config = workspace / "campaign.ini"
    text = config.read_text()
    assert "solver = band" in text
    text = text.replace("solver = band", "solver = ext") + f"\n[solver.ext]\ncommand = {command}\n"
    config.write_text(text)
    assert main(["tune", str(config), "--out", str(workspace / "camp")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad command template ") and reason in err
    assert len(err.splitlines()) == 1
    assert not (workspace / "camp").exists()


def test_tune_refuses_more_workers_than_usable_cpus_when_every_solver_is_external(
    workspace, capsys, monkeypatch
):
    script = workspace / "unsat.sh"
    script.write_text("echo =====UNSATISFIABLE=====\n")
    config = workspace / "campaign.ini"
    text = config.read_text()
    assert "solver = band" in text
    command = f"sh {script} {{model}} {{instance}} {{time_limit_ms}}"
    config.write_text(text.replace("solver = band", "solver = ext") + f"\n[solver.ext]\ncommand = {command}\n")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    tune = ["tune", str(config), "--budget", "12"]
    assert main(tune + ["--out", str(workspace / "two"), "--workers", "2"]) == 2
    assert capsys.readouterr().err == (
        "error: workers 2 exceeds the 1 CPU(s) this process may use:"
        " external runs that share a CPU record longer times\n"
    )
    assert not (workspace / "two").exists()
    assert main(tune + ["--out", str(workspace / "one"), "--workers", "1"]) == 0
    assert "evaluations: 12" in capsys.readouterr().out


@pytest.mark.parametrize("t_max", ["-1", "0", "nan"])
def test_evaluate_with_a_t_max_that_is_not_positive_is_reported(workspace, capsys, t_max):
    combined = combined_set(workspace)
    capsys.readouterr()
    out = workspace / "eval"
    argv = ["evaluate", str(combined), "--solvers", "exact", f"--t-max={t_max}", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: t_max must be positive, got {float(t_max)}\n"
    assert not out.exists()


def test_evaluate_with_an_infinite_t_max_is_reported(workspace, capsys):
    combined = combined_set(workspace)
    capsys.readouterr()
    out = workspace / "eval"
    argv = ["evaluate", str(combined), "--solvers", "exact", "--t-max=inf", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: t_max must be finite, got inf\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "line, message",
    [
        ("translate_limit = -1", "translate_limit must be positive and finite, got -1.0"),
        ("solve_limit = nan", "solve_limit must be positive and finite, got nan"),
        ("t_max = inf", "need 0 < t_min < t_max < inf, got 2.0, inf"),
        ("oracle_budget = inf", "oracle_budget must be positive and finite, got inf"),
    ],
)
def test_a_campaign_limit_that_is_not_positive_and_finite_is_refused(workspace, capsys, line, message):
    config = workspace / "campaign.ini"
    key = line.split()[0]
    text = re.sub(rf"(?m)^{key} = .*\n", "", config.read_text())
    config.write_text(text.replace("[campaign]\n", f"[campaign]\n{line}\n"))
    out = workspace / "camp"
    assert main(["tune", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_evaluate_with_a_solver_named_twice_is_reported(workspace, capsys):
    combined = combined_set(workspace)
    capsys.readouterr()
    out = workspace / "eval"
    argv = ["evaluate", str(combined), "--solvers", "exact,exact", "--config",
            str(workspace / "campaign.ini"), "--t-max", "30", "--mem-limit", "none", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: solver 'exact' is named more than once\n"
    assert not out.exists()


def test_evaluate_of_a_set_of_two_problems_needs_the_problem_named(workspace, capsys):
    knapsack = fabricate_graded_archive(workspace / "a", "band", [{"status": "graded"}] * 3)
    decision = fabricate_graded_archive(
        workspace / "b", "exact", [{"status": "graded"}] * 3, problem="knapsack_decision"
    )
    path = workspace / "combined.json"
    path.write_text(json.dumps({
        "selections": {"band": [], "exact": []},
        "sources": {"band": str(knapsack.root), "exact": str(decision.root)},
        "seed": 0,
        "k": 5,
    }))
    out = workspace / "eval"
    assert main(["evaluate", str(path), "--solvers", "exact", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: combined set {path} mixes the problems knapsack, knapsack_decision"
        "; name one with --problem\n"
    )
    assert not out.exists()
    assert main(["evaluate", str(path), "--solvers", "exact", "--problem", "knapsack"]) == 0


def test_tune_into_a_regular_file_is_reported(workspace, capsys):
    out = workspace / "taken"
    out.write_text("not a directory\n")
    assert main(["tune", str(workspace / "campaign.ini"), "--out", str(out), "--budget", "12"]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot create a campaign archive at {out}")
    assert out.read_text() == "not a directory\n"


@pytest.mark.parametrize("target", ["taken", "taken/sub"], ids=["file", "below-a-file"])
def test_evaluate_into_a_path_that_cannot_be_a_directory_runs_no_solver(workspace, capsys, monkeypatch, target):
    combined = combined_set(workspace)
    (workspace / "taken").write_text("not a directory\n")
    runs, run_solver = [], benchgen.report.run_solver
    monkeypatch.setattr(benchgen.report, "run_solver", lambda *args: runs.append(args) or run_solver(*args))
    out = workspace / target
    assert main(["evaluate", str(combined), "--solvers", "exact", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot create {out}: ")
    assert runs == []
    assert (workspace / "taken").read_text() == "not a directory\n"


@pytest.mark.parametrize("name", ["combined_evals.jsonl", "pair_scores.csv", "borda.json", "flags.json"])
def test_evaluate_output_that_cannot_be_written_is_reported(workspace, capsys, name):
    combined = combined_set(workspace)
    out = workspace / "eval"
    (out / name).mkdir(parents=True)
    assert main(["evaluate", str(combined), "--solvers", "exact", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out / name}: ")


def test_report_into_a_reports_file_is_reported(workspace, capsys):
    graded = fabricate_graded_archive(workspace / "graded", "band", [{"status": "graded"}] * 3)
    reports = graded.root / "reports"
    reports.rmdir()
    reports.write_text("not a directory\n")
    assert main(["report", str(graded.root)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot create {reports}: ")


@pytest.mark.parametrize("command", ["report", "check", "combine", "resume"])
def test_a_config_json_that_is_not_a_json_object_is_reported(workspace, capsys, command):
    config = str(workspace / "campaign.ini")
    out = workspace / "camp"
    assert main(["tune", config, "--out", str(out), "--budget", "12"]) == 0
    meta = out / "config.json"
    meta.write_text(meta.read_text()[:40])  # truncated
    capsys.readouterr()
    argv = {
        "report": ["report", str(out)],
        "check": ["check", str(out)],
        "combine": ["combine", str(out), "--out", str(workspace / "combined.json")],
        "resume": ["tune", config, "--out", str(out), "--budget", "12", "--resume"],
    }[command]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {meta}: not a JSON object\n"


@pytest.mark.parametrize("command", ["report", "check", "combine", "evaluate", "resume"])
def test_a_config_json_that_cannot_be_read_is_reported(workspace, capsys, command):
    config = str(workspace / "campaign.ini")
    out = workspace / "camp"
    assert main(["tune", config, "--out", str(out), "--budget", "12"]) == 0
    combined = workspace / "combined.json"
    assert main(["combine", str(out), "--out", str(combined)]) == 0
    meta = out / "config.json"
    meta.unlink()
    meta.mkdir()
    capsys.readouterr()
    argv = {
        "report": ["report", str(out)],
        "check": ["check", str(out)],
        "combine": ["combine", str(out), "--out", str(combined)],
        "evaluate": ["evaluate", str(combined), "--solvers", "band", "--config", config],
        "resume": ["tune", config, "--out", str(out), "--budget", "12", "--resume"],
    }[command]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {meta}: ")


DISCRIMINATING = ["--favoured", "falling", "--base", "rising", "--t-min", "2.5", "--t-max", "10"]


@pytest.mark.parametrize(
    "flags, change, command, why",
    [
        ([], lambda meta: meta.pop("problem"), "check", "no 'problem'"),
        ([], lambda meta: meta.pop("problem"), "combine", "no 'problem'"),
        ([], lambda meta: meta.pop("problem"), "evaluate", "no 'problem'"),
        ([], lambda meta: meta.update(solver={}), "combine", "no 'solver.name'"),
        (DISCRIMINATING, lambda meta: meta.pop("campaign"), "report", "no 'campaign'"),
        (DISCRIMINATING, lambda meta: meta.update(campaign="Discriminating"), "report",
         "campaign 'Discriminating' is not 'graded' or 'discriminating'"),
    ],
    ids=["check-no-problem", "combine-no-problem", "evaluate-no-problem", "combine-no-solver-name",
         "report-no-campaign", "report-unknown-campaign"],
)
def test_a_config_json_key_that_a_command_reads_and_cannot_is_reported(
    workspace, capsys, flags, change, command, why
):
    config = str(workspace / "campaign.ini")
    out = workspace / "camp"
    assert main(["tune", config, "--out", str(out), "--budget", "12", *flags]) == 0
    combined = workspace / "combined.json"
    if command == "evaluate":
        assert main(["combine", str(out), "--out", str(combined)]) == 0
    meta = out / "config.json"
    data = json.loads(meta.read_text())
    change(data)
    meta.write_text(json.dumps(data))
    capsys.readouterr()
    argv = {
        "report": ["report", str(out)],
        "check": ["check", str(out)],
        "combine": ["combine", str(out), "--out", str(combined)],
        "evaluate": ["evaluate", str(combined), "--solvers", "band", "--config", config],
    }[command]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {meta}: {why}\n"


def test_a_history_json_that_cannot_be_written_is_reported_after_the_records(workspace, capsys):
    config = str(workspace / "campaign.ini")
    assert main(["tune", config, "--out", str(workspace / "reference"), "--budget", "12"]) == 0
    out = workspace / "camp"
    (out / "history.json").mkdir(parents=True)
    capsys.readouterr()
    assert main(["tune", config, "--out", str(out), "--budget", "12"]) == 2
    assert capsys.readouterr().err == f"error: cannot write {out / 'history.json'}: Is a directory\n"
    for name in ("records/evals.jsonl", "tuner.log"):
        assert (out / name).read_bytes() == (workspace / "reference" / name).read_bytes()


@pytest.mark.parametrize("command", ["report", "check", "combine", "resume"])
def test_an_evals_jsonl_that_cannot_be_read_is_reported(workspace, capsys, command):
    config = str(workspace / "campaign.ini")
    out = workspace / "camp"
    assert main(["tune", config, "--out", str(out), "--budget", "12"]) == 0
    evals = out / "records" / "evals.jsonl"
    evals.unlink()
    evals.mkdir()
    capsys.readouterr()
    argv = {
        "report": ["report", str(out)],
        "check": ["check", str(out)],
        "combine": ["combine", str(out), "--out", str(workspace / "combined.json")],
        "resume": ["tune", config, "--out", str(out), "--budget", "12", "--resume"],
    }[command]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: cannot read {evals}: Is a directory\n"


def test_a_resume_whose_tuner_log_cannot_be_written_is_reported_and_changes_nothing(workspace, capsys):
    config = str(workspace / "campaign.ini")
    out = workspace / "camp"
    assert main(["tune", config, "--out", str(out), "--budget", "12"]) == 0
    log = out / "tuner.log"
    log.unlink()
    log.mkdir()
    before = files_of(out)
    capsys.readouterr()
    assert main(["tune", config, "--out", str(out), "--budget", "12", "--resume"]) == 2
    assert capsys.readouterr().err == f"error: cannot write {log}: Is a directory\n"
    assert files_of(out) == before


@pytest.mark.parametrize(
    "content, reason",
    [
        (None, "cannot read {path}: No such file or directory"),
        ("{not json", "combined set {path} is not JSON"),
        ('{"selections": {}, "sources": {}, "seed": 0}', "{path} is not a combined set"),
        ('{"selections": {}, "sources": {}, "seed": 0, "k": 5}', "combined set {path} names no source"),
        (
            '{"selections": ["a"], "sources": {}, "seed": 0, "k": 5}',
            "{path} is not a combined set: selections ['a'] is not an object",
        ),
        (
            '{"selections": {"a": ["i1"]}, "sources": {"b": "camp"}, "seed": 0, "k": 5}',
            "{path} is not a combined set: selection 'a' has no source",
        ),
        (
            '{"selections": {"a": ["i1"]}, "sources": {"a": 1}, "seed": 0, "k": 5}',
            "{path} is not a combined set: sources.a 1 is not a string",
        ),
        (
            '{"selections": {"a": ["i1"]}, "sources": {"a": "camp"}, "seed": 0, "k": "5"}',
            "{path} is not a combined set: k '5' is not an integer",
        ),
    ],
    ids=[
        "missing", "not-json", "lacks-k", "no-sources",
        "list-selections", "unsourced-label", "non-string-source", "string-k",
    ],
)
def test_bad_combined_set_is_reported(workspace, capsys, content, reason):
    path = workspace / "combined.json"
    if content is not None:
        path.write_text(content)
    assert main(["evaluate", str(path), "--solvers", "exact"]) == 2
    assert capsys.readouterr().err.startswith("error: " + reason.format(path=path))


def test_combine_into_an_unwritable_path_is_reported(workspace, capsys):
    graded = fabricate_graded_archive(workspace / "graded", "band", [{"status": "graded"}] * 3)
    out = workspace / "absent" / "combined.json"
    assert main(["combine", str(graded.root), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {out}: No such file or directory\n"
    assert not out.parent.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["combine", "{graded}", "--k", "-1", "--out", "{ws}/combined.json"],
        ["tune", "{ws}/campaign.ini", "--out", "{ws}/camp", "--budget", "-1"],
        ["tune", "{ws}/campaign.ini", "--out", "{ws}/camp", "--mem-limit", "lots"],
        ["tune", "{ws}/campaign.ini", "--out", "{ws}/camp", "--mem-limit=-1G"],
        ["tune", "{ws}/campaign.ini", "--out", "{ws}/camp", "--mem-limit", "0"],
        ["tune", "{ws}/campaign.ini", "--out", "{ws}/camp", "--workers", "0"],
        ["tune", "{ws}/campaign.ini", "--out", "{ws}/camp", "--workers=-1"],
    ],
    ids=[
        "combine-negative-k",
        "tune-negative-budget",
        "tune-bad-mem-limit",
        "tune-negative-mem-limit",
        "tune-zero-mem-limit",
        "tune-zero-workers",
        "tune-negative-workers",
    ],
)
def test_bad_input_is_reported_not_raised(workspace, capsys, argv):
    graded = fabricate_graded_archive(
        workspace / "graded", "band", [{"status": "graded"}] * 3
    )
    argv = [a.format(ws=workspace, graded=graded.root) for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_check_detects_planted_corruption(workspace, capsys):
    config = str(workspace / "campaign.ini")
    out = workspace / "camp2"
    assert main(["tune", config, "--out", str(out), "--budget", "18"]) == 0
    capsys.readouterr()

    # Corrupt one archived record: claim a solution that overfills the knapsack.
    evals_path = out / "records" / "evals.jsonl"
    entries = [json.loads(l) for l in evals_path.read_text().splitlines()]
    target = next(e for e in entries if e.get("instance_id") and e["records"])
    solver = next(iter(target["records"]))
    target["records"][solver]["solution"] = {"take": [9, 9]}
    target["records"][solver]["status"] = "sat"
    target["records"][solver]["objective"] = 1
    evals_path.write_text("\n".join(json.dumps(e) for e in entries) + "\n")

    assert main(["check", str(out)]) == 1
    assert "FAILED re-verification" in capsys.readouterr().out


def test_check_reads_each_instance_once(workspace, capsys, monkeypatch):
    out = workspace / "dis"
    assert main([
        "tune", str(workspace / "campaign.ini"), "--out", str(out), "--budget", "30",
        "--favoured", "falling", "--base", "rising", "--t-min", "2.5", "--t-max", "10",
    ]) == 0
    capsys.readouterr()
    entries = [json.loads(l) for l in (out / "records" / "evals.jsonl").read_text().splitlines()]
    solved = [
        [raw for raw in e.get("records", {}).values() if raw.get("solution") is not None]
        for e in entries if e.get("instance_id")
    ]
    assert any(len(records) > 1 for records in solved)  # the case a second read would serve

    from benchgen.archive import CampaignArchive

    reads = []
    instance_values = CampaignArchive.instance_values
    monkeypatch.setattr(
        CampaignArchive, "instance_values", lambda self, i: reads.append(i) or instance_values(self, i)
    )
    assert main(["check", str(out)]) == 0
    assert len(reads) == len(set(reads)) == sum(1 for records in solved if records)
    checked = sum(len(records) for records in solved)
    assert capsys.readouterr().out == f"re-checked {checked} archived solutions, 0 failures\n"


def test_check_compares_the_objective_of_a_timed_out_answer(tmp_path, capsys):
    archive = fabricate_graded_archive(tmp_path / "camp", "band", [{"status": "too-difficult"}])
    evals_path = archive.root / "records" / "evals.jsonl"
    (entry,) = [json.loads(l) for l in evals_path.read_text().splitlines()]
    # A feasible answer (item 1: weight 2, value 3) reported with a wrong objective.
    entry["records"]["band"].update(status="timeout", solution={"take": [1, 0, 0]}, objective=99)
    evals_path.write_text(json.dumps(entry) + "\n")

    assert main(["check", str(archive.root)]) == 1
    out = capsys.readouterr().out
    assert "objective mismatch: reported 99, recomputed 3" in out
    assert "re-checked 1 archived solutions, 1 failures" in out


def test_evaluate_leaves_no_run_directories_in_tmp(workspace, capsys, monkeypatch):
    ini = workspace / "campaign.ini"
    unsat = f'{sys.executable} -c "print(\'=====UNSATISFIABLE=====\')"'
    ini.write_text(
        ini.read_text() + f"\n[solver.ext]\ncommand = {unsat} {{model}} {{instance}} {{time_limit_ms}}\n"
    )
    out = workspace / "camp"
    assert main(["tune", str(ini), "--out", str(out), "--budget", "30"]) == 0
    combined = workspace / "combined.json"
    assert main(["combine", str(out), "--k", "3", "--seed", "3", "--out", str(combined)]) == 0
    tmp = workspace / "tmp"
    tmp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    evaluate = ["evaluate", str(combined), "--solvers", "ext,band", "--config", str(ini),
                "--t-max", "30", "--mem-limit", "none"]

    assert main(evaluate) == 0
    assert list(tmp.iterdir()) == []

    assert main(evaluate + ["--out", str(workspace / "eval")]) == 0
    assert list(tmp.iterdir()) == []
    assert list((workspace / "eval" / "runs").glob("run_*"))
    capsys.readouterr()


def test_evaluate_passes_the_memory_cap_to_external_runs(workspace, capsys):
    script = workspace / "cap.sh"
    script.write_text('echo "% cap $(ulimit -v)"\necho =====UNSATISFIABLE=====\n')
    ini = workspace / "campaign.ini"
    command = f"sh {script} {{model}} {{instance}} {{time_limit_ms}}"
    ini.write_text(ini.read_text() + f"\n[solver.cap]\ncommand = {command}\n")
    graded = fabricate_graded_archive(workspace / "graded", "band", [{"status": "graded"}] * 3)
    combined = workspace / "combined.json"
    assert main(["combine", str(graded.root), "--k", "3", "--seed", "3", "--out", str(combined)]) == 0
    out = workspace / "eval"
    assert main(["evaluate", str(combined), "--solvers", "cap", "--config", str(ini),
                 "--t-max", "30", "--mem-limit", "512M", "--out", str(out)]) == 0
    logs = list((out / "runs").glob("run_*/run.log"))
    assert len(logs) == 3
    for log in logs:
        assert "% cap 524288\n" in log.read_text()
    capsys.readouterr()


NO_SCIPY_QUICK_START = """
import sys
sys.modules["scipy"] = None  # any import of scipy now fails
import benchgen.cli
heavy = sorted(m for m, mod in sys.modules.items() if mod and m.split(".")[0] in ("scipy", "numpy"))
assert not heavy, heavy
ws = sys.argv[1]
assert benchgen.cli.main(["tune", ws + "/campaign.ini", "--out", ws + "/camp", "--budget", "24"]) == 0
assert benchgen.cli.main(["report", ws + "/camp"]) == 0
assert benchgen.cli.main(["check", ws + "/camp"]) == 0
"""


def test_quick_start_runs_without_scipy(workspace):
    src = str(Path(benchgen.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_QUICK_START, str(workspace)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert (workspace / "camp" / "reports" / "status_frequencies.csv").exists()


HELD_RESUME = """
import sys, time
from pathlib import Path
import benchgen.campaign, benchgen.cli

evaluate, ws = benchgen.campaign.evaluate_configuration, Path(sys.argv[1])

def held(*args, **kwargs):
    # At its first new evaluation the campaign holds the archive: say so and
    # wait until the test has run a second campaign on it.
    if not (ws / "started").exists():
        (ws / "started").touch()
        while not (ws / "go").exists():
            time.sleep(0.005)
    return evaluate(*args, **kwargs)

benchgen.campaign.evaluate_configuration = held
sys.exit(benchgen.cli.main(sys.argv[2:]))
"""


def test_concurrent_resumes_leave_the_archive_of_one(workspace):
    config = str(workspace / "campaign.ini")
    single, shared = workspace / "single", workspace / "shared"
    assert main(["tune", config, "--out", str(workspace / "full"), "--budget", "40"]) == 0
    for out in (single, shared):
        killed_copy(workspace / "full", out, 12)
    assert main(["tune", config, "--out", str(single), "--budget", "40", "--resume"]) == 0
    resume = ["tune", config, "--out", str(shared), "--budget", "40", "--resume"]
    src = str(Path(benchgen.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    with subprocess.Popen(
        [sys.executable, "-c", HELD_RESUME, str(workspace), *resume],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as first:
        deadline = time.monotonic() + 60
        while not (workspace / "started").exists():
            assert first.poll() is None and time.monotonic() < deadline
            time.sleep(0.005)
        second = subprocess.run(
            [sys.executable, "-m", "benchgen.cli", *resume],
            env=env, capture_output=True, text=True, timeout=120,
        )
        (workspace / "go").touch()
        _, first_err = first.communicate(timeout=120)
    assert first.returncode == 0, first_err
    assert second.returncode == 2
    assert second.stderr == f"error: archive in use: another campaign is writing {shared}\n"

    def files(root):
        return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    assert files(shared) == files(single)


def test_a_duplicated_seq_is_rejected_by_every_reader(workspace, capsys):
    config = str(workspace / "campaign.ini")
    out = workspace / "camp"
    assert main(["tune", config, "--out", str(out), "--budget", "12"]) == 0
    evals = out / "records" / "evals.jsonl"
    lines = evals.read_text().splitlines(keepends=True)
    evals.write_text("".join(lines[:5] + lines[4:]))  # record 5 twice, as two writers leave it
    capsys.readouterr()
    for command in (["tune", config, "--out", str(out), "--budget", "12", "--resume"],
                    ["report", str(out)], ["check", str(out)]):
        assert main(command) == 2, command
        assert capsys.readouterr().err == f"error: {evals} line 6: seq 5 is not the record's position 6\n"


@pytest.mark.parametrize(
    "line",
    [b'{"seq": 4, "stat', b"[4]", b"null", b'{"seq": 4, "note": "\xff"}'],
    ids=["not-json", "array", "null", "not-utf-8"],
)
def test_a_corrupt_record_line_is_reported_by_report_and_check(workspace, capsys, line):
    config = str(workspace / "campaign.ini")
    out = workspace / "camp"
    assert main(["tune", config, "--out", str(out), "--budget", "12"]) == 0
    evals = out / "records" / "evals.jsonl"
    lines = evals.read_bytes().splitlines(keepends=True)
    lines[3] = line + b"\n"
    evals.write_bytes(b"".join(lines))
    capsys.readouterr()
    for command in (["report", str(out)], ["check", str(out)]):
        assert main(command) == 2, command
        assert capsys.readouterr().err == f"error: {evals} line 4: not a JSON object\n"


DEFAULTS_INI = """
[space]
cap_t: 1..50

[generator]
model: knapsack.gen

[campaign]
kind = graded
problem = knapsack
solver = band
t_min = 2
t_max = 5

[solver.band]
builtin = synthetic:capacity / 10
"""


def test_tune_given_no_budget_seed_workers_or_limits_records_the_defaults(tmp_path, capsys):
    (tmp_path / "knapsack.gen").write_text(GENERATOR_MODEL)
    (tmp_path / "campaign.ini").write_text(DEFAULTS_INI)
    out = tmp_path / "camp"
    assert main(["tune", str(tmp_path / "campaign.ini"), "--out", str(out)]) == 0
    capsys.readouterr()
    # As text, so the order of the keys is pinned too.
    assert (out / "config.json").read_text() == json.dumps({
        "campaign": "graded",
        "problem": "knapsack",
        "solver": {"name": "band", "kind": "complete", "builtin": "synthetic:capacity / 10", "command": None},
        "t_min": 2.0,
        "t_max": 5.0,
        "types": ["SAT", "UNSAT"],
        "oracle": None,
        "oracle_budget": None,
        "seed": 0,
        "total_budget": 2000,
        "limits": {"translate_limit": 300.0, "solve_limit": 600.0, "mem_limit": 8 * 1024**3},
    }, indent=2)


# Each tune flag: its value, the [campaign] keys set beside it (its own key with
# another value), where run_campaign reads the setting, and what it reads there
# with the flag and without it.
DIS = {"kind": "discriminating", "favoured": "falling", "base": "rising"}
TUNE_FLAGS = {
    "--budget": ("7", {"budget": "30"}, lambda run: run["tuner_config"].total_budget, 7, 30),
    "--t-min": ("3", {"t_min": "2"}, lambda run: run["policy"].t_min, 3.0, 2.0),
    "--t-max": ("9", {"t_max": "5"}, lambda run: run["policy"].t_max, 9.0, 5.0),
    "--types": ("sat", {"types": "unsat"}, lambda run: run["policy"].types, {"SAT"}, {"UNSAT"}),
    "--solver": ("rising", {"solver": "band"}, lambda run: run["policy"].solver.name, "rising", "band"),
    "--favoured": ("band", DIS, lambda run: run["policy"].favoured.name, "band", "falling"),
    "--base": ("band", DIS, lambda run: run["policy"].base.name, "band", "rising"),
    "--seed": ("5", {"seed": "11"}, lambda run: run["tuner_config"].seed, 5, 11),
    "--workers": ("3", {"workers": "2"}, lambda run: run["tuner_config"].workers, 3, 2),
    "--mem-limit": ("512M", {"mem_limit": "none"}, lambda run: run["limits"].mem_limit, 512 * 1024**2, None),
}


@pytest.mark.parametrize("flag_given", [True, False], ids=["flag", "key"])
@pytest.mark.parametrize("flag", TUNE_FLAGS)
def test_a_tune_flag_overrides_its_campaign_key(workspace, capsys, monkeypatch, flag, flag_given):
    value, keys, setting, with_flag, with_key = TUNE_FLAGS[flag]
    ini = workspace / "campaign.ini"
    text = ini.read_text()
    for key in keys:
        text = re.sub(rf"(?m)^{key} = .*\n", "", text)
    ini.write_text(text.replace("[campaign]\n", "[campaign]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())))
    run = {}

    def run_campaign(*args, **kwargs):
        run.update(zip(["out", "space_text", "model_text", "policy", "tuner_config", "limits"], args))
        report = types.SimpleNamespace(evaluations_used=0, iterations=0, status_counts={}, elites=[])
        return types.SimpleNamespace(report=report, archive=types.SimpleNamespace(root=args[0]))

    monkeypatch.setattr(benchgen.cli, "run_campaign", run_campaign)
    argv = ["tune", str(ini), "--out", str(workspace / "camp")] + ([flag, value] if flag_given else [])
    assert main(argv) == 0
    capsys.readouterr()
    assert setting(run) == (with_flag if flag_given else with_key)


@pytest.mark.parametrize(
    "keys, flags",
    [(DIS, []), ({"base": "rising"}, ["--favoured", "falling"]), ({"favoured": "falling"}, ["--base", "rising"])],
    ids=["kind-key", "favoured-flag", "base-flag"],
)
def test_a_tune_flag_the_campaign_kind_does_not_read_stops_tune(workspace, capsys, keys, flags):
    # The file keeps its graded solver key: one file may serve both kinds.
    ini = workspace / "campaign.ini"
    text = re.sub(r"(?m)^kind = .*\n", "", ini.read_text())
    ini.write_text(text.replace("[campaign]\n", "[campaign]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())))
    out = workspace / "camp"
    assert main(["tune", str(ini), "--out", str(out), "--solver", "band", *flags]) == 2
    assert capsys.readouterr().err == "error: --solver applies to a graded campaign; this one is discriminating\n"
    assert not out.exists()


@pytest.mark.parametrize("flags, mem_limit", [([], 8 * 1024**3), (["--mem-limit", "none"], None),
                                              (["--mem-limit", "512M"], 512 * 1024**2)])
def test_evaluate_caps_memory_at_8g_unless_told(workspace, capsys, monkeypatch, flags, mem_limit):
    graded = fabricate_graded_archive(workspace / "graded", "band", [{"status": "graded"}] * 3)
    combined = workspace / "combined.json"
    assert main(["combine", str(graded.root), "--k", "3", "--seed", "3", "--out", str(combined)]) == 0
    seen = []

    def evaluate_combined(combined, solvers, problem, **kwargs):
        seen.append(kwargs["limits"])
        return types.SimpleNamespace(ranking=lambda: [], flagged={})

    monkeypatch.setattr(benchgen.cli, "evaluate_combined", evaluate_combined)
    assert main(["evaluate", str(combined), "--solvers", "exact", *flags]) == 0
    capsys.readouterr()
    assert [limits.mem_limit for limits in seen] == [mem_limit]


@pytest.mark.parametrize(
    "change, why",
    [
        ({"config_id": None}, "no 'config_id'"),
        ({"status": None}, "no 'status'"),
        ({"penalty": None}, "no 'penalty'"),
        ({"status": "bogus"}, "status 'bogus' is not a run status"),
        ({"status": ["graded"]}, "status ['graded'] is not a run status"),
        ({"status": "dis-found", "scores": None}, "no 'scores'"),
        ({"penalty": "x"}, "penalty 'x' is not a number"),
        ({"instance_id": 5}, "instance_id 5 is not a string"),
    ],
    ids=["no-config_id", "no-status", "no-penalty", "unknown-status", "unhashable-status",
         "dis-found-no-scores", "text-penalty", "number-instance_id"],
)
def test_a_record_without_what_readers_need_is_rejected_by_every_reader(workspace, capsys, change, why):
    config = str(workspace / "campaign.ini")
    out = workspace / "camp"
    assert main(["tune", config, "--out", str(out), "--budget", "12"]) == 0
    evals = out / "records" / "evals.jsonl"
    lines = evals.read_text().splitlines(keepends=True)
    entry = json.loads(lines[3])
    for key, value in change.items():
        if value is None:
            del entry[key]
        else:
            entry[key] = value
    lines[3] = json.dumps(entry) + "\n"
    evals.write_text("".join(lines))
    capsys.readouterr()
    for command in (["tune", config, "--out", str(out), "--budget", "12", "--resume"],
                    ["report", str(out)], ["check", str(out)],
                    ["combine", str(out), "--out", str(workspace / "combined.json")]):
        assert main(command) == 2, command
        assert capsys.readouterr().err == f"error: {evals} line 4: {why}\n"


JSON_NULL = object()  # a change that sets a key to null; None removes the key


@pytest.mark.parametrize(
    "change, why",
    [
        ({"records": [1, 2]}, "records [1, 2] is not an object"),
        ({"records": {"band": 5}}, "records.band 5 is not an object"),
        ({"time": None}, "no 'records.band.time'"),
        ({"trace": None}, "no 'records.band.trace'"),
        ({"status": "bogus"}, "records.band.status 'bogus' is not a status"),
        ({"solution": [1]}, "records.band.solution [1] is not an object"),
        ({"scores": [0.5]}, "scores [0.5] is not a list of 2 items"),
        ({"scores": ["0.5", 1.0]}, "scores[0] '0.5' is not a number"),
        ({"trace": 5}, "records.band.trace 5 is not a list"),
        ({"trace": [1, 2]}, "records.band.trace[0] 1 is not a list of 2 items"),
        ({"time": JSON_NULL}, "records.band.time None is not a number"),
        ({"time": "x"}, "records.band.time 'x' is not a number"),
        # Read as a failed re-verification (check exit 1) before records were decoded by type.
        ({"objective": "7"}, "records.band.objective '7' is not an integer"),
        # A set whose members are not a list: solution's codec refuses it.
        ({"solution": {"take": {"__set__": 5}}},
         "records.band.solution {'take': {'__set__': 5}} is not decodable ('int' object is not iterable)"),
    ],
    ids=["records-list", "record-not-object", "no-time", "no-trace", "unknown-status",
         "solution-list", "one-score", "text-score", "number-trace", "number-pairs-trace",
         "null-time", "text-time", "text-objective", "set-of-a-number"],
)
def test_a_solver_record_without_what_readers_need_is_rejected_by_every_reader(
    workspace, capsys, change, why
):
    config = str(workspace / "campaign.ini")
    out = workspace / "camp"
    assert main(["tune", config, "--out", str(out), "--budget", "12"]) == 0
    evals = out / "records" / "evals.jsonl"
    lines = evals.read_text().splitlines(keepends=True)
    index = next(i for i, line in enumerate(lines) if json.loads(line)["records"].get("band", {}).get("solution"))
    entry = json.loads(lines[index])
    for key, value in change.items():
        if key == "records":
            entry["records"] = value
        elif key == "scores":  # a dis-found record, whose scores the discrimination table reads
            entry.update(status="dis-found", scores=value)
        elif value is None:
            del entry["records"]["band"][key]
        else:
            entry["records"]["band"][key] = None if value is JSON_NULL else value
    lines[index] = json.dumps(entry) + "\n"
    evals.write_text("".join(lines))
    capsys.readouterr()
    for command in (["tune", config, "--out", str(out), "--budget", "12", "--resume"],
                    ["report", str(out)], ["check", str(out)],
                    ["combine", str(out), "--out", str(workspace / "combined.json")]):
        assert main(command) == 2, command
        assert capsys.readouterr().err == f"error: {evals} line {index + 1}: {why}\n"


def test_solver_records_archived_before_they_had_a_note_are_read_by_every_reader(workspace, capsys):
    config = str(workspace / "campaign.ini")
    out = workspace / "camp"
    assert main(["tune", config, "--out", str(out), "--budget", "12"]) == 0
    evals = out / "records" / "evals.jsonl"
    entries = [json.loads(line) for line in evals.read_text().splitlines()]
    for entry in entries:
        for record in entry["records"].values():
            del record["note"]
    evals.write_text("".join(json.dumps(entry) + "\n" for entry in entries))
    for command in (["report", str(out)], ["check", str(out)],
                    ["combine", str(out), "--out", str(workspace / "combined.json")],
                    ["tune", config, "--out", str(out), "--budget", "12", "--resume"]):
        assert main(command) == 0, command
    assert capsys.readouterr().err == ""
