"""CLI subcommands driven end to end on a tiny campaign."""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import benchgen
from benchgen.cli import main, parse_mem_limit

from conftest import GENERATOR_MODEL, fabricate_graded_archive


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
    out = workspace / "resume"
    assert main(["tune", config, "--out", str(out), "--budget", "12"]) == 0
    capsys.readouterr()
    assert main(["tune", config, "--out", str(out), "--budget", "24", "--resume"]) == 0
    capsys.readouterr()
    lines = (out / "tuner.log").read_text().strip().splitlines()
    assert len(lines) == 24


def test_tune_resume_with_another_seed_is_reported(workspace, capsys):
    config = str(workspace / "campaign.ini")
    out = workspace / "resume"
    assert main(["tune", config, "--out", str(out), "--budget", "12"]) == 0
    capsys.readouterr()
    assert main(["tune", config, "--out", str(out), "--budget", "24", "--seed", "12", "--resume"]) == 2
    assert capsys.readouterr().err.startswith("error: cannot resume")
    assert len((out / "tuner.log").read_text().splitlines()) == 12


def test_tune_resume_with_another_t_max_is_reported(workspace, capsys):
    config = str(workspace / "campaign.ini")
    out = workspace / "resume"
    assert main(["tune", config, "--out", str(out), "--budget", "12"]) == 0
    capsys.readouterr()
    assert main(["tune", config, "--out", str(out), "--budget", "24", "--t-max", "3", "--resume"]) == 2
    assert capsys.readouterr().err.startswith("error: cannot resume")
    assert len((out / "tuner.log").read_text().splitlines()) == 12


def files_of(root: Path) -> dict:
    return {path.relative_to(root): path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


def test_resume_with_a_budget_below_the_records_is_reported_and_changes_nothing(workspace, capsys):
    config = str(workspace / "campaign.ini")
    out = workspace / "resume"
    assert main(["tune", config, "--out", str(out), "--budget", "30"]) == 0
    recorded = len((out / "records" / "evals.jsonl").read_text().splitlines())
    assert recorded == 30
    before = files_of(out)
    capsys.readouterr()
    assert main(["tune", config, "--out", str(out), "--budget", "10", "--resume"]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot resume {out}: budget 10 is below the 30 recorded evaluations\n"
    )
    assert files_of(out) == before


def test_resume_needs_no_inst_but_check_reports_a_missing_one(workspace, capsys):
    config = str(workspace / "campaign.ini")
    out = workspace / "camp"
    assert main(["tune", config, "--out", str(out), "--budget", "24"]) == 0
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


def test_missing_config_is_reported(tmp_path, capsys):
    code = main(["tune", str(tmp_path / "absent.ini"), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_missing_generator_model_is_reported(workspace, capsys):
    config = workspace / "campaign.ini"
    config.write_text(config.read_text().replace("model: knapsack.gen", "model: absent.gen"))
    assert main(["tune", str(config), "--out", str(workspace / "camp")]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: cannot read generator model {workspace / 'absent.gen'}"
    )
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


def combined_set(workspace: Path) -> Path:
    graded = fabricate_graded_archive(workspace / "graded", "band", [{"status": "graded"}] * 3)
    path = workspace / "combined.json"
    assert main(["combine", str(graded.root), "--k", "3", "--seed", "3", "--out", str(path)]) == 0
    return path


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


@pytest.mark.parametrize("t_max", ["-1", "0", "nan"])
def test_evaluate_with_a_t_max_that_is_not_positive_is_reported(workspace, capsys, t_max):
    combined = combined_set(workspace)
    capsys.readouterr()
    out = workspace / "eval"
    argv = ["evaluate", str(combined), "--solvers", "exact", f"--t-max={t_max}", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: t_max must be positive, got {float(t_max)}\n"
    assert not out.exists()


def test_tune_into_a_regular_file_is_reported(workspace, capsys):
    out = workspace / "taken"
    out.write_text("not a directory\n")
    assert main(["tune", str(workspace / "campaign.ini"), "--out", str(out), "--budget", "12"]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot create a campaign archive at {out}")
    assert out.read_text() == "not a directory\n"


@pytest.mark.parametrize(
    "content, reason",
    [
        (None, "cannot read the combined set {path}"),
        ("{not json", "combined set {path} is not JSON"),
        ('{"selections": {}, "sources": {}, "seed": 0}', "{path} is not a combined set"),
        ('{"selections": {}, "sources": {}, "seed": 0, "k": 5}', "combined set {path} names no source"),
        (
            '{"selections": ["a"], "sources": {}, "seed": 0, "k": 5}',
            "{path} is not a combined set: selections must map each label to a list",
        ),
        (
            '{"selections": {"a": ["i1"]}, "sources": {"b": "camp"}, "seed": 0, "k": 5}',
            "{path} is not a combined set: selection 'a' has no source",
        ),
        (
            '{"selections": {"a": ["i1"]}, "sources": {"a": 1}, "seed": 0, "k": 5}',
            "{path} is not a combined set: sources must map each label to an archive path",
        ),
        (
            '{"selections": {"a": ["i1"]}, "sources": {"a": "camp"}, "seed": 0, "k": "5"}',
            "{path} is not a combined set: seed and k must be integers",
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
    assert capsys.readouterr().err.startswith(f"error: cannot write the combined set {out}")
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
