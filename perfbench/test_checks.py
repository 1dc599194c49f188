"""The benchmark's checks accept real archives and reject corrupted copies.

    python3 -m pytest perfbench

Each test builds a small archive with benchgen itself, copies it, plants
one fault in the copy and expects the matching check to raise.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

import pytest

import checks
import run
import workloads as wl

sys.path.insert(0, str(wl.SRC))

from benchgen import EvaluationLimits, GradedPolicy, SolverAdapter, TunerConfig, get_problem  # noqa: E402
from benchgen.campaign import run_campaign  # noqa: E402
import benchgen.cli  # noqa: E402


@pytest.fixture(scope="module")
def synth(tmp_path_factory):
    camp = tmp_path_factory.mktemp("synth") / "camp"
    name, builtin = wl.SYNTH_SOLVER
    policy = GradedPolicy(problem=get_problem("knapsack"), solver=SolverAdapter(name=name, builtin=builtin),
                          t_min=wl.SYNTH_BAND[0], t_max=wl.SYNTH_BAND[1])
    run_campaign(camp, wl.SYNTH_SPACE, wl.SYNTH_MODEL, policy, TunerConfig(total_budget=120, seed=3),
                 EvaluationLimits())
    return camp


@pytest.fixture(scope="module")
def quickstart(tmp_path_factory):
    """The quick-start commands run in-process: (workspace, outputs, resume digests)."""
    ws = tmp_path_factory.mktemp("cli") / "ws"
    wl.write_cli_workspace(ws)
    outputs, resume = [], []
    cwd = os.getcwd()
    os.chdir(ws)
    try:
        for label, argv in wl.cli_commands(5):
            if label == "resume":
                resume.append(checks.digest(ws / "camp_band"))
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                outputs.append((benchgen.cli.main(argv), stdout.getvalue()))
            if label == "resume":
                resume.append(checks.digest(ws / "camp_band"))
    finally:
        os.chdir(cwd)
    return ws, outputs, tuple(resume)


def copy(src, tmp_path):
    dst = tmp_path / src.name
    shutil.copytree(src, dst)
    return dst


def rewrite_evals(camp, change):
    """Apply ``change`` to the evaluation records and keep tuner.log in step,
    so that only the rule under test can object."""
    path = camp / "records" / "evals.jsonl"
    entries = [json.loads(line) for line in path.read_text().splitlines()]
    change(entries)
    path.write_text("".join(json.dumps(e) + "\n" for e in entries))
    log = camp / "tuner.log"
    lines = []
    for line, e in zip(log.read_text().splitlines(), entries):
        head = line.split(" penalty=")[0]
        lines.append(f"{head} penalty={e['penalty']!r} status={e['status']} instance={e['instance_id'] or '-'}\n")
    log.write_text("".join(lines))


def two_instances_of_one_config(camp):
    by_config = {}
    for e in checks.evaluations(camp):
        if e["instance_id"]:
            by_config.setdefault(e["config_id"], []).append(e["instance_id"])
    return next(ids[:2] for ids in by_config.values() if len(ids) >= 2)


def test_clean_archives_pass(synth, quickstart):
    checks.check_graded_synth(synth, wl.SYNTH_BAND, wl.ITEM_RANGE)
    ws, outputs, resume = quickstart
    run.check_cli_outputs(ws, outputs, resume)


def test_flipped_status_is_rejected(synth, tmp_path):
    camp = copy(synth, tmp_path)

    def flip(entries):
        target = next(e for e in entries if e["status"] == "graded")
        target["status"], target["penalty"] = "too-easy-SAT", 0.0

    rewrite_evals(camp, flip)
    with pytest.raises(checks.CheckFailed, match="expected graded"):
        checks.check_graded_synth(camp, wl.SYNTH_BAND, wl.ITEM_RANGE)


def test_repeated_instance_is_rejected(synth, tmp_path):
    camp = copy(synth, tmp_path)
    first, second = two_instances_of_one_config(camp)
    inst = camp / "instances"
    (inst / f"{second}.inst").write_text((inst / f"{first}.inst").read_text())
    with pytest.raises(checks.CheckFailed, match="repeats an earlier solution"):
        checks.check_graded_synth(camp, wl.SYNTH_BAND, wl.ITEM_RANGE)


def test_out_of_order_history_is_rejected(synth, tmp_path):
    camp = copy(synth, tmp_path)
    first, second = two_instances_of_one_config(camp)
    inst = camp / "instances"
    a, b = (inst / f"{first}.inst").read_text(), (inst / f"{second}.inst").read_text()
    (inst / f"{first}.inst").write_text(b)
    (inst / f"{second}.inst").write_text(a)
    with pytest.raises(checks.CheckFailed, match="not after its predecessor"):
        checks.check_graded_synth(camp, wl.SYNTH_BAND, wl.ITEM_RANGE)


def test_wrong_borda_total_is_rejected(quickstart, tmp_path):
    ws, outputs, resume = quickstart
    ws = copy(ws, tmp_path)
    path = ws / "eval_out" / "borda.json"
    borda = json.loads(path.read_text())
    borda["totals"]["exact"] += 0.5
    path.write_text(json.dumps(borda))
    with pytest.raises(checks.CheckFailed, match="Borda totals"):
        run.check_cli_outputs(ws, outputs, resume)


def test_resume_that_changed_the_log_is_rejected(quickstart, tmp_path):
    ws, outputs, _ = quickstart
    camp = copy(ws / "camp_band", tmp_path)
    before = checks.digest(camp)
    log = camp / "tuner.log"
    log.write_text("".join(log.read_text().splitlines(keepends=True)[:-1]))
    with pytest.raises(checks.CheckFailed, match="resume changed"):
        run.check_cli_outputs(ws, outputs, (before, checks.digest(camp)))


def test_wrong_discriminating_penalty_is_rejected(quickstart, tmp_path):
    ws, _, _ = quickstart
    camp = copy(ws / "camp_dis", tmp_path)

    def halve(entries):
        target = next(e for e in entries if e["status"] == "dis-found" and e["penalty"] > -1e6)
        target["penalty"] /= 2

    rewrite_evals(camp, halve)
    with pytest.raises(checks.CheckFailed, match="expected"):
        checks.check_discriminating(camp, wl.CLI_DIS_BAND)
