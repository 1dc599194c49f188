"""End-to-end campaign runs: archiving, determinism, resume-by-replay."""

import io
import itertools
import json
import os
import re
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

import benchgen
from benchgen import archivewriter, campaign, cli, csp, evaluate, gensolve, ground
from benchgen.archive import CampaignArchive, Evaluation, graded_instance_ids, lock_archive
from benchgen.campaign import policy_meta, run_campaign
from benchgen.errors import ArchiveError
from benchgen.evaluate import DiscriminatingPolicy, EvaluationLimits, GradedPolicy
from benchgen.problems import get_problem
from benchgen.records import field_names, replace
from benchgen.runner import GenOutcome, RunStatus, SolverAdapter
from benchgen.tuner import TunerConfig
from benchgen.valuetext import values_to_jsonable

from conftest import capture_frames, crash_after, cut_at, killed_copy, tuner_log
from test_archive_digests import QUICK_START_MODEL, tune

KNAPSACK = get_problem("knapsack")
SPACE_TEXT = "cap_t: 1..50"
FAST_LIMITS = EvaluationLimits(translate_limit=5.0, solve_limit=5.0, mem_limit=None)


def banded_policy():
    # Latency capacity/10 seconds, graded band 2..5 -> capacity in [20, 50].
    return GradedPolicy(
        problem=KNAPSACK,
        solver=SolverAdapter(name="band", builtin="synthetic:capacity / 10"),
        t_min=2.0,
        t_max=5.0,
    )


def run(out, budget=30, seed=11, resume=False, model_text=None, space_text=SPACE_TEXT):
    return run_campaign(
        out,
        space_text,
        model_text or (
            "var capacity : int 1..50\n"
            "var weight[2] : int 1..9\n"
            "var value[2] : int 1..9\n"
            "constraint capacity = cap_t\n"
        ),
        banded_policy(),
        TunerConfig(total_budget=budget, seed=seed),
        FAST_LIMITS,
        resume=resume,
    )


def test_campaign_writes_archive_layout(tmp_path, generator_model_text):
    result = run(tmp_path / "camp", model_text=generator_model_text)
    root = result.archive.root
    for name in ("config.json", "space.txt", "generator.model", "tuner.log", "history.json"):
        assert (root / name).exists(), name
    assert (root / "records" / "evals.jsonl").exists()
    assert result.report.evaluations_used > 0
    assert result.archive.evaluation_count() == result.report.evaluations_used
    assert len(tuner_log(result.archive).strip().splitlines()) == result.report.evaluations_used


def test_campaign_archives_instances_with_sidecars(tmp_path, generator_model_text):
    result = run(tmp_path / "camp", model_text=generator_model_text)
    archive = result.archive
    ids = [e.instance_id for e in archive.evaluations() if e.instance_id]
    assert ids, "no instances archived"
    for iid in ids[:5]:
        values = archive.instance_values(iid)
        assert "capacity" in values and "weight" in values


def test_campaign_penalties_match_statuses(tmp_path, generator_model_text):
    result = run(tmp_path / "camp", model_text=generator_model_text)
    for entry in result.archive.evaluations():
        if entry.status.value == "graded":
            assert entry.penalty == -1.0
            record = next(iter(entry.records.values()))
            assert 2.0 <= record.time <= 5.0
        elif entry.status.value in ("too-easy-SAT", "too-difficult"):
            assert entry.penalty == 0.0


def test_campaign_deterministic_across_runs(tmp_path, generator_model_text):
    a = run(tmp_path / "a", model_text=generator_model_text)
    b = run(tmp_path / "b", model_text=generator_model_text)
    assert tuner_log(a.archive) == tuner_log(b.archive)
    evals = Path("records") / "evals.jsonl"
    assert (a.archive.root / evals).read_bytes() == (b.archive.root / evals).read_bytes()


def test_campaign_resume_replays_then_continues(tmp_path, generator_model_text):
    fresh = run(tmp_path / "full", budget=30, model_text=generator_model_text)
    partial = CampaignArchive.open(killed_copy(tmp_path / "full", tmp_path / "steps", 18))
    assert partial.evaluation_count() < fresh.report.evaluations_used
    resumed = run(tmp_path / "steps", budget=30, resume=True, model_text=generator_model_text)
    assert tuner_log(resumed.archive) == tuner_log(fresh.archive)
    assert resumed.report.evaluations_used == fresh.report.evaluations_used
    assert graded_instance_ids(resumed.archive) == graded_instance_ids(fresh.archive)
    seqs = [e.seq for e in resumed.archive.evaluations()]
    assert seqs == list(range(1, len(seqs) + 1))


def test_resume_at_the_quick_start_budget_reproduces_the_uninterrupted_run(tmp_path):
    full, out = tmp_path / "full", tmp_path / "steps"
    quick_start = dict(budget=300, seed=7, model_text=QUICK_START_MODEL, space_text="cap_t: 1..100")
    run(full, **quick_start)
    killed_copy(full, out, 150)
    run(out, resume=True, **quick_start)
    for name in ("tuner.log", "records/evals.jsonl"):
        assert (out / name).read_bytes() == (full / name).read_bytes(), name
    assert sorted(p.name for p in (out / "instances").iterdir()) == sorted(
        p.name for p in (full / "instances").iterdir()
    )


def archive_files(root):
    return {str(path.relative_to(root)): path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


def test_a_crash_at_every_writer_frame_resumes_byte_identical(tmp_path, monkeypatch):
    """A quick-start campaign is cut after each frame its writer applies,
    and inside each frame, and every cut resumes to the uninterrupted
    archive, ``history.json`` and every ``.inst`` included. The model keeps
    every generator solve far inside ``solve_limit``: a solve that ran out
    of time would make the resumed search differ from the kept one, and the
    resumed archive with it, whatever the crash."""
    quick_start = dict(budget=24, seed=7, model_text=QUICK_START_MODEL, space_text="cap_t: 1..100")
    full = tmp_path / "full"
    frames = capture_frames(monkeypatch)
    run(full, **quick_start)
    monkeypatch.undo()
    assert {name.split("/")[0] for name, _ in frames} == {"tuner.log", "instances", "records"}
    expected = archive_files(full)
    cuts = [(i, False) for i in range(len(frames) + 1)] + [(i, True) for i in range(len(frames))]
    for i, torn in cuts:
        out = cut_at(frames, i, torn, full, tmp_path / f"cut{i}{'-torn' * torn}")
        run(out, resume=True, **quick_start)
        assert archive_files(out) == expected, (i, torn)


CRASH_QUICK_START = dict(budget=24, seed=7, model_text=QUICK_START_MODEL, space_text="cap_t: 1..100")


@pytest.mark.filterwarnings("ignore::benchgen.report.EmptyArchive")
def test_every_crash_cut_is_read_by_report_check_and_combine(tmp_path, monkeypatch, capsys):
    """``report``, ``check`` and ``combine`` on the archive that a crash
    leaves after each writer frame of a quick-start campaign, and inside
    each frame, either succeed or exit 2 with one ``error:`` line; none
    ends in a traceback."""
    full = tmp_path / "full"
    frames = capture_frames(monkeypatch)
    run(full, **CRASH_QUICK_START)
    monkeypatch.undo()
    capsys.readouterr()
    cuts = [(i, False) for i in range(len(frames) + 1)] + [(i, True) for i in range(len(frames))]
    assert len(cuts) == 145
    for i, torn in cuts:
        out = str(cut_at(frames, i, torn, full, tmp_path / f"cut{i}{'-torn' * torn}"))
        # Only half a record is an error: the reader names the line, and a resume drops it.
        torn_record = torn and frames[i][0] == "records/evals.jsonl"
        for command in (["report", out], ["check", out], ["combine", out, "--out", out + ".json"]):
            code = cli.main(command)  # a traceback fails the test here
            err = capsys.readouterr().err
            if torn_record:
                assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, (command, err)
                assert "evals.jsonl line" in err
            else:
                assert (code, err) == (0, ""), (command, err)


# (i, j, torn): cut the campaign after its frame i, resume that cut, and
# cut the resume after its frame j, inside frame j when torn. Cut i holds
# r = i // 3 records, so the resume's first r frames replay their tuner.log
# lines: j < r cuts the replay, j >= r the evaluations after it.
RESUME_CUTS = [(6, 1, False), (6, 4, True), (30, 4, False), (30, 12, True),
               (31, 10, False), (47, 9, True), (47, 30, False), (71, 24, True)]


def test_a_crash_inside_a_resume_resumes_byte_identical(tmp_path, monkeypatch):
    """A resume of a crashed campaign that crashes itself, in its replay or
    after it, resumes once more to the uninterrupted archive. A resume
    starts from the cut with ``tuner.log`` emptied (``restart_log``) and
    writes the replayed lines again. Every generator solve stays far
    inside ``solve_limit``: a solve that ran out of time would leave the
    resumed search's place, and with it the archive, differing from the
    uninterrupted run's."""
    full = tmp_path / "full"
    frames = capture_frames(monkeypatch)
    run(full, **CRASH_QUICK_START)
    monkeypatch.undo()
    expected = archive_files(full)
    assert {j < i // 3 for i, j, _ in RESUME_CUTS} == {True, False}
    for n, (i, j, torn) in enumerate(RESUME_CUTS):
        first = cut_at(frames, i, False, full, tmp_path / f"{n}-first")
        second = cut_at(frames, i, False, full, tmp_path / f"{n}-second")
        resumed = capture_frames(monkeypatch)
        run(first, resume=True, **CRASH_QUICK_START)
        monkeypatch.undo()
        assert archive_files(first) == expected, (i, j)
        assert sum(name == "tuner.log" for name, _ in resumed[: i // 3]) == i // 3
        (second / "tuner.log").write_bytes(b"")
        crash_after(resumed, j, torn, second)
        run(second, resume=True, **CRASH_QUICK_START)
        assert archive_files(second) == expected, (i, j, torn)


@pytest.mark.parametrize(
    "flags", [[], ["--favoured", "fast", "--base", "band", "--t-min", "5", "--t-max", "12"], None],
    ids=["graded", "discriminating", "resumed"],
)
def test_tuner_log_is_a_view_of_the_records(tmp_path, flags):
    """Line i of tuner.log is record i's block, config, penalty, status and
    instance, after the race iteration, which never decreases."""
    camp = tune(tmp_path, "camp", *(flags or []))
    if flags is None:
        camp = killed_copy(camp, tmp_path / "resumed", 75)
        tune(tmp_path, "resumed", "--resume")
    lines = (camp / "tuner.log").read_text().splitlines()
    records = [json.loads(line) for line in records_of(camp)]
    assert len(lines) == len(records) == 150
    iterations = []
    for line, record in zip(lines, records):
        iteration, rest = re.fullmatch(r"iter=(\d+) (.*)", line).groups()
        assert rest == (
            f"step={record['block'] + 1} config={record['config_id']} penalty={record['penalty']!r} "
            f"status={record['status']} instance={record['instance_id'] or '-'}"
        )
        iterations.append(int(iteration))
    assert iterations == sorted(iterations)


def test_campaign_graded_instances_live_in_band(tmp_path, generator_model_text):
    result = run(tmp_path / "camp", budget=60, model_text=generator_model_text)
    archive = result.archive
    for iid in graded_instance_ids(archive):
        values = archive.instance_values(iid)
        assert 20 <= values["capacity"] <= 50


def test_policy_meta_roundtrip():
    graded = banded_policy()
    meta = json.loads(json.dumps(policy_meta(graded)))
    assert list(meta) == ["campaign", *field_names(graded)]
    assert meta["campaign"] == "graded" and meta["problem"] == "knapsack"
    assert meta["solver"]["builtin"] == graded.solver.builtin
    assert meta["t_min"] == graded.t_min

    dis = DiscriminatingPolicy(
        problem=KNAPSACK,
        favoured=SolverAdapter(name="f", builtin="synthetic:1"),
        base=SolverAdapter(name="b", builtin="synthetic:2"),
        t_min=1.0,
        t_max=4.0,
    )
    meta = json.loads(json.dumps(policy_meta(dis)))
    assert list(meta) == ["campaign", *field_names(dis)]
    assert meta["campaign"] == "discriminating"
    assert meta["favoured"]["name"] == "f" and meta["base"]["name"] == "b"


def test_campaign_archive_open_rejects_non_archive(tmp_path):
    from benchgen.errors import ArchiveError

    with pytest.raises(ArchiveError):
        CampaignArchive.open(tmp_path)


def test_campaign_refuses_unintended_overwrite(tmp_path, generator_model_text):
    from benchgen.errors import ArchiveError

    run(tmp_path / "camp", budget=12, model_text=generator_model_text)
    with pytest.raises(ArchiveError):
        run(tmp_path / "camp", budget=12, model_text=generator_model_text)


def test_resume_with_stale_history_keeps_instance_ids_unique(tmp_path, generator_model_text):
    # A crash between recording an evaluation and rewriting history.json
    # left the history one entry behind the records.
    run(tmp_path / "full", budget=60, model_text=generator_model_text)
    out = killed_copy(tmp_path / "full", tmp_path / "camp", 30)
    archive = CampaignArchive.open(out)
    last = [e for e in archive.evaluations() if e.instance_id][-1]
    history = Counter(e.config_id for e in archive.evaluations() if e.instance_id)
    history[last.config_id] -= 1
    (out / "history.json").write_text(json.dumps(history))
    before = {p.name: p.stat().st_mtime_ns for p in (out / "instances").glob("*.inst")}

    run(out, budget=60, resume=True, model_text=generator_model_text)
    ids = [e.instance_id for e in archive.evaluations() if e.instance_id]
    assert len(ids) > len(before)
    assert len(set(ids)) == len(ids)
    after = {p.name: p.stat().st_mtime_ns for p in (out / "instances").glob("*.inst")}
    assert {name: after[name] for name in before} == before


def test_resume_drops_torn_final_record(tmp_path, generator_model_text):
    fresh = run(tmp_path / "full", budget=30, model_text=generator_model_text)
    killed_copy(tmp_path / "full", tmp_path / "steps", 18)
    evals = tmp_path / "steps" / "records" / "evals.jsonl"
    complete = evals.read_text()
    # A crash in the middle of appending a record.
    evals.write_text(complete + complete.splitlines()[-1][:25])
    resumed = run(tmp_path / "steps", budget=30, resume=True, model_text=generator_model_text)
    assert tuner_log(resumed.archive) == tuner_log(fresh.archive)
    assert evals.read_text() == (tmp_path / "full" / "records" / "evals.jsonl").read_text()


def test_resume_keeps_unterminated_whole_record(tmp_path, generator_model_text):
    fresh = run(tmp_path / "full", budget=30, model_text=generator_model_text)
    killed_copy(tmp_path / "full", tmp_path / "steps", 18)
    evals = tmp_path / "steps" / "records" / "evals.jsonl"
    evals.write_text(evals.read_text().rstrip("\n"))
    run(tmp_path / "steps", budget=30, resume=True, model_text=generator_model_text)
    assert evals.read_text() == (tmp_path / "full" / "records" / "evals.jsonl").read_text()


def test_resume_still_rejects_corrupt_middle_record(tmp_path, generator_model_text):
    run(tmp_path / "full", budget=30, model_text=generator_model_text)
    killed_copy(tmp_path / "full", tmp_path / "camp", 18)
    evals = tmp_path / "camp" / "records" / "evals.jsonl"
    lines = evals.read_text().splitlines(keepends=True)
    lines[3] = lines[3][:25] + "\n"
    evals.write_text("".join(lines))
    with pytest.raises(ArchiveError, match="evals.jsonl line 4: not a JSON object"):
        run(tmp_path / "camp", budget=30, resume=True, model_text=generator_model_text)


def archive_files(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_resume_rejects_a_changed_space(tmp_path, generator_model_text):
    run(tmp_path / "camp", model_text=generator_model_text)
    before = archive_files(tmp_path / "camp")
    with pytest.raises(ArchiveError, match="space"):
        run(tmp_path / "camp", resume=True, model_text=generator_model_text, space_text="cap_t: 20..29")
    assert archive_files(tmp_path / "camp") == before


def test_resume_rejects_a_changed_model(tmp_path, generator_model_text):
    run(tmp_path / "camp", model_text=generator_model_text)
    before = archive_files(tmp_path / "camp")
    heavier = generator_model_text.replace("weight[2] : int 1..9", "weight[2] : int 20..29")
    with pytest.raises(ArchiveError, match="model"):
        run(tmp_path / "camp", resume=True, model_text=heavier)
    assert archive_files(tmp_path / "camp") == before


def test_resume_rejects_a_changed_seed(tmp_path, generator_model_text):
    run(tmp_path / "camp", seed=11, model_text=generator_model_text)
    before = archive_files(tmp_path / "camp")
    with pytest.raises(ArchiveError, match="seed"):
        run(tmp_path / "camp", seed=12, resume=True, model_text=generator_model_text)
    assert archive_files(tmp_path / "camp") == before


def test_a_resume_writes_no_config_json(tmp_path, generator_model_text, monkeypatch):
    run(tmp_path / "full", budget=30, model_text=generator_model_text)
    out = killed_copy(tmp_path / "full", tmp_path / "camp", 18)
    meta = out / "config.json"
    before = meta.read_bytes(), meta.stat().st_ino, meta.stat().st_mtime_ns
    written = []
    write_text = Path.write_text

    def recorded(path, *args, **kwargs):
        written.append(path.name)
        return write_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", recorded)
    archive = run(out, budget=30, resume=True, model_text=generator_model_text).archive
    assert archive.evaluation_count() > 18
    assert (meta.read_bytes(), meta.stat().st_ino, meta.stat().st_mtime_ns) == before
    assert "config.json" not in written
    assert sorted(p.name for p in out.iterdir() if p.is_file()) == sorted(
        p.name for p in (tmp_path / "full").iterdir() if p.is_file()
    )


def test_config_json_records_every_setting_that_can_change_an_archive(tmp_path, generator_model_text):
    # A resume checks config.json; a setting it does not record could change
    # the replayed prefix unseen. Only the worker count leaves archives alike.
    archive = run(tmp_path / "camp", budget=12, model_text=generator_model_text).archive
    assert set(field_names(TunerConfig)) - {"workers"} <= archive.meta.keys()


def test_a_held_archive_is_refused_and_left_as_it_was(tmp_path, generator_model_text):
    out, fresh = tmp_path / "camp", tmp_path / "fresh"
    run(tmp_path / "full", budget=30, model_text=generator_model_text)
    killed_copy(tmp_path / "full", out, 18)
    before = archive_files(out)
    held = [lock_archive(out), lock_archive(fresh)]
    try:
        for root, resume in ((out, True), (out, False), (fresh, False)):
            with pytest.raises(ArchiveError, match="archive in use: .*" + re.escape(str(root))):
                run(root, budget=30, resume=resume, model_text=generator_model_text)
        assert archive_files(out) == before
        assert list(fresh.iterdir()) == []
    finally:
        for fd in held:
            os.close(fd)
    run(out, budget=30, resume=True, model_text=generator_model_text)


def test_the_writer_holds_the_lock_until_its_last_write(tmp_path):
    archive = CampaignArchive.create(tmp_path / "camp", {}, SPACE_TEXT, "")
    held = lock_archive(archive.root)
    archive.open_writer(held)
    os.close(held)  # as a campaign that was killed
    with pytest.raises(ArchiveError, match="archive in use"):
        lock_archive(archive.root)
    record = Evaluation(1, 0, "c1", {"cap_t": 1}, None, 1.0, RunStatus.OTHERS, GenOutcome.UNSAT, {}, None)
    archive.append_log(1, record)
    archive.close_writer()
    os.close(lock_archive(archive.root))
    assert (archive.root / "tuner.log").read_text() == "iter=1 step=1 config=c1 penalty=1.0 status=others instance=-\n"


def resume_with(out, model_text, policy=None, limits=FAST_LIMITS):
    return run_campaign(
        out,
        SPACE_TEXT,
        model_text,
        policy or banded_policy(),
        TunerConfig(total_budget=30, seed=11),
        limits,
        resume=True,
    )


def test_resume_rejects_a_changed_t_max(tmp_path, generator_model_text):
    run(tmp_path / "camp", model_text=generator_model_text)
    before = archive_files(tmp_path / "camp")
    with pytest.raises(ArchiveError, match="t_max"):
        resume_with(tmp_path / "camp", generator_model_text, policy=replace(banded_policy(), t_max=3.0))
    assert archive_files(tmp_path / "camp") == before


def test_resume_rejects_a_changed_solver(tmp_path, generator_model_text):
    run(tmp_path / "camp", model_text=generator_model_text)
    before = archive_files(tmp_path / "camp")
    slower = SolverAdapter(name="band", builtin="synthetic:capacity / 5")
    with pytest.raises(ArchiveError, match="solver"):
        resume_with(tmp_path / "camp", generator_model_text, policy=replace(banded_policy(), solver=slower))
    assert archive_files(tmp_path / "camp") == before


def test_resume_rejects_a_changed_solve_limit(tmp_path, generator_model_text):
    run(tmp_path / "camp", model_text=generator_model_text)
    before = archive_files(tmp_path / "camp")
    with pytest.raises(ArchiveError, match="limits"):
        resume_with(tmp_path / "camp", generator_model_text, limits=replace(FAST_LIMITS, solve_limit=6.0))
    assert archive_files(tmp_path / "camp") == before


def test_instances_hold_one_inst_per_recorded_instance(tmp_path, generator_model_text):
    out = tmp_path / "camp"
    archive = run(out, budget=60, model_text=generator_model_text).archive
    recorded = [e for e in archive.evaluations() if e.instance_id]
    assert sorted(p.name for p in (out / "instances").iterdir()) == sorted(
        f"{e.instance_id}.inst" for e in recorded
    )
    with pytest.raises(ArchiveError):
        archive.instance_values("nosuchconfig-0000")


def test_resume_ignores_sidecars_of_older_archives(tmp_path, generator_model_text):
    fresh = run(tmp_path / "full", budget=30, model_text=generator_model_text)
    out = killed_copy(tmp_path / "full", tmp_path / "steps", 18)
    archive = CampaignArchive.open(out)
    # The per-instance .json that archives carried before they kept one file
    # per instance, annotated with the evaluation's penalty and status.
    for entry in archive.evaluations():
        if entry.instance_id:
            iid, cid = entry.instance_id, entry.config_id
            values = archive.instance_values(iid)
            del values["cap_t"]
            sidecar = {
                "id": iid,
                "config_id": cid,
                "sequence": int(iid[len(cid) + 1:]),
                "decision_values": values_to_jsonable(values),
                "penalty": entry.penalty,
                "status": entry.status.value,
            }
            (out / "instances" / f"{iid}.json").write_text(json.dumps(sidecar, indent=2))
    sidecars = {p.name: p.read_bytes() for p in (out / "instances").glob("*.json")}
    assert sidecars

    run(out, budget=30, resume=True, model_text=generator_model_text)
    assert (out / "tuner.log").read_bytes() == (tmp_path / "full" / "tuner.log").read_bytes()
    evals = "records/evals.jsonl"
    assert (out / evals).read_bytes() == (tmp_path / "full" / evals).read_bytes()
    assert {p.name: p.read_bytes() for p in (out / "instances").glob("*.json")} == sidecars
    assert fresh.report.evaluations_used == CampaignArchive.open(out).evaluation_count()


def test_resume_rewrites_an_orphan_instance(tmp_path, generator_model_text):
    run(tmp_path / "full", budget=30, model_text=generator_model_text)
    out = killed_copy(tmp_path / "full", tmp_path / "steps", 18)
    # A crash after add_instance and before add_evaluation: the last
    # instance's .inst is whole, but its record was never appended.
    evals = out / "records" / "evals.jsonl"
    lines = evals.read_text().splitlines(keepends=True)
    last = max(i for i, line in enumerate(lines) if json.loads(line)["instance_id"])
    orphan = json.loads(lines[last])["instance_id"]
    evals.write_text("".join(lines[:last]))
    orphan_path = out / "instances" / f"{orphan}.inst"
    orphan_text = orphan_path.read_bytes()

    archive = run(out, budget=30, resume=True, model_text=generator_model_text).archive
    assert orphan_path.read_bytes() == orphan_text
    assert orphan_path.read_bytes() == (tmp_path / "full" / "instances" / f"{orphan}.inst").read_bytes()
    assert evals.read_bytes() == (tmp_path / "full" / "records" / "evals.jsonl").read_bytes()
    ids = [e.instance_id for e in archive.evaluations() if e.instance_id]
    assert orphan in ids
    assert len(set(ids)) == len(ids)


EVALS = "records/evals.jsonl"


def records_of(root):
    return (root / EVALS).read_bytes().splitlines(keepends=True)


def test_failed_write_stops_the_records_and_resume_completes(tmp_path, generator_model_text):
    full = tmp_path / "full"
    run(full, budget=30, model_text=generator_model_text)
    records = records_of(full)
    with_instance = [i for i, line in enumerate(records) if json.loads(line)["instance_id"]]
    blocked_at = with_instance[5]
    out = tmp_path / "steps"
    # A directory where the writer must create a future instance's .inst.
    obstacle = out / "instances" / f"{json.loads(records[blocked_at])['instance_id']}.inst"
    obstacle.mkdir(parents=True)

    with pytest.raises(ArchiveError, match=re.escape(str(obstacle))):
        run(out, budget=30, model_text=generator_model_text)
    # The writer stopped at the failed .inst: no record of it or after it landed.
    assert records_of(out) == records[:blocked_at]

    obstacle.rmdir()
    run(out, budget=30, resume=True, model_text=generator_model_text)
    assert (out / "tuner.log").read_bytes() == (full / "tuner.log").read_bytes()
    assert (out / EVALS).read_bytes() == (full / EVALS).read_bytes()


def test_writer_drops_a_torn_last_frame(tmp_path):
    (tmp_path / "records").mkdir()
    whole = archivewriter.frame("records/evals.jsonl", b'{"seq": 1}\n')
    torn = archivewriter.frame("records/evals.jsonl", b'{"seq": 2}\n')[:-3]
    archivewriter.apply(str(tmp_path), io.BytesIO(whole + torn))
    assert (tmp_path / EVALS).read_bytes() == b'{"seq": 1}\n'


CRASHING_CAMPAIGN = """
import sys, time
import benchgen.campaign
from test_campaign import run

evaluate = benchgen.campaign.evaluate_configuration

def slow(*args, **kwargs):
    time.sleep(0.02)  # keeps the campaign running until it is killed
    return evaluate(*args, **kwargs)

benchgen.campaign.evaluate_configuration = slow
run(sys.argv[1], budget=60, model_text=sys.argv[2])
"""


def test_killed_campaign_keeps_whole_instances_and_resumes(tmp_path, generator_model_text):
    full = tmp_path / "full"
    run(full, budget=60, model_text=generator_model_text)
    out = tmp_path / "steps"
    src = str(Path(benchgen.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, str(Path(__file__).parent), os.environ.get("PYTHONPATH")]))
    # The archive writer inherits the campaign's stdout, so reading it to EOF
    # waits for both processes.
    with subprocess.Popen(
        [sys.executable, "-c", CRASHING_CAMPAIGN, str(out), generator_model_text],
        env=dict(os.environ, PYTHONPATH=path), stdout=subprocess.PIPE,
    ) as child:
        deadline = time.monotonic() + 60
        while not (out / EVALS).exists() or len(records_of(out)) < 10:
            assert child.poll() is None and time.monotonic() < deadline
            time.sleep(0.005)
        child.send_signal(signal.SIGKILL)
        child.communicate(timeout=60)
    assert child.returncode == -signal.SIGKILL

    recorded = records_of(out)
    assert 10 <= len(recorded) < len(records_of(full))
    assert recorded == records_of(full)[:len(recorded)]
    for line in recorded:
        iid = json.loads(line)["instance_id"]
        if iid:
            inst = f"instances/{iid}.inst"
            assert (out / inst).read_bytes() == (full / inst).read_bytes()

    run(out, budget=60, resume=True, model_text=generator_model_text)
    assert (out / "tuner.log").read_bytes() == (full / "tuner.log").read_bytes()
    assert (out / EVALS).read_bytes() == (full / EVALS).read_bytes()


@pytest.fixture
def archive_calls(monkeypatch):
    """Count the calls of the campaign's per-evaluation archive writes and
    keep every writer process started."""
    calls = {"add_instance": 0, "add_evaluation": 0, "append_log": 0}
    for name in calls:
        method = getattr(CampaignArchive, name)

        def counted(self, *args, _method=method, _name=name):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(CampaignArchive, name, counted)
    writers = calls["writers"] = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            writers.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    return calls


def test_evaluator_that_raises_leaves_its_evaluations_and_no_writer(
    tmp_path, generator_model_text, monkeypatch, archive_calls
):
    full = tmp_path / "full"
    run(full, budget=30, model_text=generator_model_text)
    evaluate, made = campaign.evaluate_configuration, []

    def failing(*args, **kwargs):
        if len(made) == 14:
            raise RuntimeError("evaluator failed")
        made.append(evaluate(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(campaign, "evaluate_configuration", failing)
    archive_calls["add_evaluation"] = 0
    out = tmp_path / "steps"
    with pytest.raises(RuntimeError, match="evaluator failed"):
        run(out, budget=30, model_text=generator_model_text)

    logged = archive_calls["add_evaluation"]
    assert 0 < logged <= 14
    assert records_of(out) == records_of(full)[:logged]
    log = (full / "tuner.log").read_bytes().splitlines(keepends=True)
    assert (out / "tuner.log").read_bytes() == b"".join(log[:logged])
    assert all(writer.returncode == 0 for writer in archive_calls["writers"])


def test_campaign_calls_each_archive_write_once_per_evaluation(
    tmp_path, generator_model_text, archive_calls
):
    full = tmp_path / "full"
    archive = run(full, budget=60, model_text=generator_model_text).archive
    evaluations = list(archive.evaluations())
    assert archive_calls["add_evaluation"] == len(evaluations)
    assert archive_calls["append_log"] == len(evaluations)
    assert archive_calls["add_instance"] == len(list((full / "instances").glob("*.inst"))) == sum(
        1 for e in evaluations if e.instance_id
    )

    # A resumed campaign archives only its new evaluations.
    archive = CampaignArchive.open(killed_copy(full, tmp_path / "camp", 30))
    evaluations = list(archive.evaluations())
    for name in ("add_instance", "add_evaluation", "append_log"):
        archive_calls[name] = 0
    run(archive.root, budget=60, resume=True, model_text=generator_model_text)
    new = list(archive.evaluations())[len(evaluations):]
    assert new and archive_calls["add_evaluation"] == len(new)
    assert archive_calls["add_instance"] == sum(1 for e in new if e.instance_id)
    assert archive_calls["append_log"] == len(evaluations) + len(new)
    assert len(archive_calls["writers"]) == 2


# -- a configuration's search restarts at its last solution --------------------


def test_a_race_wider_than_the_kept_groundings_searches_once_per_solve(tmp_path, monkeypatch):
    # Two groundings kept, races of five: most configurations come back after
    # theirs was pushed out, and their search restarts at the last solution.
    unpatched = run(tmp_path / "wide", budget=200).archive.root
    solves, searches = [], []
    solve_generator, backtrack_solve = evaluate.solve_generator, gensolve.backtrack_solve

    def counting_solve_generator(*args):
        result = solve_generator(*args)
        if result.outcome not in (GenOutcome.TRANSLATE_TIMEOUT, GenOutcome.ILL_DEFINED):
            solves.append(args[1].id)
        return result

    monkeypatch.setattr(gensolve, "CSP_CACHE_SIZE", 2)
    monkeypatch.setattr(gensolve, "backtrack_solve", lambda *args: searches.append(1) or backtrack_solve(*args))
    monkeypatch.setattr(evaluate, "solve_generator", counting_solve_generator)
    patched = run(tmp_path / "narrow", budget=200).archive.root
    assert len(set(solves)) > 2 and len(solves) > len(set(solves))
    assert len(searches) == len(solves)
    for name in ("tuner.log", "records/evals.jsonl"):
        assert (patched / name).read_bytes() == (unpatched / name).read_bytes(), name


# Each next solution of a configuration costs about 200 search nodes: pad
# runs from 101 to 200, y moves on, and pad runs from 1 to 100 again.
PAD_MODEL = (
    "var capacity : int 1..50\n"
    "var y : int 1..40\n"
    "var pad : int 1..200\n"
    "constraint capacity = cap_t\n"
    "constraint pad = 100\n"
)


@pytest.mark.parametrize("k", [60, 100])
def test_a_search_heavy_campaign_resumes_byte_identical(tmp_path, monkeypatch, k):
    # A clock that ticks once per reading makes solve_limit a node budget of
    # five solutions' worth: enough for every solve of a configuration that
    # starts at its last solution, too little to step past a few counted ones.
    ticks = itertools.count()
    for module in (csp, gensolve, ground):
        monkeypatch.setattr(module, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
    limits = EvaluationLimits(translate_limit=1000.0, solve_limit=1000.0, mem_limit=None)

    def pad_campaign(out, resume=False):
        run_campaign(out, SPACE_TEXT, PAD_MODEL, banded_policy(), TunerConfig(total_budget=120, seed=11),
                     limits, resume=resume)

    full, out = tmp_path / "full", tmp_path / "cut"
    pad_campaign(full)
    outcomes = Counter(e.generator_outcome for e in CampaignArchive.open(full).evaluations())
    assert GenOutcome.SOLVE_TIMEOUT not in outcomes and outcomes[GenOutcome.SOLUTION] > k
    killed_copy(full, out, k)
    pad_campaign(out, resume=True)
    for name in ("tuner.log", "records/evals.jsonl"):
        assert (out / name).read_bytes() == (full / name).read_bytes(), name


@pytest.mark.parametrize("damage", ["missing", "out of domain"])
def test_a_bad_last_instance_stops_the_resume_and_writes_nothing(tmp_path, capsys, damage):
    full = tune(tmp_path, "full")
    out = killed_copy(full, tmp_path / "camp", 60)
    last = [e for e in CampaignArchive.open(out).evaluations() if e.instance_id][-1]
    inst = out / "instances" / f"{last.instance_id}.inst"
    if damage == "missing":
        inst.unlink()
    else:
        inst.write_text(re.sub(r"(?m)^capacity = \d+$", "capacity = 101", inst.read_text()))
        assert "capacity = 101" in inst.read_text()
    before = archive_files(out)
    capsys.readouterr()
    assert cli.main(["tune", str(tmp_path / "campaign.ini"), "--out", str(out), "--resume"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert last.instance_id in err
    assert archive_files(out) == before
