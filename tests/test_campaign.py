"""End-to-end campaign runs: archiving, determinism, resume-by-replay."""

import json
from pathlib import Path

import pytest

from benchgen.archive import CampaignArchive
from benchgen.campaign import graded_instance_ids, policy_from_meta, run_campaign
from benchgen.errors import ArchiveError
from benchgen.evaluate import DiscriminatingPolicy, EvaluationLimits, GradedPolicy
from benchgen.problems import get_problem
from benchgen.runner import SolverAdapter
from benchgen.tuner import TunerConfig
from benchgen.valuetext import canonical_key

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
        TunerConfig(total_budget=budget, first_race_size=6, seed=seed),
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
    assert len(result.archive.log_text().strip().splitlines()) == result.report.evaluations_used


def test_campaign_archives_instances_with_sidecars(tmp_path, generator_model_text):
    result = run(tmp_path / "camp", model_text=generator_model_text)
    archive = result.archive
    ids = archive.instance_ids()
    assert ids, "no instances archived"
    for iid in ids[:5]:
        values = archive.instance_values(iid)
        assert "capacity" in values and "weight" in values
        sidecar = archive.instance_sidecar(iid)
        assert sidecar["id"] == iid
        assert "status" in sidecar  # annotated after evaluation


def test_campaign_penalties_match_statuses(tmp_path, generator_model_text):
    result = run(tmp_path / "camp", model_text=generator_model_text)
    for entry in result.archive.evaluations():
        if entry["status"] == "graded":
            assert entry["penalty"] == -1.0
            record = next(iter(entry["records"].values()))
            assert 2.0 <= record["time"] <= 5.0
        elif entry["status"] in ("too-easy-SAT", "too-difficult"):
            assert entry["penalty"] == 0.0


def test_campaign_deterministic_across_runs(tmp_path, generator_model_text):
    a = run(tmp_path / "a", model_text=generator_model_text)
    b = run(tmp_path / "b", model_text=generator_model_text)
    assert a.archive.log_text() == b.archive.log_text()
    evals_a = [json.dumps(e) for e in a.archive.evaluations()]
    evals_b = [json.dumps(e) for e in b.archive.evaluations()]
    assert evals_a == evals_b


def test_campaign_resume_replays_then_continues(tmp_path, generator_model_text):
    fresh = run(tmp_path / "full", budget=30, model_text=generator_model_text)
    partial = run(tmp_path / "steps", budget=18, model_text=generator_model_text)
    resumed = run(tmp_path / "steps", budget=30, resume=True, model_text=generator_model_text)
    assert resumed.archive.log_text() == fresh.archive.log_text()
    assert resumed.report.evaluations_used == fresh.report.evaluations_used
    assert partial.report.evaluations_used < fresh.report.evaluations_used
    assert graded_instance_ids(resumed.archive) == graded_instance_ids(fresh.archive)
    seqs = [e["seq"] for e in resumed.archive.evaluations()]
    assert seqs == list(range(1, len(seqs) + 1))


def test_campaign_graded_instances_live_in_band(tmp_path, generator_model_text):
    result = run(tmp_path / "camp", budget=60, model_text=generator_model_text)
    archive = result.archive
    for iid in graded_instance_ids(archive):
        values = archive.instance_values(iid)
        assert 20 <= values["capacity"] <= 50


def test_policy_meta_roundtrip():
    graded = banded_policy()
    meta = json.loads(json.dumps(__import__("benchgen.campaign", fromlist=["policy_meta"]).policy_meta(graded)))
    back = policy_from_meta(meta)
    assert isinstance(back, GradedPolicy)
    assert back.solver.builtin == graded.solver.builtin
    assert back.t_min == graded.t_min

    dis = DiscriminatingPolicy(
        problem=KNAPSACK,
        favoured=SolverAdapter(name="f", builtin="synthetic:1"),
        base=SolverAdapter(name="b", builtin="synthetic:2"),
        t_min=1.0,
        t_max=4.0,
    )
    meta = json.loads(json.dumps(__import__("benchgen.campaign", fromlist=["policy_meta"]).policy_meta(dis)))
    back = policy_from_meta(meta)
    assert isinstance(back, DiscriminatingPolicy)
    assert back.favoured.name == "f" and back.base.name == "b"


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
    out = tmp_path / "camp"
    run(out, budget=60, model_text=generator_model_text)
    archive = CampaignArchive.open(out)
    last = [e for e in archive.evaluations() if e["instance_id"]][-1]
    sidecar = archive.instance_sidecar(last["instance_id"])
    key = canonical_key(sidecar["decision_values"])  # no sets in this model
    history = json.loads((out / "history.json").read_text())
    history[last["config_id"]].remove(key)
    (out / "history.json").write_text(json.dumps(history))
    before = {p.name: p.stat().st_mtime_ns for p in (out / "instances").glob("*.inst")}

    run(out, budget=200, resume=True, model_text=generator_model_text)
    ids = [e["instance_id"] for e in archive.evaluations() if e["instance_id"]]
    assert len(ids) > len(before)
    assert len(set(ids)) == len(ids)
    after = {p.name: p.stat().st_mtime_ns for p in (out / "instances").glob("*.inst")}
    assert {name: after[name] for name in before} == before


def test_resume_drops_torn_final_record(tmp_path, generator_model_text):
    fresh = run(tmp_path / "full", budget=30, model_text=generator_model_text)
    run(tmp_path / "steps", budget=18, model_text=generator_model_text)
    evals = tmp_path / "steps" / "records" / "evals.jsonl"
    complete = evals.read_text()
    # A crash in the middle of appending a record.
    evals.write_text(complete + complete.splitlines()[-1][:25])
    resumed = run(tmp_path / "steps", budget=30, resume=True, model_text=generator_model_text)
    assert resumed.archive.log_text() == fresh.archive.log_text()
    assert evals.read_text() == (tmp_path / "full" / "records" / "evals.jsonl").read_text()


def test_resume_keeps_unterminated_whole_record(tmp_path, generator_model_text):
    fresh = run(tmp_path / "full", budget=30, model_text=generator_model_text)
    run(tmp_path / "steps", budget=18, model_text=generator_model_text)
    evals = tmp_path / "steps" / "records" / "evals.jsonl"
    evals.write_text(evals.read_text().rstrip("\n"))
    run(tmp_path / "steps", budget=30, resume=True, model_text=generator_model_text)
    assert evals.read_text() == (tmp_path / "full" / "records" / "evals.jsonl").read_text()


def test_resume_still_rejects_corrupt_middle_record(tmp_path, generator_model_text):
    run(tmp_path / "camp", budget=18, model_text=generator_model_text)
    evals = tmp_path / "camp" / "records" / "evals.jsonl"
    lines = evals.read_text().splitlines(keepends=True)
    lines[3] = lines[3][:25] + "\n"
    evals.write_text("".join(lines))
    with pytest.raises(json.JSONDecodeError):
        run(tmp_path / "camp", budget=30, resume=True, model_text=generator_model_text)


def archive_files(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_resume_rejects_a_changed_space(tmp_path, generator_model_text):
    run(tmp_path / "camp", budget=18, model_text=generator_model_text)
    before = archive_files(tmp_path / "camp")
    with pytest.raises(ArchiveError, match="space"):
        run(tmp_path / "camp", resume=True, model_text=generator_model_text, space_text="cap_t: 20..29")
    assert archive_files(tmp_path / "camp") == before


def test_resume_rejects_a_changed_model(tmp_path, generator_model_text):
    run(tmp_path / "camp", budget=18, model_text=generator_model_text)
    before = archive_files(tmp_path / "camp")
    heavier = generator_model_text.replace("weight[2] : int 1..9", "weight[2] : int 20..29")
    with pytest.raises(ArchiveError, match="model"):
        run(tmp_path / "camp", resume=True, model_text=heavier)
    assert archive_files(tmp_path / "camp") == before


def test_resume_rejects_a_changed_seed(tmp_path, generator_model_text):
    run(tmp_path / "camp", budget=18, seed=11, model_text=generator_model_text)
    before = archive_files(tmp_path / "camp")
    with pytest.raises(ArchiveError, match="seed"):
        run(tmp_path / "camp", seed=12, resume=True, model_text=generator_model_text)
    assert archive_files(tmp_path / "camp") == before


def test_resume_crash_while_writing_config_keeps_the_old_one(
    tmp_path, generator_model_text, monkeypatch
):
    out = tmp_path / "camp"
    run(out, budget=18, model_text=generator_model_text)
    old = (out / "config.json").read_text()

    def torn_write(path, data, *args, **kwargs):
        with open(path, "w") as fh:
            fh.write(data[: len(data) // 2])
        raise OSError("disk full")

    with monkeypatch.context() as patch:
        patch.setattr(Path, "write_text", torn_write)
        with pytest.raises(OSError):
            run(out, budget=30, resume=True, model_text=generator_model_text)
    assert (out / "config.json").read_text() == old

    run(out, budget=30, resume=True, model_text=generator_model_text)
    assert CampaignArchive.open(out).meta["total_budget"] == 30
