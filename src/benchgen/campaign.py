"""End-to-end campaign orchestration: tuner + evaluation + archive.

A campaign ties a generator model and a policy to the tuner and persists
everything as it goes, so reports are pure functions of the archive and an
interrupted campaign can be resumed by replaying the recorded evaluations.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any

# Re-exported: callers also import the two archive queries from here.
from .archive import CampaignArchive, discriminating_entries, graded_instance_ids
from .errors import ArchiveError
from .evaluate import (
    DiscriminatingPolicy,
    EvaluationLimits,
    EvaluationResult,
    GradedPolicy,
    Policy,
    evaluate_configuration,
)
from .gensolve import SolutionHistory
from .model import parse_model
from .problems import get_problem
from .records import Record, replace
from .runner import RunStatus, SolverAdapter
from .space import GeneratorConfiguration, parse_space
from .tuner import EvalLogEntry, TunerConfig, TunerReport, run_tuning


def adapter_to_jsonable(adapter: SolverAdapter) -> dict[str, Any]:
    return {
        "name": adapter.name,
        "kind": adapter.kind,
        "builtin": adapter.builtin,
        "command": adapter.command,
    }


def adapter_from_jsonable(data: dict[str, Any]) -> SolverAdapter:
    return SolverAdapter(
        name=data["name"],
        kind=data.get("kind", "complete"),
        builtin=data.get("builtin"),
        command=data.get("command"),
    )


def policy_meta(policy: Policy) -> dict[str, Any]:
    if isinstance(policy, GradedPolicy):
        return {
            "campaign": "graded",
            "problem": policy.problem.name,
            "solver": adapter_to_jsonable(policy.solver),
            "t_min": policy.t_min,
            "t_max": policy.t_max,
            "types": sorted(policy.types),
            "oracle": adapter_to_jsonable(policy.oracle) if policy.oracle else None,
            "oracle_budget": policy.oracle_budget,
        }
    return {
        "campaign": "discriminating",
        "problem": policy.problem.name,
        "favoured": adapter_to_jsonable(policy.favoured),
        "base": adapter_to_jsonable(policy.base),
        "t_min": policy.t_min,
        "t_max": policy.t_max,
        "types": sorted(policy.types),
    }


def policy_from_meta(meta: dict[str, Any]) -> Policy:
    problem = get_problem(meta["problem"])
    if meta["campaign"] == "graded":
        return GradedPolicy(
            problem=problem,
            solver=adapter_from_jsonable(meta["solver"]),
            t_min=meta["t_min"],
            t_max=meta["t_max"],
            types=frozenset(meta["types"]),
            oracle=adapter_from_jsonable(meta["oracle"]) if meta.get("oracle") else None,
            oracle_budget=meta.get("oracle_budget"),
        )
    return DiscriminatingPolicy(
        problem=problem,
        favoured=adapter_from_jsonable(meta["favoured"]),
        base=adapter_from_jsonable(meta["base"]),
        t_min=meta["t_min"],
        t_max=meta["t_max"],
        types=frozenset(meta["types"]),
    )


class CampaignResult(Record):
    archive: CampaignArchive
    report: TunerReport


class _ReplayResult(Record):
    """Evaluation outcome reconstructed from the archive during resume."""

    penalty: float
    status: RunStatus
    instance_id: str | None


def run_campaign(
    out_dir: str | Path,
    space_text: str,
    model_text: str,
    policy: Policy,
    tuner_config: TunerConfig,
    limits: EvaluationLimits = EvaluationLimits(),
    resume: bool = False,
) -> CampaignResult:
    """Run (or resume) a tuning campaign, archiving every evaluation."""
    space = parse_space(space_text)
    model = parse_model(space, model_text)
    out_dir = Path(out_dir)
    if limits.workdir is None:
        # External solver runs leave their files and logs inside the campaign.
        limits = replace(limits, workdir=str(out_dir / "runs"))

    meta = {
        **policy_meta(policy),
        "seed": tuner_config.seed,
        "total_budget": tuner_config.total_budget,
        "limits": {
            "translate_limit": limits.translate_limit,
            "solve_limit": limits.solve_limit,
            "mem_limit": limits.mem_limit,
        },
    }

    replay: dict[tuple[str, int], dict[str, Any]] = {}
    if resume and (out_dir / "config.json").exists():
        archive = CampaignArchive.open(out_dir)
        # Replay only reproduces the recorded prefix under the same inputs.
        if archive.space_text != space_text:
            raise ArchiveError(f"cannot resume {out_dir}: the space differs from its space.txt")
        if archive.model_text != model_text:
            raise ArchiveError(
                f"cannot resume {out_dir}: the model differs from its generator.model"
            )
        recorded, wanted = archive.meta, json.loads(json.dumps(meta))
        differs = "; ".join(
            f"{key} {wanted.get(key)!r} differs from the recorded {recorded.get(key)!r}"
            for key in sorted((recorded.keys() | wanted.keys()) - {"total_budget"})
            if recorded.get(key) != wanted.get(key)
        )
        if differs:
            raise ArchiveError(f"cannot resume {out_dir}: {differs} (only the budget may change)")
        archive.drop_torn_record()
        occurrence: dict[str, int] = {}
        for entry in archive.evaluations():
            cid = entry["config_id"]
            replay[(cid, occurrence.get(cid, 0))] = entry
            occurrence[cid] = occurrence.get(cid, 0) + 1
        if tuner_config.total_budget < len(replay):
            # A replay cut short would rewrite tuner.log and config.json
            # without the records beyond the budget.
            raise ArchiveError(
                f"cannot resume {out_dir}: budget {tuner_config.total_budget} "
                f"is below the {len(replay)} recorded evaluations"
            )
        history = archive.load_history()
        archive.write_meta(meta)  # the new budget
    else:
        if (out_dir / "records" / "evals.jsonl").exists():
            raise ArchiveError(
                f"{out_dir} already holds campaign records; pass resume or pick a fresh directory"
            )
        archive = CampaignArchive.create(out_dir, meta, space_text, model_text)
        history = SolutionHistory()

    # In-process solvers share the interpreter lock, so a pool only slows them
    # and inflates their recorded times; only external runs overlap.
    solvers = (
        (policy.solver, policy.oracle)
        if isinstance(policy, GradedPolicy)
        else (policy.favoured, policy.base)
    )
    if not all(s is None or s.command is not None for s in solvers):
        tuner_config = replace(tuner_config, workers=1)

    seen: dict[str, int] = {}
    eval_seq = len(replay)
    seen_lock = threading.Lock()  # external runs evaluate on pool threads when workers > 1

    def evaluator(config: GeneratorConfiguration, block: int):
        with seen_lock:
            occ = seen.get(config.id, 0)
            seen[config.id] = occ + 1
        cached = replay.get((config.id, occ))
        if cached is not None:
            return _ReplayResult(
                cached["penalty"], RunStatus(cached["status"]), cached.get("instance_id")
            )
        return evaluate_configuration(
            model, config, history, policy, limits, seed=tuner_config.seed
        )

    if resume:
        # Replay regenerates the identical prefix, so start the log afresh.
        (out_dir / "tuner.log").write_text("")

    def log_sink(entry: EvalLogEntry, result: EvaluationResult | _ReplayResult) -> None:
        """Archive one evaluation; the tuner calls this in evaluation order."""
        nonlocal eval_seq
        archive.append_log(entry.format_line())
        if isinstance(result, _ReplayResult):
            return  # already archived
        if result.instance is not None:
            # Before the record, so a recorded instance has its whole .inst.
            archive.add_instance(result.instance)
        eval_seq += 1
        record: dict[str, Any] = {
            "seq": eval_seq,
            "block": entry.step - 1,
            "config_id": entry.config_id,
            "assignment": dict(entry.config.assignment),
            "instance_id": result.instance_id,
            "penalty": result.penalty,
            "status": result.status.value,
            "generator_outcome": result.generator_outcome.value,
            "records": {name: rec.to_jsonable() for name, rec in result.records.items()},
            "scores": list(result.scores) if result.scores else None,
        }
        if result.oracle is not None:
            record["oracle"] = {
                "optimum": result.oracle.optimum,
                "proved": result.oracle.proved,
                "time": result.oracle.time,
                "infeasible": result.oracle.infeasible,
            }
        archive.add_evaluation(record)

    archive.open_writer()
    try:
        report = run_tuning(space, evaluator, tuner_config, log=log_sink)
    finally:
        archive.close_writer()
    archive.save_history(history)
    return CampaignResult(archive=archive, report=report)

