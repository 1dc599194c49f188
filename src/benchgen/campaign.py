"""End-to-end campaign orchestration: tuner + evaluation + archive.

A campaign ties a generator model and a policy to the tuner and persists
everything as it goes, so reports are pure functions of the archive and an
interrupted campaign can be resumed by replaying the recorded evaluations.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from .archive import CampaignArchive
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


@dataclass
class CampaignResult:
    archive: CampaignArchive
    report: TunerReport


@dataclass
class _ReplayInstanceRef:
    id: str


@dataclass
class _ReplayResult:
    """Evaluation outcome reconstructed from the archive during resume."""

    penalty: float
    status: RunStatus
    instance: Any = None


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
        history = archive.load_history()
        archive.write_meta(meta)  # the new budget
    else:
        if (out_dir / "records" / "evals.jsonl").exists():
            raise ArchiveError(
                f"{out_dir} already holds campaign records; pass resume or pick a fresh directory"
            )
        archive = CampaignArchive.create(out_dir, meta, space_text, model_text)
        history = SolutionHistory()

    seen: dict[str, int] = {}
    eval_seq = len(replay)
    seen_lock = threading.Lock()  # evaluators run on pool threads when workers > 1

    def evaluator(config: GeneratorConfiguration, block: int):
        with seen_lock:
            occ = seen.get(config.id, 0)
            seen[config.id] = occ + 1
        cached = replay.get((config.id, occ))
        if cached is not None:
            ref = _ReplayInstanceRef(cached["instance_id"]) if cached.get("instance_id") else None
            return _ReplayResult(
                penalty=cached["penalty"], status=RunStatus(cached["status"]), instance=ref
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
            "instance_id": result.instance.id if result.instance else None,
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

    report = run_tuning(space, evaluator, tuner_config, log=log_sink)
    archive.save_history(history)
    return CampaignResult(archive=archive, report=report)


def graded_instance_ids(archive: CampaignArchive) -> list[str]:
    """Instance ids classified graded, in archive order."""
    out = []
    for entry in archive.evaluations():
        if entry["status"] == RunStatus.GRADED.value and entry.get("instance_id"):
            out.append(entry["instance_id"])
    return out


def discriminating_entries(archive: CampaignArchive) -> list[dict[str, Any]]:
    """Evaluations classified dis-found (their penalty is negative)."""
    return [e for e in archive.evaluations() if e["status"] == RunStatus.DIS_FOUND.value]
