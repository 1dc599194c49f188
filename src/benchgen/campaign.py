"""End-to-end campaign orchestration: tuner + evaluation + archive.

A campaign ties a generator model and a policy to the tuner and persists
everything as it goes, so reports are pure functions of the archive and an
interrupted campaign can be resumed by replaying the recorded evaluations.
"""

from __future__ import annotations

import json
import os
from collections import deque
from pathlib import Path
from typing import Any

from .archive import CampaignArchive, Evaluation, lock_archive
from .errors import ArchiveError
from .evaluate import EvaluationLimits, EvaluationResult, Policy, evaluate_configuration
from .gensolve import SolutionHistory
from .model import parse_model
from .records import Record, replace, to_jsonable
from .space import GeneratorConfiguration, parse_space
from .tuner import EvalLogEntry, TunerConfig, TunerReport, run_tuning


def policy_meta(policy: Policy) -> dict[str, Any]:
    return {"campaign": policy.campaign, **to_jsonable(policy), "problem": policy.problem.name}


class CampaignResult(Record):
    archive: CampaignArchive
    report: TunerReport


def run_campaign(
    out_dir: str | Path,
    space_text: str,
    model_text: str,
    policy: Policy,
    tuner_config: TunerConfig,
    limits: EvaluationLimits = EvaluationLimits(),
    resume: bool = False,
) -> CampaignResult:
    """Run (or resume) a tuning campaign, archiving every evaluation. Raises
    ``ArchiveError``, writing nothing, if another campaign holds ``out_dir``."""
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

    # In-process solvers share the interpreter lock, so a pool only slows them
    # and inflates their recorded times; only external runs overlap.
    if not all(s.command is not None for s in policy.solvers):
        tuner_config = replace(tuner_config, workers=1)

    # archive, replay, history and eval_seq are bound under the lock below.
    def evaluator(config: GeneratorConfiguration, block: int):
        # A block evaluates each configuration once, so no two pool threads
        # pop the same queue.
        if replay.get(config.id):
            return replay[config.id].popleft()
        return evaluate_configuration(model, config, history, policy, limits, seed=tuner_config.seed)

    def log_sink(entry: EvalLogEntry, result: EvaluationResult | Evaluation) -> None:
        """Archive one evaluation; the tuner calls this in evaluation order."""
        nonlocal eval_seq
        archive.append_log(entry.format_line())
        if isinstance(result, Evaluation):
            return  # replayed: already archived
        if result.instance is not None:
            # Before the record, so a recorded instance has its whole .inst.
            archive.add_instance(result.instance)
        eval_seq += 1
        archive.add_evaluation(Evaluation(
            eval_seq, entry.step - 1, entry.config.id, dict(entry.config.assignment), result.instance_id,
            result.penalty, result.status, result.generator_outcome, result.records, result.scores, result.oracle,
        ))

    lock = lock_archive(out_dir)  # held until this returns
    try:
        replay: dict[str, deque[Evaluation]] = {}
        if resume and (out_dir / "config.json").exists():
            archive = CampaignArchive.open(out_dir)
            # Replay only reproduces the recorded prefix under the same inputs,
            # so a resume runs under the archive's own settings, budget included.
            if archive.space_text != space_text:
                raise ArchiveError(f"cannot resume {out_dir}: the space differs from its space.txt")
            if archive.model_text != model_text:
                raise ArchiveError(
                    f"cannot resume {out_dir}: the model differs from its generator.model"
                )
            recorded, wanted = archive.meta, json.loads(json.dumps(meta))
            differs = "; ".join(
                f"{key} {wanted.get(key)!r} differs from the recorded {recorded.get(key)!r}"
                for key in sorted(recorded.keys() | wanted.keys())
                if recorded.get(key) != wanted.get(key)
            )
            if differs:
                raise ArchiveError(f"cannot resume {out_dir}: {differs}")
            archive.drop_torn_record()
            for entry in archive.evaluations():  # the tuner reads no solver record: keep none
                replay.setdefault(entry.config_id, deque()).append(replace(entry, records={}))
            history = archive.load_history()
        elif (out_dir / "records" / "evals.jsonl").exists():
            advice = "it has no config.json" if resume else "pass resume or pick a fresh directory"
            raise ArchiveError(f"{out_dir} already holds campaign records; {advice}")
        else:
            archive = CampaignArchive.create(out_dir, meta, space_text, model_text)
            history = SolutionHistory()
        eval_seq = sum(map(len, replay.values()))  # the records read, before replay pops them
        if resume:
            # Replay regenerates the identical prefix, so start the log afresh.
            archive.restart_log()
        archive.open_writer(lock)
        try:
            report = run_tuning(space, evaluator, tuner_config, log=log_sink)
        finally:
            archive.close_writer()
        archive.save_history(history)
    finally:
        os.close(lock)
    return CampaignResult(archive=archive, report=report)

