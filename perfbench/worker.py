"""One round of a workload in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD OUT_DIR SEED [--spans PATH]

For ``graded-synth`` and ``external-solver`` the worker imports benchgen,
parses the space and model (``setup``), notes the time, runs one campaign
into OUT_DIR and notes the time again. For ``cli-quickstart`` it runs the
quick-start commands in this process through ``benchgen.cli.main``, inside
the workspace OUT_DIR. With ``--spans`` the round is traced and the spans
are written to PATH. The last stdout line is a JSON object with the
timestamps (``time.monotonic``, comparable with the parent's clock), the
evaluation count and, when traced, the per-layer figures.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import time
from pathlib import Path

import checks
import tracing
import workloads as wl


def setup(workload: str):
    """Import benchgen and parse the workload's space and model."""
    import benchgen.campaign  # noqa: F401  (the campaign layer is part of set-up)
    from benchgen import GradedPolicy, SolverAdapter, get_problem
    from benchgen.model import parse_model
    from benchgen.space import parse_space

    if workload == "graded-synth":
        space_text, model_text = wl.SYNTH_SPACE, wl.SYNTH_MODEL
        name, builtin = wl.SYNTH_SOLVER
        solver = SolverAdapter(name=name, builtin=builtin)
        band, budget, workers = wl.SYNTH_BAND, wl.SYNTH_BUDGET, 1
    else:
        space_text, model_text = wl.README_SPACE, wl.README_MODEL
        solver = SolverAdapter(name=wl.EXTERNAL_SOLVER_NAME, command=wl.EXTERNAL_COMMAND)
        band, budget, workers = wl.EXTERNAL_BAND, wl.EXTERNAL_BUDGET, wl.EXTERNAL_WORKERS
    parse_model(parse_space(space_text), model_text)
    policy = GradedPolicy(problem=get_problem("knapsack"), solver=solver, t_min=band[0], t_max=band[1])
    return space_text, model_text, policy, budget, workers


def campaign(args, tracer: tracing.Tracer | None) -> dict:
    space_text, model_text, policy, budget, workers = setup(args.workload)
    # graded-synth is deterministic; external-solver takes its tuner seed from --seed.
    seed = wl.CAMPAIGN_SEED if args.workload == "graded-synth" else args.seed
    import benchgen.campaign
    from benchgen import EvaluationLimits, TunerConfig

    ready = time.monotonic()
    if tracer is not None:
        tracing.install(tracer)
    # Looked up on the module so a traced round goes through the wrapper.
    result = benchgen.campaign.run_campaign(
        args.out, space_text, model_text, policy,
        TunerConfig(total_budget=budget, seed=seed, workers=workers), EvaluationLimits(),
    )
    return {"ready": ready, "done": time.monotonic(), "evals": result.archive.evaluation_count()}


def cli(args, tracer: tracing.Tracer | None) -> dict:
    import benchgen.cli

    ready = time.monotonic()
    main = benchgen.cli.main
    if tracer is not None:
        tracing.install(tracer)
    os.chdir(args.out)
    commands, resume = [], []
    for label, argv in wl.cli_commands(args.seed):
        if label == "resume":
            resume.append(checks.digest(Path("camp_band")))
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            run = main if tracer is None else tracer.wrap(main, "cli", f"cli.{label}")
            code = run(argv)
        if label == "resume":
            resume.append(checks.digest(Path("camp_band")))
        commands.append({"code": code, "stdout": stdout.getvalue()})
    return {"ready": ready, "done": time.monotonic(), "commands": commands, "resume": resume}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=wl.WORKLOADS)
    parser.add_argument("out")
    parser.add_argument("seed", type=int)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    tracer = tracing.Tracer() if args.spans else None
    result = (cli if args.workload == "cli-quickstart" else campaign)(args, tracer)
    if tracer is not None:
        tracer.dump(Path(args.spans))
        result["layers"] = tracing.layer_table(tracer.spans)
        result["tracer_s"] = tracing.tracer_cost(tracer.spans)
        if args.workload == "cli-quickstart":
            result["metrics"] = tracing.cli_metrics(tracer.spans)
        else:
            result["metrics"] = tracing.campaign_metrics(tracer.spans)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
