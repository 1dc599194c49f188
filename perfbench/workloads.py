"""Inputs of the three benchmark workloads.

Everything a round feeds to benchgen is built here from the workload seed:
parameter spaces, generator models, policies and the CLI command list. The
parent (``run.py``) and the child processes (``worker.py``) both import
this module; it never imports benchgen itself.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PYTHON = sys.executable

WORKLOADS = ("graded-synth", "external-solver", "cli-quickstart")

# Tuner seed of the deterministic campaigns: graded-synth and the quick
# start's three tune commands (the README's seed). Their archives must be
# byte-identical in every run, whatever --seed is, so that a speed-up can
# show unchanged results.
CAMPAIGN_SEED = 7

# -- graded-synth: framework cost alone (virtual solver times) ---------------

SYNTH_SPACE = "cap_t: 1..100\nn: 2..8\n"
SYNTH_MODEL = """\
var capacity : int 1..100
var weight[n] : int 1..9
var value[n] : int 1..9
constraint capacity = cap_t
constraint sum(weight) >= capacity
"""
SYNTH_SOLVER = ("band", "synthetic:capacity / 10")
SYNTH_BAND = (2.0, 5.0)
SYNTH_BUDGET = 1000
ITEM_RANGE = (1, 9)

# -- external-solver: one process spawn per evaluation ----------------------

# The README's three-item model: generator search is cheap here.
README_SPACE = "cap_t: 1..100\n"
README_MODEL = """\
var capacity : int 1..100
var weight[3] : int 1..9
var value[3] : int 1..9
constraint capacity = cap_t
"""
EXTERNAL_SOLVER_NAME = "greedy"
EXTERNAL_COMMAND = "sh " + str(HERE / "solver.sh") + " {model} {instance} {time_limit_ms} {seed}"
# Far below any process spawn and far above any answer, so timing jitter
# can never move an evaluation out of the band.
EXTERNAL_BAND = (0.0001, 60.0)
EXTERNAL_BUDGET = 600
EXTERNAL_WORKERS = 2

# -- cli-quickstart: the README quick start, one process per command --------

CLI_INI = f"""\
[space]
cap_t: 1..100

[generator]
model: knapsack.gen

[campaign]
kind = graded
problem = knapsack
solver = band
t_min = 2
t_max = 5
budget = 300
seed = {CAMPAIGN_SEED}
mem_limit = none

[solver.band]
builtin = synthetic:capacity / 10

[solver.fast]
builtin = synthetic:(100 - capacity) / 10
"""
CLI_K = 50
CLI_EVAL_T_MAX = 30
CLI_DIS_BAND = (5.0, 12.0)


def cli_commands(seed: int) -> list[tuple[str, list[str]]]:
    """The quick-start commands in README order, as (label, argv) pairs.

    ``seed`` drives the sampling of the combined set and the solver seeds
    of ``evaluate``; the campaigns use ``seed = 7`` from campaign.ini.
    """
    dis_min, dis_max = CLI_DIS_BAND
    return [
        ("tune", ["tune", "campaign.ini", "--out", "camp_band"]),
        ("tune", ["tune", "campaign.ini", "--out", "camp_fast", "--solver", "fast"]),
        ("resume", ["tune", "campaign.ini", "--out", "camp_band", "--resume"]),
        ("report", ["report", "camp_band"]),
        ("combine", ["combine", "camp_band", "camp_fast", "--k", str(CLI_K),
                     "--seed", str(seed), "--out", "combined.json"]),
        ("evaluate", ["evaluate", "combined.json", "--solvers", "exact,band,fast",
                      "--config", "campaign.ini", "--t-max", str(CLI_EVAL_T_MAX),
                      "--seed", str(seed), "--mem-limit", "none", "--out", "eval_out"]),
        ("check", ["check", "camp_band"]),
        ("tune", ["tune", "campaign.ini", "--out", "camp_dis", "--favoured", "fast",
                  "--base", "band", "--t-min", str(dis_min), "--t-max", str(dis_max)]),
        ("report", ["report", "camp_dis"]),
    ]


def write_cli_workspace(workspace: Path) -> None:
    workspace.mkdir(parents=True)
    (workspace / "campaign.ini").write_text(CLI_INI)
    (workspace / "knapsack.gen").write_text(README_MODEL)


CLI_INPUTS = ("campaign.ini", "knapsack.gen")


def child_env() -> dict[str, str]:
    """Environment for child interpreters: benchgen from this checkout's src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env

