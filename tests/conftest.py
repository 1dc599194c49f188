"""Shared helpers: fabricated archives, naive scoring references and
exhaustive enumerations used as test oracles."""

from pathlib import Path
from typing import Any, Iterator

import pytest

from benchgen.archive import CampaignArchive
from benchgen.csp import GroundedCsp, SolveStatus, backtrack_solve
from benchgen.gensolve import CandidateInstance
from benchgen.problems import KnapsackData


def enumerate_solutions(
    csp: GroundedCsp, limit: int = 1_000_000, time_limit: float = 60.0
) -> list[dict[str, Any]]:
    """Exhaust the search tree via repeated solve-and-resume from the cursor."""
    found: list[dict[str, Any]] = []
    cursor = None
    while len(found) < limit:
        res = backtrack_solve(csp, time_limit, after=cursor)
        if res.status is not SolveStatus.SOLUTION:
            break
        assert res.values is not None and res.assignment is not None
        found.append(res.values)
        cursor = res.assignment
    return found


def iter_selections(data: KnapsackData) -> Iterator[list[int]]:
    """All take vectors within copy bounds (exhaustive; small instances only)."""
    counts = [c + 1 for c in data.copies]
    take = [0] * data.n_items
    while True:
        yield list(take)
        i = 0
        while i < data.n_items:
            take[i] += 1
            if take[i] < counts[i]:
                break
            take[i] = 0
            i += 1
        else:
            return


def fabricate_graded_archive(
    root: Path,
    solver_name: str,
    entries,
    solver_kind: str = "complete",
    problem: str = "knapsack",
) -> CampaignArchive:
    """Write a minimal graded-campaign archive from (status, time, extras) rows.

    Each entry is a dict with at least ``status``; instances are synthesised
    tiny knapsacks so downstream evaluation can actually run them.
    """
    meta = {
        "campaign": "graded",
        "problem": problem,
        "solver": {"name": solver_name, "kind": solver_kind, "builtin": "exact", "command": None},
        "t_min": 10.0,
        "t_max": 1200.0,
        "types": ["SAT", "UNSAT"],
        "seed": 0,
        "total_budget": len(entries),
    }
    archive = CampaignArchive.create(root, meta, "cap_t: 1..50", "var capacity : int 1..50")
    for i, entry in enumerate(entries):
        status = entry["status"]
        instance = None
        if entry.get("with_instance", True):
            instance = CandidateInstance(
                values={
                    "capacity": 5 + (i % 17),
                    "weight": [2, 3 + (i % 4), 4],
                    "value": [3, 4, 5 + (i % 3)],
                },
                decision_values={"capacity": 5 + (i % 17)},
                config_id=f"gfake{i:04d}",
                sequence=0,
            )
            archive.add_instance(instance)
        record = {
            "solver": solver_name,
            "status": entry.get("record_status", "sat"),
            "time": entry.get("time", 42.0),
            "objective": entry.get("objective", 0),
            "optimal_claimed": True,
            "solution": None,
            "time_to_best": entry.get("time_to_best"),
            "trace": [],
            "solution_ok": None,
            "note": "",
        }
        archive.add_evaluation(
            {
                "seq": i + 1,
                "block": i,
                "config_id": f"gfake{i:04d}",
                "assignment": {"cap_t": 5 + (i % 17)},
                "instance_id": instance.id if instance else None,
                "penalty": entry.get("penalty", -1.0 if status == "graded" else 0.0),
                "status": status,
                "generator_outcome": "solution" if instance else "unsat",
                "records": {solver_name: record} if instance else {},
                "scores": entry.get("scores"),
            }
        )
    return archive


def naive_borda_totals(records, solvers, instances):
    """Reference Borda accumulation written straight from the definitions."""

    def better(a, b):
        if a.kind == "decision":
            return a.solved and not b.solved
        if a.solved != b.solved:
            return a.solved
        if a.optimal != b.optimal:
            return a.optimal
        if a.quality is None or b.quality is None:
            return False
        return a.quality < b.quality if a.kind == "minimise" else a.quality > b.quality

    def score(a, b):
        if better(a, b):
            return 1.0
        if better(b, a):
            return 0.0
        if a.solved and b.solved:
            return 0.5 if a.time + b.time == 0 else b.time / (a.time + b.time)
        return 0.0

    totals = {s: 0.0 for s in solvers}
    for i in instances:
        for s in solvers:
            for t in solvers:
                if s != t:
                    totals[s] += score(records[(s, i)], records[(t, i)])
    return totals


@pytest.fixture
def campaign_config_text():
    def make(kind="graded", budget=30, **extra):
        lines = [
            "[space]",
            "cap_t: 1..50",
            "",
            "[generator]",
            "model: knapsack.gen",
            "",
            "[campaign]",
            f"kind = {kind}",
            "problem = knapsack",
            "t_min = 2",
            "t_max = 5",
            f"budget = {budget}",
            "seed = 11",
            "translate_limit = 5",
            "solve_limit = 5",
            "mem_limit = none",
        ]
        for key, value in extra.items():
            lines.append(f"{key} = {value}")
        lines += [
            "",
            "[solver.band]",
            "builtin = synthetic:capacity / 10",
            "",
            "[solver.rising]",
            "builtin = synthetic:cap_t / 10",
            "",
            "[solver.falling]",
            "builtin = synthetic:(50 - cap_t) / 10",
        ]
        return "\n".join(lines) + "\n"

    return make


GENERATOR_MODEL = (
    "var capacity : int 1..50\n"
    "var weight[2] : int 1..9\n"
    "var value[2] : int 1..9\n"
    "constraint capacity = cap_t\n"
)


@pytest.fixture
def generator_model_text():
    return GENERATOR_MODEL
