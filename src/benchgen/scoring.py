"""Pairwise solver comparison and Borda aggregation.

``is_better`` decides strict superiority from solved/optimal/quality
facts; ``minizinc_score`` turns a pair of records into a (0..1, 0..1)
score whose components sum to one when anybody scored, and to zero when
both failed; ``borda_complete`` accumulates the scores over every ordered
solver pair and every instance.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import MissingRecord, ValidationError
from .records import Record
from .runner import SolverRecord, Status

KINDS = ("decision", "minimise", "maximise")


class ComparableRecord(Record, frozen=True):
    """The four facts scoring needs about one solver-on-instance run."""

    solved: bool
    optimal: bool
    quality: int | None
    time: float
    kind: str = "minimise"

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValidationError(f"unknown problem kind {self.kind!r}")
        if self.optimal and not self.solved:
            raise ValidationError("optimal implies solved")
        if self.kind == "decision" and self.quality is not None:
            raise ValidationError("decision records carry no quality")


class PairScore(Record, frozen=True):
    score_a: float
    score_b: float


class BordaTable(Record):
    solvers: list[str]
    instances: list[str]
    totals: dict[str, float]
    cells: dict[tuple[str, str], float]  # (solver, instance) -> accumulated score

    def ranking(self) -> list[tuple[str, float]]:
        return sorted(self.totals.items(), key=lambda kv: (-kv[1], kv[0]))


def comparable_from_record(record: SolverRecord, kind: str) -> ComparableRecord:
    """Project a runner record onto the scoring facts.

    A correct unsatisfiability claim counts as solved. A timeout still
    counts as solved if a verified solution was produced before the limit
    (its quality then enters the comparison); a record whose payload
    failed verification never counts.
    """
    has_solution = record.solution is not None and record.solution_ok is not False
    if record.status is Status.UNSAT:
        return ComparableRecord(True, False, None, record.time, kind)
    if record.status in (Status.SAT, Status.TIMEOUT) and has_solution:
        quality = None if kind == "decision" else record.objective
        return ComparableRecord(
            True,
            record.optimal_claimed and record.status is Status.SAT,
            quality,
            record.time,
            kind,
        )
    return ComparableRecord(False, False, None, record.time, kind)


def _quality_better(a: ComparableRecord, b: ComparableRecord) -> bool:
    if a.quality is None or b.quality is None:
        return False
    if a.kind == "minimise":
        return a.quality < b.quality
    return a.quality > b.quality


def is_better(a: ComparableRecord, b: ComparableRecord) -> bool:
    """Is A strictly better than B on this instance?

    Criteria apply in tiers: solved status, then optimality, then solution
    quality. Each tier decides as soon as the two records differ on it,
    which keeps the comparison antisymmetric even for mutually
    inconsistent records (a wrong optimality claim against a strictly
    better objective); on consistent records the tiers coincide with the
    plain disjunction of the three clauses.
    """
    if a.kind != b.kind:
        raise ValidationError("cannot compare records of different problem kinds")
    if a.kind == "decision":
        return a.solved and not b.solved
    if a.solved != b.solved:
        return a.solved
    if a.optimal != b.optimal:
        return a.optimal
    return _quality_better(a, b)


def minizinc_score(a: ComparableRecord, b: ComparableRecord) -> PairScore:
    """Complete-scoring comparison of two records on one instance.

    Both-failed pairs score (0, 0); equal-quality solved pairs split by
    normalised solving time (two zero times split evenly).
    """
    if is_better(a, b):
        return PairScore(1.0, 0.0)
    if is_better(b, a):
        return PairScore(0.0, 1.0)
    if a.solved and b.solved:
        total = a.time + b.time
        if total <= 0:
            return PairScore(0.5, 0.5)
        score_a = b.time / total
        return PairScore(score_a, 1.0 - score_a)
    return PairScore(0.0, 0.0)


def borda_complete(
    records: Mapping[tuple[str, str], ComparableRecord],
    solvers: Sequence[str],
    instances: Sequence[str],
) -> BordaTable:
    """Accumulate pairwise scores over all ordered solver pairs and instances."""
    for s in solvers:
        for i in instances:
            if (s, i) not in records:
                raise MissingRecord(f"no record for solver {s!r} on instance {i!r}")
    totals = {s: 0.0 for s in solvers}
    cells = {(s, i): 0.0 for s in solvers for i in instances}
    for row in pair_rows(records, solvers, instances):
        solver, instance, score = row["solver"], row["instance"], row["score"]
        totals[solver] += score
        cells[(solver, instance)] += score
    return BordaTable(list(solvers), list(instances), totals, cells)


def pair_rows(
    records: Mapping[tuple[str, str], ComparableRecord],
    solvers: Sequence[str],
    instances: Sequence[str],
) -> list[dict[str, object]]:
    """Flat (solver, instance, opponent, score) rows for CSV export."""
    rows: list[dict[str, object]] = []
    for i in instances:
        for s in solvers:
            for t in solvers:
                if s == t:
                    continue
                pair = minizinc_score(records[(s, i)], records[(t, i)])
                rows.append(
                    {"solver": s, "instance": i, "opponent": t, "score": pair.score_a}
                )
    return rows


def write_score_csv(path: str | Path, rows: Iterable[Mapping[str, object]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["solver", "instance", "opponent", "score"])
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def read_score_csv(path: str | Path) -> list[dict[str, object]]:
    with open(path, newline="") as fh:
        return [
            {
                "solver": row["solver"],
                "instance": row["instance"],
                "opponent": row["opponent"],
                "score": float(row["score"]),
            }
            for row in csv.DictReader(fh)
        ]


def write_borda_json(path: str | Path, table: BordaTable) -> None:
    data = {
        "solvers": table.solvers,
        "instances": table.instances,
        "totals": table.totals,
        "cells": [
            {"solver": s, "instance": i, "score": v} for (s, i), v in sorted(table.cells.items())
        ],
    }
    Path(path).write_text(json.dumps(data, indent=2))


def read_borda_json(path: str | Path) -> BordaTable:
    data = json.loads(Path(path).read_text())
    cells = {(c["solver"], c["instance"]): c["score"] for c in data["cells"]}
    return BordaTable(data["solvers"], data["instances"], data["totals"], cells)
