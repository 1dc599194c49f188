"""Pairwise solver comparison and Borda aggregation.

``pair_score`` is MiniZinc Challenge complete scoring of two solver records
on one instance. It decides in tiers: solved or not, then (on an
optimisation problem) the optimality claim, then the objective; a tie
between two solved records is split by time. The two scores sum to one
when anybody solved, and to zero when both failed. ``pair_rows`` lists the
score of every ordered solver pair on every instance, and
``borda_complete`` folds those rows into a ``BordaTable``. This module is
arithmetic only: ``report`` writes its rows and tables to files.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .errors import MissingRecord
from .records import Record
from .runner import SolverRecord, Status

PairRow = tuple[str, str, str, float]  # (solver, instance, opponent, score)


class BordaTable(Record):
    solvers: list[str]
    instances: list[str]
    totals: dict[str, float]
    cells: dict[tuple[str, str], float]  # (solver, instance) -> accumulated score

    def ranking(self) -> list[tuple[str, float]]:
        return sorted(self.totals.items(), key=lambda kv: (-kv[1], kv[0]))


def _solved(record: SolverRecord) -> bool:
    """An unsatisfiability claim, or a SAT or timeout answer that did not
    fail verification (a timeout keeps the block it printed)."""
    if record.status is Status.UNSAT:
        return True
    answered = record.solution is not None and record.solution_ok is not False
    return answered and record.status in (Status.SAT, Status.TIMEOUT)


def pair_score(a: SolverRecord, b: SolverRecord, kind: str) -> tuple[float, float]:
    """Complete-scoring comparison of A and B on one instance of a problem
    of ``kind`` (``decision``, ``minimise`` or ``maximise``).

    Each tier decides as soon as the two records differ on it, so the
    comparison stays antisymmetric even for inconsistent records (a wrong
    optimality claim against a strictly better objective). Only a SAT
    answer claims optimality, and an UNSAT claim has no objective. Two
    solved records that tie split by normalised time (two zero times split
    evenly); both unsolved score (0, 0).
    """
    solved_a, solved_b = _solved(a), _solved(b)
    if solved_a != solved_b:
        return (1.0, 0.0) if solved_a else (0.0, 1.0)
    if not solved_a:
        return 0.0, 0.0
    if kind != "decision":
        optimal_a, optimal_b = (r.optimal_claimed and r.status is Status.SAT for r in (a, b))
        if optimal_a != optimal_b:
            return (1.0, 0.0) if optimal_a else (0.0, 1.0)
        quality_a, quality_b = (None if r.status is Status.UNSAT else r.objective for r in (a, b))
        if quality_a is not None and quality_b is not None and quality_a != quality_b:
            return (1.0, 0.0) if (quality_a < quality_b) == (kind == "minimise") else (0.0, 1.0)
    total = a.time + b.time
    if total <= 0:
        return 0.5, 0.5
    score_a = b.time / total
    return score_a, 1.0 - score_a


def pair_rows(
    records: Mapping[tuple[str, str], SolverRecord],
    kind: str,
    solvers: Sequence[str],
    instances: Sequence[str],
) -> list[PairRow]:
    """One (solver, instance, opponent, score) row per ordered solver pair on
    each instance: the rows of ``pair_scores.csv``. Raises MissingRecord
    when a (solver, instance) record is absent."""
    for s in solvers:
        for i in instances:
            if (s, i) not in records:
                raise MissingRecord(f"no record for solver {s!r} on instance {i!r}")
    return [
        (s, i, t, pair_score(records[(s, i)], records[(t, i)], kind)[0])
        for i in instances
        for s in solvers
        for t in solvers
        if s != t
    ]


def borda_complete(
    records: Mapping[tuple[str, str], SolverRecord],
    kind: str,
    solvers: Sequence[str],
    instances: Sequence[str],
) -> tuple[BordaTable, list[PairRow]]:
    """The Borda table over all ordered solver pairs and instances, and the
    pair rows it sums, in their order."""
    rows = pair_rows(records, kind, solvers, instances)
    totals = {s: 0.0 for s in solvers}
    cells = {(s, i): 0.0 for s in solvers for i in instances}
    for solver, instance, _, score in rows:
        totals[solver] += score
        cells[(solver, instance)] += score
    return BordaTable(list(solvers), list(instances), totals, cells), rows
