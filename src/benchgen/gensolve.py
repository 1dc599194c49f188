"""Solving generator instances and keeping their solution histories.

Re-evaluating a configuration must yield a fresh candidate instance, until
the configuration's solution set is exhausted. Solutions come out in lex
order and distinct solutions decode to distinct instances, so a history
needs only how many solutions each configuration has taken and, as a
search cursor, the assignment vector of the last one: the next solve
resumes right after it. A history without a cursor for a configuration
(loaded from disk, or rebuilt from the records on resume) catches up by
stepping past the solutions it has counted, one cursor search after
another. Like the cursors, and likewise not saved, the history keeps a
bounded LRU of grounded CSPs by configuration id, so a configuration
evaluated again is not grounded again.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from enum import Enum
from pathlib import Path
from typing import Any, Mapping

from .csp import GroundedCsp, SolveStatus, backtrack_solve
from .ground import TranslateTimeout, ground
from .model import GeneratorModel
from .records import Record, field
from .space import GeneratorConfiguration
from .valuetext import canonical_key, format_values


# How many grounded CSPs a history keeps, least recently used dropped first.
CSP_CACHE_SIZE = 128


class GenOutcome(Enum):
    SOLUTION = "solution"
    UNSAT = "unsat"
    TRANSLATE_TIMEOUT = "translate_timeout"
    SOLVE_TIMEOUT = "solve_timeout"


class CandidateInstance(Record, frozen=True):
    """Concrete instance data: parameter values plus solved decision values."""

    values: dict[str, Any]
    decision_values: dict[str, Any]
    config_id: str
    sequence: int
    # Assignment vector of the grounded CSP: the history's cursor once recorded.
    cursor: tuple[int, ...] | None = field(default=None, hidden=True)

    @property
    def id(self) -> str:
        return f"{self.config_id}-{self.sequence:04d}"

    @property
    def canonical_text(self) -> str:
        return format_values(self.values)

    @property
    def exclusion_key(self) -> str:
        return canonical_key(self.decision_values)


class GeneratorSolveResult(Record, frozen=True):
    outcome: GenOutcome
    elapsed: float
    instance: CandidateInstance | None = None


class SolutionHistory:
    """Solution counts and lex cursors, one per configuration id.

    Invariant: a configuration's kept cursor is the assignment vector of
    its count-th solution in lex order. It holds because ``add`` counts a
    solution only when its cursor lies after the kept one, and
    ``solve_generator`` finds each solution from the previous one. The
    history also keeps an LRU of grounded CSPs, one per configuration id
    with the model it was grounded from, bounded by ``CSP_CACHE_SIZE``.
    Only the counts are saved: a loaded history starts without cursors or
    CSPs.
    """

    def __init__(self, counts: Mapping[str, int] | None = None):
        self._counts: dict[str, int] = dict(counts or {})
        self._cursors: dict[str, tuple[int, ...]] = {}
        self._csps: OrderedDict[str, tuple[GeneratorModel, GroundedCsp]] = OrderedDict()
        self._lock = threading.Lock()

    def count(self, config_id: str) -> int:
        with self._lock:
            return self._counts.get(config_id, 0)

    def cursor_for(self, config_id: str) -> tuple[int, ...] | None:
        with self._lock:
            return self._cursors.get(config_id)

    def csp_for(self, config_id: str, model: GeneratorModel) -> GroundedCsp | None:
        """The kept grounding of ``config_id``, if it was grounded from ``model``."""
        with self._lock:
            kept = self._csps.get(config_id)
            if kept is None or kept[0] is not model:
                return None
            self._csps.move_to_end(config_id)
            return kept[1]

    def keep_csp(self, config_id: str, model: GeneratorModel, csp: GroundedCsp) -> None:
        with self._lock:
            self._csps[config_id] = (model, csp)
            self._csps.move_to_end(config_id)
            if len(self._csps) > CSP_CACHE_SIZE:
                self._csps.popitem(last=False)

    def add(self, config_id: str, cursor: tuple[int, ...] | None = None) -> None:
        """Count one solution and keep ``cursor``, its assignment vector.

        A cursor at or before the kept one is a solution counted already
        and changes nothing; ``None`` counts one and drops the kept cursor.
        """
        with self._lock:
            old = self._cursors.get(config_id)
            if cursor is not None and old is not None and cursor <= old:
                return
            self._counts[config_id] = self._counts.get(config_id, 0) + 1
            if cursor is None:
                self._cursors.pop(config_id, None)
            else:
                self._cursors[config_id] = cursor

    def to_jsonable(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_jsonable(), indent=0, sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "SolutionHistory":
        return cls(json.loads(Path(path).read_text()))


def record_solution(
    history: SolutionHistory, config_id: str, instance: CandidateInstance
) -> SolutionHistory:
    """Count the instance and make it the configuration's cursor (idempotent)."""
    history.add(config_id, instance.cursor)
    return history


def solve_generator(
    model: GeneratorModel,
    config: GeneratorConfiguration,
    history: SolutionHistory,
    translate_limit: float,
    solve_limit: float,
) -> GeneratorSolveResult:
    """Produce the next candidate instance for a configuration.

    Grounding runs under ``translate_limit``, search under ``solve_limit``;
    the two timeout outcomes are distinguished so the tuner can penalise
    them differently. A configuration whose grounding from ``model`` the
    history still keeps is not grounded again, so it cannot time out in
    translation. The search resumes after the configuration's cursor;
    without one it first steps past the solutions the history has counted.
    The first search and any catch-up share ``solve_limit``, which starts
    once the configuration is grounded.
    """
    start = time.monotonic()
    csp = history.csp_for(config.id, model)
    if csp is None:
        try:
            csp = ground(model, config, deadline=start + translate_limit)
        except TranslateTimeout:
            return GeneratorSolveResult(GenOutcome.TRANSLATE_TIMEOUT, time.monotonic() - start)
        history.keep_csp(config.id, model, csp)

    deadline = time.monotonic() + solve_limit
    cursor = history.cursor_for(config.id)
    sequence = history.count(config.id)
    behind = sequence if cursor is None else 0
    result = backtrack_solve(csp, deadline - time.monotonic(), after=cursor)
    while behind and result.status is SolveStatus.SOLUTION:
        behind -= 1
        result = backtrack_solve(csp, deadline - time.monotonic(), after=result.assignment)
    elapsed = time.monotonic() - start
    if result.status is SolveStatus.TIMEOUT:
        return GeneratorSolveResult(GenOutcome.SOLVE_TIMEOUT, elapsed)
    if result.status is SolveStatus.UNSAT:
        return GeneratorSolveResult(GenOutcome.UNSAT, elapsed)
    assert result.values is not None
    instance = CandidateInstance(
        values={**dict(config.assignment), **result.values},
        decision_values=dict(result.values),
        config_id=config.id,
        sequence=sequence,
        cursor=result.assignment,
    )
    return GeneratorSolveResult(GenOutcome.SOLUTION, elapsed, instance)
