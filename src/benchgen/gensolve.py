"""Solving generator instances and keeping their solution histories.

Each configuration keeps a negative table of previously generated solutions
so that re-evaluating it always yields a fresh candidate instance, until
the configuration's solution set is exhausted. Solutions come out in lex
order, so the history also keeps each configuration's last solution as a
search cursor: the next solve resumes right after it instead of skipping
every excluded solution again. A history without a cursor for a
configuration (fresh, or loaded from disk) scans from the start. Like the
cursors, and likewise not saved, the history keeps a bounded LRU of
grounded CSPs by configuration id, so a configuration evaluated again is
not grounded again.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, Mapping

from .csp import GroundedCsp, SolveStatus, backtrack_solve
from .ground import TranslateTimeout, ground
from .model import GeneratorModel
from .space import GeneratorConfiguration
from .valuetext import canonical_key, format_values


# How many grounded CSPs a history keeps, least recently used dropped first.
CSP_CACHE_SIZE = 128


class GenOutcome(Enum):
    SOLUTION = "solution"
    UNSAT = "unsat"
    TRANSLATE_TIMEOUT = "translate_timeout"
    SOLVE_TIMEOUT = "solve_timeout"


@dataclass(frozen=True)
class CandidateInstance:
    """Concrete instance data: parameter values plus solved decision values."""

    values: dict[str, Any]
    decision_values: dict[str, Any]
    config_id: str
    sequence: int
    # Assignment vector of the grounded CSP: the history's cursor once recorded.
    cursor: tuple[int, ...] | None = field(default=None, compare=False, repr=False)

    @property
    def id(self) -> str:
        return f"{self.config_id}-{self.sequence:04d}"

    @property
    def canonical_text(self) -> str:
        return format_values(self.values)

    @property
    def exclusion_key(self) -> str:
        return canonical_key(self.decision_values)


@dataclass(frozen=True)
class GeneratorSolveResult:
    outcome: GenOutcome
    elapsed: float
    instance: CandidateInstance | None = None


class SolutionHistory:
    """Append-only negative tables and lex cursors, one per configuration id.

    Invariant: every solution at or before a configuration's cursor is in
    its table. It holds because a cursor only ever moves to a solution
    found by a search over (a subset of) the same table from the previous
    cursor, and tables only grow. The history also keeps an LRU of
    grounded CSPs, one per configuration id with the model it was grounded
    from, bounded by ``CSP_CACHE_SIZE``. Neither cursors nor CSPs are
    saved: a loaded history starts without them.
    """

    def __init__(self, tables: Mapping[str, set[str]] | None = None):
        self._tables: dict[str, set[str]] = {
            k: set(v) for k, v in (tables or {}).items()
        }
        self._cursors: dict[str, tuple[int, ...]] = {}
        self._csps: OrderedDict[str, tuple[GeneratorModel, GroundedCsp]] = OrderedDict()
        self._lock = threading.Lock()

    def keys_for(self, config_id: str) -> frozenset[str]:
        with self._lock:
            return frozenset(self._tables.get(config_id, ()))

    def count(self, config_id: str) -> int:
        with self._lock:
            return len(self._tables.get(config_id, ()))

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

    def add(self, config_id: str, key: str, cursor: tuple[int, ...] | None = None) -> None:
        """Exclude ``key``; ``cursor`` is its assignment vector when it was
        found by ``solve_generator`` against this history.
        """
        with self._lock:
            self._tables.setdefault(config_id, set()).add(key)
            old = self._cursors.get(config_id)
            if cursor is not None and (old is None or cursor > old):
                self._cursors[config_id] = cursor

    def to_jsonable(self) -> dict[str, list[str]]:
        with self._lock:
            return {k: sorted(v) for k, v in self._tables.items()}

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_jsonable(), indent=0, sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "SolutionHistory":
        data = json.loads(Path(path).read_text())
        return cls({k: set(v) for k, v in data.items()})


def record_solution(
    history: SolutionHistory, config_id: str, instance: CandidateInstance
) -> SolutionHistory:
    """Add the instance's canonical encoding to the negative table (idempotent)."""
    history.add(config_id, instance.exclusion_key, instance.cursor)
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
    translation. Solutions already in the history are skipped; the search
    resumes after the configuration's cursor when it has one.
    """
    start = time.monotonic()
    csp = history.csp_for(config.id, model)
    if csp is None:
        try:
            csp = ground(model, config, deadline=start + translate_limit)
        except TranslateTimeout:
            return GeneratorSolveResult(GenOutcome.TRANSLATE_TIMEOUT, time.monotonic() - start)
        history.keep_csp(config.id, model, csp)

    cursor = history.cursor_for(config.id)
    exclusions = history.keys_for(config.id)
    result = backtrack_solve(csp, exclusions, solve_limit, after=cursor)
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
        sequence=history.count(config.id),
        cursor=result.assignment,
    )
    return GeneratorSolveResult(GenOutcome.SOLUTION, elapsed, instance)
