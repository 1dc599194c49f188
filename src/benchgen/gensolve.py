"""Solving generator instances and keeping their solution histories.

Re-evaluating a configuration must yield a fresh candidate instance, until
the configuration's solution set is exhausted. Solutions come out in lex
order and distinct solutions decode to distinct instances, so a history
needs only how many solutions each configuration has taken: the next
instance is the search's next solution. ``solve_generator`` counts each
solution it returns. The history also keeps, in memory only, the suspended
searches of the configurations solved last, in a bounded LRU, so a
configuration evaluated again is neither grounded nor searched from the
root again. A configuration without a kept search (new, pushed out, or
rebuilt from the records on resume) gets a fresh one, which steps past
the counted solutions first.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Mapping

from .csp import Search, backtrack_solve
from .errors import ModelError
from .ground import TranslateTimeout, ground
from .model import GeneratorModel
from .records import Record
from .runner import GenOutcome
from .space import GeneratorConfiguration
from .valuetext import format_values


# How many suspended searches a history keeps, least recently used dropped first.
CSP_CACHE_SIZE = 128


class CandidateInstance(Record, frozen=True):
    """Concrete instance data: parameter values plus solved decision values.

    ``values`` minus the configuration's parameters are the decision values.
    """

    values: dict[str, Any]
    config_id: str
    sequence: int

    @property
    def id(self) -> str:
        return f"{self.config_id}-{self.sequence:04d}"

    @property
    def canonical_text(self) -> str:
        return format_values(self.values)


class GeneratorSolveResult(Record, frozen=True):
    outcome: GenOutcome
    instance: CandidateInstance | None = None


class SolutionHistory:
    """Solution counts and suspended searches, one per configuration id.

    The count is how many solutions of the configuration have been taken.
    The history also keeps an LRU of searches, one per configuration id
    with the model it was grounded from, bounded by ``CSP_CACHE_SIZE``.
    ``to_jsonable`` gives the counts alone, which the archive saves; a
    history built from counts starts without searches.
    """

    def __init__(self, counts: Mapping[str, int] | None = None):
        self._counts: dict[str, int] = dict(counts or {})
        self._searches: OrderedDict[str, tuple[GeneratorModel, Search]] = OrderedDict()
        self._lock = threading.Lock()

    def count(self, config_id: str) -> int:
        with self._lock:
            return self._counts.get(config_id, 0)

    def take_search(self, config_id: str, model: GeneratorModel) -> Search | None:
        """The kept search of ``config_id``, if it was grounded from ``model``.

        The search leaves the history until ``keep_search`` puts it back, so
        no two threads step it at once.
        """
        with self._lock:
            kept = self._searches.pop(config_id, None)
            return kept[1] if kept is not None and kept[0] is model else None

    def keep_search(self, config_id: str, model: GeneratorModel, search: Search) -> None:
        with self._lock:
            self._searches[config_id] = (model, search)
            if len(self._searches) > CSP_CACHE_SIZE:
                self._searches.popitem(last=False)

    def add(self, config_id: str) -> None:
        """Count one solution of ``config_id``."""
        with self._lock:
            self._counts[config_id] = self._counts.get(config_id, 0) + 1

    def to_jsonable(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)


def solve_generator(
    model: GeneratorModel,
    config: GeneratorConfiguration,
    history: SolutionHistory,
    translate_limit: float,
    solve_limit: float,
) -> GeneratorSolveResult:
    """Produce the next candidate instance for a configuration, or the
    outcome that stopped it. Never raises.

    Grounding runs under ``translate_limit``, search under ``solve_limit``;
    the two timeout outcomes are distinguished so the tuner can penalise
    them differently, and a configuration whose shapes or bounds the model
    leaves ill-defined is ``ILL_DEFINED``. A configuration whose search
    from ``model`` the history still keeps is not grounded again, so it
    cannot fail in translation. The search continues until it has found
    one solution more than the history has counted: a kept search returns
    its next solution, a fresh one first steps past the counted ones. All
    of that shares ``solve_limit``, which starts once the configuration is
    grounded. The search is kept whatever the outcome, so a timeout keeps
    its place; the solution returned is counted in the history.
    """
    search = history.take_search(config.id, model)
    if search is None:
        try:
            search = Search(ground(model, config, deadline=time.monotonic() + translate_limit))
        except TranslateTimeout:
            return GeneratorSolveResult(GenOutcome.TRANSLATE_TIMEOUT)
        except ModelError:
            return GeneratorSolveResult(GenOutcome.ILL_DEFINED)

    deadline = time.monotonic() + solve_limit
    sequence = history.count(config.id)
    result = backtrack_solve(search, deadline)
    while result.status is GenOutcome.SOLUTION and search.found <= sequence:
        result = backtrack_solve(search, deadline)
    history.keep_search(config.id, model, search)
    if result.status is not GenOutcome.SOLUTION:
        return GeneratorSolveResult(result.status)
    history.add(config.id)
    instance = CandidateInstance({**config.assignment, **result.values}, config.id, sequence)
    return GeneratorSolveResult(GenOutcome.SOLUTION, instance)
