"""Solving generator instances and keeping their solution histories.

Re-evaluating a configuration must yield a fresh candidate instance, until
the configuration's solution set is exhausted. Solutions come out in lex
order and distinct solutions decode to distinct instances, so a history
needs only each configuration's last solution: ``solve_generator`` runs
one search that starts just after it, whether the configuration was solved
a moment ago, its grounding was pushed out of the history's LRU, or the
history was rebuilt from the archive on resume.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any

from .csp import GroundedCsp, Search, backtrack_solve
from .errors import ModelError
from .ground import TranslateTimeout, ground
from .model import GeneratorModel
from .records import Record
from .runner import GenOutcome
from .space import GeneratorConfiguration
from .valuetext import format_values


# How many groundings a history keeps, least recently used dropped first.
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
    """The last solution and the grounding of each configuration id.

    A configuration's last solution is the last instance taken from it, so
    its count of solutions taken is that instance's ``sequence + 1``; the
    archive saves the counts (``to_jsonable``). The groundings, one per
    configuration id with the model it was grounded from, hold no search
    state and are an LRU bounded by ``CSP_CACHE_SIZE``.
    """

    def __init__(self) -> None:
        self._last: dict[str, CandidateInstance] = {}
        self._groundings: OrderedDict[str, tuple[GeneratorModel | None, GroundedCsp]] = OrderedDict()
        self._lock = threading.Lock()

    def count(self, config_id: str) -> int:
        with self._lock:
            return self._last[config_id].sequence + 1 if config_id in self._last else 0

    def search(self, model: GeneratorModel, config: GeneratorConfiguration, translate_limit: float) -> Search:
        """A search of ``config`` grounded from ``model``, just after its last
        solution or at the root. A grounding the history does not keep may
        raise ``TranslateTimeout`` or ``ModelError``, a restore what
        ``GroundedCsp.encode`` and ``Search`` raise."""
        with self._lock:
            kept = self._groundings.pop(config.id, (None, None))
            last = self._last.get(config.id)
        if kept[0] is not model:
            kept = model, ground(model, config, deadline=time.monotonic() + translate_limit)
        with self._lock:
            self._groundings[config.id] = kept
            if len(self._groundings) > CSP_CACHE_SIZE:
                self._groundings.popitem(last=False)
        return Search(kept[1], None if last is None else kept[1].encode(last.values))

    def add(self, instance: CandidateInstance) -> None:
        """Take ``instance`` as its configuration's last solution."""
        with self._lock:
            self._last[instance.config_id] = instance

    def to_jsonable(self) -> dict[str, int]:
        with self._lock:
            return {config_id: last.sequence + 1 for config_id, last in self._last.items()}


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
    leaves ill-defined is ``ILL_DEFINED``. A configuration whose grounding
    from ``model`` the history still keeps is not grounded again, so it
    cannot fail in translation. The one search starts just after the
    configuration's last solution, or at the root, and ``solve_limit``
    starts once the configuration is grounded. A timeout keeps nothing: the
    next solve starts again after the last solution. The solution returned
    is the history's last one for the configuration.
    """
    try:
        search = history.search(model, config, translate_limit)
    except TranslateTimeout:
        return GeneratorSolveResult(GenOutcome.TRANSLATE_TIMEOUT)
    except ModelError:
        return GeneratorSolveResult(GenOutcome.ILL_DEFINED)

    result = backtrack_solve(search, time.monotonic() + solve_limit)
    if result.status is not GenOutcome.SOLUTION:
        return GeneratorSolveResult(result.status)
    instance = CandidateInstance({**config.assignment, **result.values}, config.id, history.count(config.id))
    history.add(instance)
    return GeneratorSolveResult(GenOutcome.SOLUTION, instance)
