"""Finite-domain CSP representation and chronological backtracking search.

A CSP variable is a position of the assignment vector with an ascending
domain; only the checks and ``decode`` know what it stands for.

The search contract is fixed: variables are assigned in declaration order,
values ascending, and the first satisfying assignment is returned. The
checks are built by ``ground``: each slot holds the predicates, one per
constraint whose scope includes it, that say whether an assignment refutes
that constraint, asked each time the slot is assigned. Before the scope's
last slot is assigned a predicate may refute the partial assignment early
or not at all; from then on its verdict is exact. Early refutation never
changes which solution is found first, only how fast the search gets
there. A constraint that reads no slot is decided once, at the root.

Solutions therefore come out in lex order of the assignment vector
(declaration order, ascending values). A ``Search`` is one depth-first
walk of the tree: each ``backtrack_solve`` on it continues where the last
one stopped, at a solution or at its deadline, so successive calls return
every solution, each exactly once. A call reports the ``GenOutcome`` it
reached: ``SOLUTION``, ``UNSAT`` once the tree is exhausted, or
``SOLVE_TIMEOUT`` at its deadline. The walk is a loop over explicit
per-level state (Knuth, TAOCP 4B, 7.2.2, Algorithm B), so its depth is not
bounded by the interpreter's recursion limit.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Mapping

from .records import Record
from .runner import GenOutcome

Assignment = list  # list[int | None], indexed by CSP variable position
Refuter = Callable[[Assignment], bool]


class GroundedCsp(Record):
    domains: list[tuple[int, ...]]  # one per CSP variable, each ascending
    # checks[i]: the refuters to ask once slot i is assigned, one per
    # constraint whose scope includes it.
    checks: list[list[Refuter]]
    refuted: bool  # the root verdict of the constraints that read no slot
    # Rebuilds structured decision values from a full assignment vector.
    decode: Callable[[Assignment], dict[str, Any]]
    encode: Callable[[Mapping[str, Any]], Assignment]  # its inverse; raises on values it cannot encode


class Search:
    """One depth-first search of ``csp``, from the root or, as the order is
    fixed, from the state in which it stops at the solution ``after`` (a
    full assignment vector; a value outside its domain is a ``ValueError``).

    ``assignment`` holds the values of levels ``0..depth``; ``tried[i]``
    counts the values of level i's domain tried so far, so the next one is
    ``csp.domains[i][tried[i]]``. ``depth`` is -1 once the tree is exhausted.
    Only one thread may step a search at a time; the CSP itself holds no
    search state.
    """

    def __init__(self, csp: GroundedCsp, after: Assignment | None = None):
        n = len(csp.domains)
        self.csp = csp
        self.assignment: Assignment = [None] * n if after is None else list(after)
        self.tried = [0] * n if after is None else [d.index(v) + 1 for d, v in zip(csp.domains, after)]
        self.depth = -1 if csp.refuted else 0 if after is None else n - 1


class BacktrackResult(Record, frozen=True):
    status: GenOutcome  # SOLUTION, UNSAT or SOLVE_TIMEOUT
    values: dict[str, Any] | None = None
    nodes: int = 0


def backtrack_solve(search: Search, deadline: float) -> BacktrackResult:
    """Continue ``search`` to its next solution, until the monotonic ``deadline``.

    Returns UNSAT when the tree is exhausted and SOLVE_TIMEOUT when the
    deadline passes (one already passed times out at once). Either way the
    search keeps its place: the next call continues from there.
    """
    monotonic = time.monotonic
    if monotonic() >= deadline:
        return BacktrackResult(GenOutcome.SOLVE_TIMEOUT)
    domains, checks = search.csp.domains, search.csp.checks
    assignment, tried = search.assignment, search.tried
    n = len(domains)
    depth = search.depth
    nodes = 0
    while 0 <= depth < n:
        domain, level_checks = domains[depth], checks[depth]
        for k in range(tried[depth], len(domain)):
            nodes += 1
            if monotonic() >= deadline:
                tried[depth], search.depth = k, depth
                return BacktrackResult(GenOutcome.SOLVE_TIMEOUT, None, nodes)
            assignment[depth] = domain[k]
            for refutes in level_checks:
                if refutes(assignment):
                    break
            else:
                tried[depth] = k + 1
                depth += 1
                break
        else:
            tried[depth] = 0
            assignment[depth] = None
            depth -= 1
    if depth < 0:
        search.depth = -1
        return BacktrackResult(GenOutcome.UNSAT, None, nodes)
    # A solution: suspend at the last level, whose next value comes next.
    search.depth = n - 1
    return BacktrackResult(GenOutcome.SOLUTION, search.csp.decode(assignment), nodes)
