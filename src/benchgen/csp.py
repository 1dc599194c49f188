"""Finite-domain CSP representation and chronological backtracking search.

A CSP variable is a position of the assignment vector with an ascending
domain; only the constraints and ``decode`` know what it stands for.

The search contract is fixed: variables are assigned in declaration order,
values ascending, and the first satisfying assignment is returned. Each
constraint is one predicate that says whether an assignment refutes it,
asked each time a variable of its scope is assigned. Before the scope's
last variable is assigned it may refute the partial assignment early or
not at all; from then on its verdict is exact. Early refutation never
changes which solution is found first, only how fast the search gets
there.

Solutions therefore come out in lex order of the assignment vector
(declaration order, ascending values). A ``Search`` is one depth-first
walk of the tree, suspended between calls: each ``backtrack_solve`` on it
continues where the last one stopped, at a solution or at its deadline,
so successive calls return every solution, each exactly once. The walk is
a loop over explicit per-level state (Knuth, TAOCP 4B, 7.2.2, Algorithm
B), so its depth is not bounded by the interpreter's recursion limit.
"""

from __future__ import annotations

import time
from enum import Enum
from typing import Any, Callable

from .records import Record

Assignment = list  # list[int | None], indexed by CSP variable position


class SolveStatus(Enum):
    SOLUTION = "solution"
    UNSAT = "unsat"
    TIMEOUT = "timeout"


class CspConstraint(Record, frozen=True):
    scope: tuple[int, ...]  # CSP variable indices, ascending
    # True when the assignment refutes the constraint: exactly once the
    # scope's last variable is assigned, at best effort before.
    refutes: Callable[[Assignment], bool]


class GroundedCsp(Record):
    domains: list[tuple[int, ...]]  # one per CSP variable, each ascending
    constraints: list[CspConstraint]
    # Rebuilds structured decision values from a full assignment vector.
    decode: Callable[[Assignment], dict[str, Any]]


class Search:
    """One depth-first search of ``csp``, kept between solves.

    ``assignment`` holds the values of levels ``0..depth``; ``tried[i]``
    counts the values of level i's domain tried so far, so the next one is
    ``csp.domains[i][tried[i]]``. ``depth`` is -1 once the tree is exhausted.
    ``found`` counts the solutions returned. Only one thread may step a
    search at a time; the CSP itself holds no search state.
    """

    def __init__(self, csp: GroundedCsp):
        n = len(csp.domains)
        self.csp = csp
        # checks[i]: the predicates to ask once level i is assigned.
        self.checks: list[list[Callable[[Assignment], bool]]] = [[] for _ in range(n)]
        for c in csp.constraints:
            for v in c.scope:
                self.checks[v].append(c.refutes)
        self.assignment: Assignment = [None] * n
        self.tried = [0] * n
        nullary_ok = not any(c.refutes(self.assignment) for c in csp.constraints if not c.scope)
        self.depth = 0 if nullary_ok else -1
        self.found = 0


class BacktrackResult(Record, frozen=True):
    status: SolveStatus
    values: dict[str, Any] | None = None
    nodes: int = 0
    elapsed: float = 0.0


def backtrack_solve(search: Search, time_limit: float) -> BacktrackResult:
    """Continue ``search`` to its next solution.

    Returns UNSAT when the tree is exhausted and TIMEOUT when the deadline
    passes (a limit of zero or less times out at once). Either way the
    search keeps its place: the next call continues from there.
    """
    monotonic = time.monotonic
    start = monotonic()
    if time_limit <= 0:
        return BacktrackResult(SolveStatus.TIMEOUT, None, 0, monotonic() - start)
    deadline = start + time_limit
    domains, checks = search.csp.domains, search.checks
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
                return BacktrackResult(SolveStatus.TIMEOUT, None, nodes, monotonic() - start)
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
        return BacktrackResult(SolveStatus.UNSAT, None, nodes, monotonic() - start)
    # A solution: suspend at the last level, whose next value comes next.
    search.depth = n - 1
    search.found += 1
    values = search.csp.decode(assignment)
    return BacktrackResult(SolveStatus.SOLUTION, values, nodes, monotonic() - start)
