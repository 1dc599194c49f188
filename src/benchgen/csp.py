"""Finite-domain CSP representation and chronological backtracking search.

The search contract is fixed: variables are assigned in declaration order,
values ascending, and the first satisfying assignment is returned. Each
constraint is one predicate that says whether an assignment refutes it,
asked each time a variable of its scope is assigned. Before the scope's
last variable is assigned it may refute the partial assignment early or
not at all; from then on its verdict is exact. Early refutation never
changes which solution is found first, only how fast the search gets
there.

Solutions therefore come out in lex order of the assignment vector
(declaration order, ascending values). A search given a solution's vector
as its cursor returns the next solution strictly after it, so a caller can
take every solution, each exactly once, by passing back the last one.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from enum import Enum
from functools import cached_property
from typing import Any, Callable, Sequence

from .records import Record, field

Assignment = list  # list[int | None], indexed by CSP variable position


class SolveStatus(Enum):
    SOLUTION = "solution"
    UNSAT = "unsat"
    TIMEOUT = "timeout"


class CspVariable(Record, frozen=True):
    name: str
    domain: tuple[int, ...]  # ascending


class CspConstraint(Record, frozen=True):
    scope: tuple[int, ...]  # CSP variable indices, ascending
    # True when the assignment refutes the constraint: exactly once the
    # scope's last variable is assigned, at best effort before.
    refutes: Callable[[Assignment], bool]


class GroundedCsp(Record):
    variables: list[CspVariable]
    constraints: list[CspConstraint]
    # Rebuilds structured decision values from a full assignment vector.
    decode: Callable[[Assignment], dict[str, Any]] = field(default=lambda a: {})

    @cached_property
    def search_index(self) -> tuple[list, bool]:
        """What ``backtrack_solve`` asks once variable i is assigned, built
        on the first search (variables and constraints must not change
        after): ``by_member[i]``, the constraints whose scope holds i; and
        whether no constraint with an empty scope is refuted."""
        n = len(self.variables)
        by_member: list[list[CspConstraint]] = [[] for _ in range(n)]
        nullary_ok = True
        for c in self.constraints:
            for v in c.scope:
                by_member[v].append(c)
            if not c.scope:
                nullary_ok = nullary_ok and not c.refutes([None] * n)
        return by_member, nullary_ok


class BacktrackResult(Record, frozen=True):
    status: SolveStatus
    values: dict[str, Any] | None = None
    # The solution's assignment vector, a cursor for the next search.
    assignment: tuple[int, ...] | None = None
    nodes: int = 0
    elapsed: float = 0.0


def backtrack_solve(
    csp: GroundedCsp,
    time_limit: float,
    after: Sequence[int] | None = None,
) -> BacktrackResult:
    """Depth-first search for the first solution.

    With ``after`` the search starts strictly after that assignment vector
    in lex order; with None it scans from the first assignment. Returns
    UNSAT when the tree is exhausted and TIMEOUT when the deadline passes
    (a limit of zero or less times out at once).
    """
    start = time.monotonic()
    deadline = start + time_limit
    n = len(csp.variables)
    by_member, nullary_ok = csp.search_index

    if time.monotonic() >= deadline:
        return BacktrackResult(SolveStatus.TIMEOUT, elapsed=time.monotonic() - start)
    if not nullary_ok:
        return BacktrackResult(SolveStatus.UNSAT, elapsed=time.monotonic() - start)

    assignment: Assignment = [None] * n
    nodes = 0

    def consistent(idx: int) -> bool:
        for c in by_member[idx]:
            if c.refutes(assignment):
                return False
        return True

    def search(idx: int, on_cursor: bool) -> BacktrackResult | None:
        nonlocal nodes
        if idx == n:
            if on_cursor:
                return None  # the cursor itself, taken before
            return BacktrackResult(
                SolveStatus.SOLUTION,
                values=csp.decode(assignment),
                assignment=tuple(assignment),
                nodes=nodes,
                elapsed=time.monotonic() - start,
            )
        domain = csp.variables[idx].domain
        first = None
        if on_cursor:
            first = after[idx]
            domain = domain[bisect_left(domain, first) :]
        for value in domain:
            nodes += 1
            if time.monotonic() >= deadline:
                return BacktrackResult(
                    SolveStatus.TIMEOUT, nodes=nodes, elapsed=time.monotonic() - start
                )
            assignment[idx] = value
            if consistent(idx):
                result = search(idx + 1, on_cursor and value == first)
                if result is not None:
                    return result
            assignment[idx] = None
        return None

    result = search(0, after is not None)
    if result is not None:
        return result
    return BacktrackResult(SolveStatus.UNSAT, nodes=nodes, elapsed=time.monotonic() - start)

