"""Finite-domain CSP representation and chronological backtracking search.

The search contract is fixed: variables are assigned in declaration order,
values ascending, and the first satisfying assignment whose canonical key
is not excluded is returned. Constraints carry an exact check (run once
the whole scope is assigned) and an optional pruning predicate that may
refute a partial assignment early; pruning never changes which solution
is found first, only how fast the search gets there.

Because solutions come out in lex order (of the assignment vector, which
is declaration order with ascending values), a caller that excludes each
solution it takes can hand back the last one as a cursor: the search then
resumes strictly after that vector instead of re-walking every excluded
leaf before it. The exclusion set is still checked at every leaf, so a
cursor never lets an excluded solution through; it only skips assignments
that are at or before the cursor. The caller must ensure every solution
at or before the cursor is excluded (true when the cursor is the last
solution taken from a search over the same exclusions), so that resuming
finds exactly what a full scan would.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Sequence

Assignment = list  # list[int | None], indexed by CSP variable position


class SolveStatus(Enum):
    SOLUTION = "solution"
    UNSAT = "unsat"
    TIMEOUT = "timeout"


@dataclass(frozen=True)
class CspVariable:
    name: str
    domain: tuple[int, ...]  # ascending


@dataclass(frozen=True)
class CspConstraint:
    scope: tuple[int, ...]  # CSP variable indices, ascending
    check: Callable[[Assignment], bool]
    # Returns True when the partial assignment is already inconsistent.
    prune: Callable[[Assignment], bool] | None = None
    label: str = ""


@dataclass
class GroundedCsp:
    variables: list[CspVariable]
    constraints: list[CspConstraint]
    # Rebuilds structured decision values from a full assignment vector.
    decode: Callable[[Assignment], dict[str, Any]] = field(default=lambda a: {})
    # Canonical key of decoded values, for the exclusion table.
    key_of: Callable[[dict[str, Any]], str] = field(default=lambda v: repr(sorted(v.items())))


@dataclass(frozen=True)
class BacktrackResult:
    status: SolveStatus
    values: dict[str, Any] | None = None
    key: str | None = None
    # The solution's assignment vector, a cursor for the next search.
    assignment: tuple[int, ...] | None = None
    nodes: int = 0
    elapsed: float = 0.0


def backtrack_solve(
    csp: GroundedCsp,
    exclusions: frozenset[str] | set[str],
    time_limit: float,
    after: Sequence[int] | None = None,
) -> BacktrackResult:
    """Depth-first search for the first non-excluded solution.

    With ``after`` the search starts strictly after that assignment vector
    in lex order; with None it scans from the first assignment. Returns
    UNSAT when the tree is exhausted and TIMEOUT when the deadline passes
    (a zero limit times out immediately).
    """
    start = time.monotonic()
    deadline = start + time_limit
    n = len(csp.variables)

    by_max: list[list[CspConstraint]] = [[] for _ in range(n)]
    by_member: list[list[CspConstraint]] = [[] for _ in range(n)]
    nullary_ok = True
    for c in csp.constraints:
        if not c.scope:
            nullary_ok = nullary_ok and c.check([None] * n)
            continue
        by_max[max(c.scope)].append(c)
        if c.prune is not None:
            for v in c.scope:
                if v != max(c.scope):
                    by_member[v].append(c)

    if time.monotonic() >= deadline:
        return BacktrackResult(SolveStatus.TIMEOUT, elapsed=time.monotonic() - start)
    if not nullary_ok:
        return BacktrackResult(SolveStatus.UNSAT, elapsed=time.monotonic() - start)

    assignment: Assignment = [None] * n
    nodes = 0

    def consistent(idx: int) -> bool:
        for c in by_member[idx]:
            if c.prune is not None and c.prune(assignment):
                return False
        for c in by_max[idx]:
            if not c.check(assignment):
                return False
        return True

    def search(idx: int, on_cursor: bool) -> BacktrackResult | None:
        nonlocal nodes
        if idx == n:
            if on_cursor:
                return None  # the cursor itself, taken before
            decoded = csp.decode(assignment)
            key = csp.key_of(decoded)
            if key in exclusions:
                return None
            return BacktrackResult(
                SolveStatus.SOLUTION,
                values=decoded,
                key=key,
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

