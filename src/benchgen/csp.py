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
(declaration order, ascending values), so walks that each start just after
the last one's solution return every solution, each exactly once. A walk
reports the ``GenOutcome`` it reached: ``SOLUTION``, ``UNSAT`` once the
tree is exhausted, or ``SOLVE_TIMEOUT`` at its deadline. It is a loop over
explicit per-level state (Knuth, TAOCP 4B, 7.2.2, Algorithm B), so its
depth is not bounded by the interpreter's recursion limit.
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
    encode: Callable[[Mapping[str, Any]], Assignment]  # its inverse on values check_assignment accepts


class BacktrackResult(Record, frozen=True):
    status: GenOutcome  # SOLUTION, UNSAT or SOLVE_TIMEOUT
    values: dict[str, Any] | None = None
    nodes: int = 0


def backtrack_solve(csp: GroundedCsp, after: Assignment | None, deadline: float) -> BacktrackResult:
    """Walk ``csp`` to its next solution, from the root or from just after
    the full assignment vector ``after``, until the monotonic ``deadline``.

    Returns UNSAT when the tree is exhausted and SOLVE_TIMEOUT when the
    deadline passes (one already passed times out at once). Keeps nothing.
    """
    monotonic = time.monotonic
    if monotonic() >= deadline:
        return BacktrackResult(GenOutcome.SOLVE_TIMEOUT)
    domains, checks = csp.domains, csp.checks
    n = len(domains)
    # assignment holds the values of levels 0..depth; tried[i] counts the
    # values of level i's domain tried so far, so the next is domains[i][tried[i]].
    assignment = [None] * n if after is None else list(after)
    tried = [0] * n if after is None else [d.index(v) + 1 for d, v in zip(domains, after)]
    depth = -1 if csp.refuted else 0 if after is None else n - 1
    nodes = 0
    while 0 <= depth < n:
        domain, level_checks = domains[depth], checks[depth]
        for k in range(tried[depth], len(domain)):
            nodes += 1
            if monotonic() >= deadline:
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
        return BacktrackResult(GenOutcome.UNSAT, None, nodes)
    return BacktrackResult(GenOutcome.SOLUTION, csp.decode(assignment), nodes)
