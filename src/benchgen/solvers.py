"""In-process solvers for the toy problem family.

Four kinds are registered:
  exact          branch and bound, claims optimality / proves infeasibility
  hillclimb      stochastic hill climbing with restarts and a best-objective
                 trace; never claims optimality, never proves UNSAT
  synthetic:EXPR reports success after a virtual latency computed by EXPR
                 over the instance values (no real sleeping)
  buggy          returns infeasible or misreported answers; exercises the
                 solution checker

``exact``, ``hillclimb`` and ``buggy`` are knapsack searches
``search(data, run, seed)`` in one frame, ``_knapsack_solver``, which
parses the instance and its decision target. A search states only its
moves, calling ``run.visit(take, value)`` at each node or move: its
``_Run`` keeps the deadline, the memory cap, the target and the incumbent
with its trace, and ends the search by raising. The frame alone turns how
a search ended into the ``runner.SolverRecord`` of the run. Records are
not yet verified (``runner.verify_record`` sets ``solution_ok``) and do
not name their solver; their holders key them by that name.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from functools import lru_cache
from random import Random
from typing import Any, Callable, Mapping

from .errors import CheckError, EvalError, ParseError
from .expressions import Expr, evaluate, parse_expression
from .problems import PROBLEMS, KnapsackData, Problem, parse_knapsack
from .runner import SolverRecord, Status
from .valuetext import is_int

_WORD = 64  # rough bytes per tracked allocation unit
HILLCLIMB_MAX_ITERATIONS = 200_000
# Distinct synthetic latency expressions kept parsed.
LATENCY_CACHE_SIZE = 64


class _Stop(Exception):
    """Ends a search: its deadline has passed or its incumbent met the target."""


class _Run:
    """The run of one search: its deadline, memory cap and target, and the
    incumbent ``take`` of ``value`` with its ``(time, value)`` trace. The
    cap counts visits plus trace entries, one ``_WORD`` each. The clock is
    read on the first visit and every 64th after, so a search may overrun
    its deadline by fewer than 64 visits; ``cut`` is then set."""

    def __init__(self, start: float, deadline: float, mem_limit: int | None, target: int | None):
        self.start, self.deadline, self.mem_limit, self.target = start, deadline, mem_limit, target
        self.take: list[int] | None = None
        self.value = -1
        self.trace: list[tuple[float, int]] = []
        self.visits = 0
        self.cut = False

    def visit(self, take: list[int], value: int) -> None:
        """Count a node or move at ``take`` of ``value``, the incumbent if it
        improves; raise MemoryError past the cap, ``_Stop`` past the deadline
        or once the incumbent meets the target."""
        self.visits += 1
        if self.mem_limit is not None and (self.visits + len(self.trace)) * _WORD > self.mem_limit:
            raise MemoryError
        if self.visits % 64 == 1 and time.monotonic() >= self.deadline:
            self.cut = True
            raise _Stop
        if value > self.value:
            self.take, self.value = list(take), value
            self.trace.append((time.monotonic() - self.start, value))
            if self.target is not None and value >= self.target:
                raise _Stop


def _knapsack_solver(*, complete: bool, reads_target: bool = True) -> Callable[..., Any]:
    """Make ``search(data, run, seed)`` the solver
    ``solve(problem, instance, time_limit, seed=0, mem_limit=None)``.

    The target is None on an optimisation instance, and on every instance
    when the solver does not ``reads_target``. A ``complete`` search that
    returns has proved its answer; cut by its deadline, it is a timeout
    that keeps its incumbent, as a killed external run keeps its last one.
    """

    def frame(search: Callable[[KnapsackData, _Run, int], None]) -> Callable[..., SolverRecord]:
        def solve(
            problem: Problem,
            instance: Mapping[str, Any],
            time_limit: float,
            seed: int = 0,
            mem_limit: int | None = None,
        ) -> SolverRecord:
            start = time.monotonic()
            if problem.name not in PROBLEMS:
                return SolverRecord(Status.ERROR, 0.0, note=f"unsupported problem {problem.name}")
            try:
                data = parse_knapsack(instance)
            except CheckError as err:
                return SolverRecord(Status.ERROR, 0.0, note=str(err))
            decides = reads_target and problem.kind == "decision"
            target = instance.get("target") if decides else None
            if decides and not is_int(target):
                return SolverRecord(Status.ERROR, time.monotonic() - start, note="missing target")
            run = _Run(start, start + time_limit, mem_limit, target)
            try:
                search(data, run, seed)
            except _Stop:
                pass
            except MemoryError:
                return SolverRecord(Status.ERROR, time.monotonic() - start, note="memory cap exceeded")
            elapsed = time.monotonic() - start
            if run.take is None:  # the deadline passed before the first visit
                return SolverRecord(Status.TIMEOUT, elapsed)
            found = {"take": run.take}
            if target is None and complete and run.cut:
                return SolverRecord(Status.TIMEOUT, elapsed, run.value, solution=found, trace=run.trace)
            if target is None:
                return SolverRecord(Status.SAT, elapsed, run.value, complete, found, trace=run.trace)
            if run.value >= target:
                return SolverRecord(Status.SAT, elapsed, solution=found, trace=run.trace)
            if complete:
                return SolverRecord(Status.TIMEOUT if run.cut else Status.UNSAT, elapsed)
            return SolverRecord(Status.TIMEOUT, elapsed, trace=run.trace)

        solve.__name__ = solve.__qualname__ = search.__name__
        solve.__doc__ = search.__doc__
        return solve

    return frame


@_knapsack_solver(complete=True)
def solve_exact(data: KnapsackData, run: _Run, seed: int) -> None:
    """Branch and bound over item counts, best-density order, fractional bound."""
    n = data.n_items
    order = sorted(
        range(n),
        key=lambda i: (Fraction(data.value[i], data.weight[i]) if data.weight[i] else Fraction(10**9)),
        reverse=True,
    )

    def bound(level: int, cap_left: int, value_so_far: int) -> Fraction:
        total = Fraction(value_so_far)
        cap = cap_left
        for k in range(level, n):
            i = order[k]
            if data.weight[i] == 0:
                total += data.value[i] * data.copies[i]
                continue
            fit = min(data.copies[i], cap // data.weight[i])
            total += fit * data.value[i]
            cap -= fit * data.weight[i]
            if fit < data.copies[i] and cap > 0:
                total += Fraction(data.value[i] * cap, data.weight[i])
                break
        return total

    take = [0] * n

    def search(level: int, cap_left: int, value_so_far: int) -> None:
        run.visit(take, value_so_far)
        if level == n:
            return
        most = bound(level, cap_left, value_so_far)
        if (most <= run.value) if run.target is None else (most < run.target):
            return
        i = order[level]
        if data.weight[i] == 0:
            max_fit = data.copies[i]
        else:
            max_fit = min(data.copies[i], cap_left // data.weight[i])
        for count in range(max_fit, -1, -1):
            take[i] = count
            search(level + 1, cap_left - count * data.weight[i], value_so_far + count * data.value[i])

    search(0, data.capacity, 0)


@_knapsack_solver(complete=False)
def solve_hillclimb(data: KnapsackData, run: _Run, seed: int) -> None:
    """Random restarts plus single-item moves, accepting strict improvements."""
    rng = Random(seed)
    n = data.n_items

    def greedy_random_fill() -> tuple[list[int], int, int]:
        take = [0] * n
        weight = 0
        value = 0
        for i in rng.sample(range(n), n):
            if data.weight[i] == 0:
                fit = data.copies[i]
            else:
                fit = min(data.copies[i], (data.capacity - weight) // data.weight[i])
            count = rng.randint(0, fit) if fit > 0 else 0
            take[i] = count
            weight += count * data.weight[i]
            value += count * data.value[i]
        return take, weight, value

    take, weight, value = greedy_random_fill()
    for _ in range(HILLCLIMB_MAX_ITERATIONS):
        run.visit(take, value)
        if n == 0:
            return
        i = rng.randrange(n)
        delta = rng.choice((-1, 1))
        new_count = take[i] + delta
        new_weight = weight + delta * data.weight[i]
        new_value = value + delta * data.value[i]
        if not 0 <= new_count <= data.copies[i] or new_weight > data.capacity or new_value < value:
            if rng.random() < 0.05:
                take, weight, value = greedy_random_fill()
            continue
        take[i] = new_count
        weight, value = new_weight, new_value


@lru_cache(maxsize=LATENCY_CACHE_SIZE)
def _latency(text: str) -> Expr:
    """Parsed latency expression; a ParseError is raised again on every call."""
    return parse_expression(text)


def solve_synthetic(
    latency_expr: str,
    problem: Problem,
    instance: Mapping[str, Any],
    time_limit: float,
    seed: int = 0,
) -> SolverRecord:
    """Report success after a programmed virtual latency (never sleeps).

    Latency beyond the limit, however large, is a timeout with the limit as
    the recorded time, and a negative one counts as zero. On success the
    trivial solution is reported with its true objective and an optimality
    claim, modelling a complete solver finishing its run.
    """
    del seed
    try:
        scalars = {k: v for k, v in instance.items() if is_int(v)}
        arrays = {k: v for k, v in instance.items() if isinstance(v, list) and all(map(is_int, v))}
        value = evaluate(_latency(latency_expr), {**scalars, **arrays})
        if isinstance(value, bool):
            raise EvalError("expected a numeric result")
    except (ParseError, EvalError) as err:
        return SolverRecord(Status.ERROR, 0.0, note=f"latency expression: {err}")
    try:
        latency = max(float(value), 0.0)
    except OverflowError:  # too large for a float: beyond any time limit, or below zero
        latency = math.inf if value > 0 else 0.0
    if latency > time_limit:
        return SolverRecord(Status.TIMEOUT, time_limit)
    try:
        trivial = problem.trivial_solution(instance)
    except CheckError:
        trivial = None  # instance is not of this problem's shape; report bare success
    if trivial is None:
        return SolverRecord(Status.SAT, latency, optimal_claimed=True)
    payload, objective = trivial
    return SolverRecord(
        Status.SAT, latency, objective=objective, optimal_claimed=True,
        solution=payload, trace=[(latency, objective)] if objective is not None else [],
    )


@_knapsack_solver(complete=True, reads_target=False)
def solve_buggy(data: KnapsackData, run: _Run, seed: int) -> None:
    """Always returns a wrong answer: infeasible payload or misreported objective."""
    run.take = list(data.copies)
    run.value = sum(t * v for t, v in zip(run.take, data.value))
    if sum(t * w for t, w in zip(run.take, data.weight)) <= data.capacity:
        run.value += 1  # feasible by luck: misreport the objective instead


# Builtin solvers by id, called as (problem, instance, time_limit, seed, mem_limit).
BUILTIN_SOLVERS = {"exact": solve_exact, "hillclimb": solve_hillclimb, "buggy": solve_buggy}


def run_builtin(
    solver_id: str,
    problem: Problem,
    instance: Mapping[str, Any],
    time_limit: float,
    seed: int = 0,
    mem_limit: int | None = None,
) -> SolverRecord:
    """Dispatch a builtin solver id, ``synthetic:EXPR`` carrying its latency."""
    if solver_id.startswith("synthetic:"):
        return solve_synthetic(solver_id.split(":", 1)[1], problem, instance, time_limit, seed)
    solve = BUILTIN_SOLVERS.get(solver_id)
    if solve is None:
        return SolverRecord(Status.ERROR, 0.0, note=f"unknown builtin solver {solver_id!r}")
    return solve(problem, instance, time_limit, seed, mem_limit)


def builtin_exists(solver_id: str) -> bool:
    """Whether ``solver_id`` names a builtin solver. A ``synthetic:`` id
    whose latency expression does not parse raises its ParseError."""
    if solver_id.startswith("synthetic:"):
        _latency(solver_id.split(":", 1)[1])
        return True
    return solver_id in BUILTIN_SOLVERS
