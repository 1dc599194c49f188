"""In-process solvers for the toy problem family.

Four kinds are registered:
  exact          branch and bound, claims optimality / proves infeasibility
  hillclimb      stochastic hill climbing with restarts and a best-objective
                 trace; never claims optimality, never proves UNSAT
  synthetic:EXPR reports success after a virtual latency computed by EXPR
                 over the instance values (no real sleeping)
  buggy          returns infeasible or misreported answers; exercises the
                 solution checker

``exact``, ``hillclimb`` and ``buggy`` are knapsack searches in one frame,
``_knapsack_solver``: it parses the instance and its decision ``target``,
runs the search under a wall-clock deadline, reports a ``MemoryError``
(the searches raise one when their step count passes the memory cap) as
an error, and builds the ``runner.SolverRecord`` of the run from the best
take, value, trace and proof the search returns. Records are not yet
verified (``runner.verify_record`` sets ``solution_ok``) and do not name
their solver; their holders key them by that name.
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

# What a knapsack search returns: best take (None if it took no step), its
# value, the (time, value) trace of improvements, and whether it proved them.
Found = tuple[list[int] | None, int, list[tuple[float, int]], bool]


def _knapsack_solver(*, complete: bool, reads_target: bool = True) -> Callable[..., Any]:
    """Make ``search(data, target, start, deadline, seed, mem_limit) -> Found``
    the solver ``solve(problem, instance, time_limit, seed=0, mem_limit=None)``.

    ``target`` is None on an optimisation instance, and on every instance
    when the solver does not ``reads_target``. A decision run that misses
    its target is UNSAT when a ``complete`` search proved it, else a
    timeout, which keeps the trace only when the search is not complete.
    """

    def frame(search: Callable[..., Found]) -> Callable[..., SolverRecord]:
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
            try:
                take, value, trace, proved = search(data, target, start, start + time_limit, seed, mem_limit)
            except MemoryError:
                return SolverRecord(Status.ERROR, time.monotonic() - start, note="memory cap exceeded")
            elapsed = time.monotonic() - start
            if take is None:  # the deadline passed before the first step
                return SolverRecord(Status.TIMEOUT, elapsed)
            if target is None:
                return SolverRecord(
                    Status.SAT, elapsed, objective=value, optimal_claimed=proved,
                    solution={"take": take}, trace=trace,
                )
            if value >= target:
                return SolverRecord(Status.SAT, elapsed, solution={"take": take}, trace=trace)
            if complete:
                return SolverRecord(Status.UNSAT if proved else Status.TIMEOUT, elapsed)
            return SolverRecord(Status.TIMEOUT, elapsed, trace=trace)

        solve.__name__ = solve.__qualname__ = search.__name__
        solve.__doc__ = search.__doc__
        return solve

    return frame


@_knapsack_solver(complete=True)
def solve_exact(
    data: KnapsackData, target: int | None, start: float, deadline: float, seed: int, mem_limit: int | None
) -> Found:
    """Branch and bound over item counts, best-density order, fractional bound."""
    n = data.n_items
    order = sorted(
        range(n),
        key=lambda i: (Fraction(data.value[i], data.weight[i]) if data.weight[i] else Fraction(10**9)),
        reverse=True,
    )
    best_value = -1
    best_take: list[int] | None = None
    trace: list[tuple[float, int]] = []
    timed_out = False
    mem_units = 0

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

    def search(level: int, cap_left: int, value_so_far: int) -> bool:
        """Returns True to stop the whole search (deadline, cap, or target met)."""
        nonlocal best_value, best_take, timed_out, mem_units
        mem_units += 1
        if mem_limit is not None and mem_units * _WORD > mem_limit:
            raise MemoryError
        if time.monotonic() >= deadline:
            timed_out = True
            return True
        if value_so_far > best_value:
            best_value = value_so_far
            best_take = list(take)
            trace.append((time.monotonic() - start, best_value))
            if target is not None and best_value >= target:
                return True
        if level == n:
            return False
        if target is None and bound(level, cap_left, value_so_far) <= best_value:
            return False
        if target is not None and bound(level, cap_left, value_so_far) < target:
            return False
        i = order[level]
        if data.weight[i] == 0:
            max_fit = data.copies[i]
        else:
            max_fit = min(data.copies[i], cap_left // data.weight[i])
        for count in range(max_fit, -1, -1):
            take[i] = count
            if search(level + 1, cap_left - count * data.weight[i], value_so_far + count * data.value[i]):
                take[i] = 0
                return True
            take[i] = 0
        return False

    search(0, data.capacity, 0)
    return best_take, best_value, trace, not timed_out


@_knapsack_solver(complete=False)
def solve_hillclimb(
    data: KnapsackData, target: int | None, start: float, deadline: float, seed: int, mem_limit: int | None
) -> Found:
    """Random restarts plus single-item moves, accepting strict improvements."""
    rng = Random(seed)
    n = data.n_items
    best_value = -1
    best_take: list[int] | None = None
    trace: list[tuple[float, int]] = []

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
    iterations = 0
    while iterations < HILLCLIMB_MAX_ITERATIONS:
        iterations += 1
        if iterations % 64 == 0 and time.monotonic() >= deadline:
            break
        if mem_limit is not None and (iterations + len(trace)) * _WORD > mem_limit:
            raise MemoryError
        if value > best_value:
            best_value = value
            best_take = list(take)
            trace.append((time.monotonic() - start, best_value))
            if target is not None and best_value >= target:
                break
        if n == 0:
            break
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

    return best_take, best_value, trace, False


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
def solve_buggy(
    data: KnapsackData, target: int | None, start: float, deadline: float, seed: int, mem_limit: int | None
) -> Found:
    """Always returns a wrong answer: infeasible payload or misreported objective."""
    take = list(data.copies)
    total_weight = sum(t * w for t, w in zip(take, data.weight))
    objective = sum(t * v for t, v in zip(take, data.value))
    if total_weight <= data.capacity:
        objective += 1  # feasible by luck: misreport the objective instead
    return take, objective, [], True


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
