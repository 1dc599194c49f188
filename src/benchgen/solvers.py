"""In-process solvers for the toy problem family.

Four kinds are registered:
  exact          branch and bound, claims optimality / proves infeasibility
  hillclimb      stochastic hill climbing with restarts and a best-objective
                 trace; never claims optimality, never proves UNSAT
  synthetic:EXPR reports success after a virtual latency computed by EXPR
                 over the instance values (no real sleeping)
  buggy          returns infeasible or misreported answers; exercises the
                 solution checker

All run under a wall-clock deadline; the exact and hillclimb solvers also
keep a rough allocation estimate and abort with an error once a memory cap
is exceeded.
"""

from __future__ import annotations

import time
from fractions import Fraction
from functools import lru_cache
from random import Random
from typing import Any, Mapping

from .errors import CheckError, EvalError, ParseError
from .expressions import Expr, evaluate_numeric, parse_expression
from .problems import KnapsackData, Problem, parse_knapsack
from .records import Record, field

_WORD = 64  # rough bytes per tracked allocation unit
HILLCLIMB_MAX_ITERATIONS = 200_000
# Distinct synthetic latency expressions kept parsed.
LATENCY_CACHE_SIZE = 64


class SolverOutcome(Record):
    """Raw outcome of one solver run, builtin or external (see ``external``)."""

    status: str  # "sat" | "unsat" | "timeout" | "error"
    time: float
    objective: int | None = None
    optimal: bool = False
    solution: dict[str, Any] | None = None
    trace: list[tuple[float, int]] = field(default_factory=list)
    note: str = ""


def _knapsack_or_error(problem: Problem, instance: Mapping[str, Any]) -> KnapsackData | SolverOutcome:
    if problem.name not in ("knapsack", "knapsack_decision"):
        return SolverOutcome("error", 0.0, note=f"unsupported problem {problem.name}")
    try:
        return parse_knapsack(instance)
    except CheckError as err:
        return SolverOutcome("error", 0.0, note=str(err))


def solve_exact(
    problem: Problem,
    instance: Mapping[str, Any],
    time_limit: float,
    seed: int = 0,
    mem_limit: int | None = None,
) -> SolverOutcome:
    """Branch and bound over item counts, best-density order, fractional bound."""
    del seed
    start = time.monotonic()
    deadline = start + time_limit
    data = _knapsack_or_error(problem, instance)
    if isinstance(data, SolverOutcome):
        return data
    target = instance.get("target") if problem.kind == "decision" else None
    if problem.kind == "decision" and not isinstance(target, int):
        return SolverOutcome("error", time.monotonic() - start, note="missing target")

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

    try:
        search(0, data.capacity, 0)
    except MemoryError:
        return SolverOutcome("error", time.monotonic() - start, note="memory cap exceeded")
    elapsed = time.monotonic() - start

    if problem.kind == "decision":
        assert target is not None
        if best_take is not None and best_value >= target:
            return SolverOutcome(
                "sat", elapsed, objective=None, optimal=False,
                solution={"take": best_take}, trace=trace,
            )
        if timed_out:
            return SolverOutcome("timeout", elapsed)
        return SolverOutcome("unsat", elapsed)

    if best_take is None:
        # Zero take is always feasible, so this only happens on instant timeout.
        return SolverOutcome("timeout", elapsed)
    return SolverOutcome(
        "sat",
        elapsed,
        objective=best_value,
        optimal=not timed_out,
        solution={"take": best_take},
        trace=trace,
    )


def solve_hillclimb(
    problem: Problem,
    instance: Mapping[str, Any],
    time_limit: float,
    seed: int = 0,
    mem_limit: int | None = None,
) -> SolverOutcome:
    """Random restarts plus single-item moves, accepting strict improvements."""
    start = time.monotonic()
    deadline = start + time_limit
    data = _knapsack_or_error(problem, instance)
    if isinstance(data, SolverOutcome):
        return data
    target = instance.get("target") if problem.kind == "decision" else None
    if problem.kind == "decision" and not isinstance(target, int):
        return SolverOutcome("error", time.monotonic() - start, note="missing target")

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
            return SolverOutcome("error", time.monotonic() - start, note="memory cap exceeded")
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
        if new_count < 0 or new_count > data.copies[i]:
            if rng.random() < 0.05:
                take, weight, value = greedy_random_fill()
            continue
        new_weight = weight + delta * data.weight[i]
        new_value = value + delta * data.value[i]
        if new_weight > data.capacity or new_value < value:
            if rng.random() < 0.05:
                take, weight, value = greedy_random_fill()
            continue
        take[i] = new_count
        weight, value = new_weight, new_value

    elapsed = time.monotonic() - start
    if problem.kind == "decision":
        if best_take is not None and target is not None and best_value >= target:
            return SolverOutcome("sat", elapsed, solution={"take": best_take}, trace=trace)
        return SolverOutcome("timeout", elapsed, trace=trace)
    if best_take is None:
        return SolverOutcome("timeout", elapsed)
    return SolverOutcome(
        "sat", elapsed, objective=best_value, optimal=False,
        solution={"take": best_take}, trace=trace,
    )


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
) -> SolverOutcome:
    """Report success after a programmed virtual latency (never sleeps).

    Latency beyond the limit becomes a timeout with the limit as the
    recorded time. On success the trivial solution is reported together
    with its true objective and an optimality claim, modelling a complete
    solver finishing its run.
    """
    del seed
    try:
        scalars = {k: v for k, v in instance.items() if isinstance(v, int) and not isinstance(v, bool)}
        arrays = {k: v for k, v in instance.items() if isinstance(v, list) and all(isinstance(e, int) for e in v)}
        latency = float(evaluate_numeric(_latency(latency_expr), {**scalars, **arrays}))
    except (ParseError, EvalError) as err:
        return SolverOutcome("error", 0.0, note=f"latency expression: {err}")
    if latency < 0:
        latency = 0.0
    if latency > time_limit:
        return SolverOutcome("timeout", time_limit)
    try:
        trivial = problem.trivial_solution(instance)
    except CheckError:
        trivial = None  # instance is not of this problem's shape; report bare success
    if trivial is None:
        return SolverOutcome("sat", latency, optimal=True)
    payload, objective = trivial
    return SolverOutcome(
        "sat", latency, objective=objective, optimal=True,
        solution=payload, trace=[(latency, objective)] if objective is not None else [],
    )


def solve_buggy(
    problem: Problem,
    instance: Mapping[str, Any],
    time_limit: float,
    seed: int = 0,
) -> SolverOutcome:
    """Always returns a wrong answer: infeasible payload or misreported objective."""
    del time_limit, seed
    start = time.monotonic()
    data = _knapsack_or_error(problem, instance)
    if isinstance(data, SolverOutcome):
        return data
    take = list(data.copies)
    total_weight = sum(t * w for t, w in zip(take, data.weight))
    objective = sum(t * v for t, v in zip(take, data.value))
    if total_weight <= data.capacity:
        objective += 1  # feasible by luck: misreport the objective instead
    return SolverOutcome(
        "sat", time.monotonic() - start, objective=objective, optimal=True,
        solution={"take": take},
    )


def run_builtin(
    solver_id: str,
    problem: Problem,
    instance: Mapping[str, Any],
    time_limit: float,
    seed: int = 0,
    mem_limit: int | None = None,
) -> SolverOutcome:
    """Dispatch a builtin solver id, ``synthetic:EXPR`` carrying its latency."""
    if solver_id == "exact":
        return solve_exact(problem, instance, time_limit, seed, mem_limit)
    if solver_id == "hillclimb":
        return solve_hillclimb(problem, instance, time_limit, seed, mem_limit)
    if solver_id.startswith("synthetic:"):
        return solve_synthetic(solver_id.split(":", 1)[1], problem, instance, time_limit, seed)
    if solver_id == "buggy":
        return solve_buggy(problem, instance, time_limit, seed)
    return SolverOutcome("error", 0.0, note=f"unknown builtin solver {solver_id!r}")


def builtin_exists(solver_id: str) -> bool:
    """Whether ``solver_id`` names a builtin solver. A ``synthetic:`` id
    whose latency expression does not parse raises its ParseError."""
    if solver_id.startswith("synthetic:"):
        _latency(solver_id.split(":", 1)[1])
        return True
    return solver_id in ("exact", "hillclimb", "buggy")
