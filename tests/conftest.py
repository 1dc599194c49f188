"""Shared helpers: fabricated archives, naive scoring references, the
earlier parser and knapsack searches, and exhaustive enumerations used as
test oracles."""

import io
import json
import re
import shutil
import time
from fractions import Fraction
from pathlib import Path
from random import Random
from typing import Any, Callable, Iterator, Mapping

import pytest

from benchgen import archivewriter, solvers
from benchgen.archive import CampaignArchive
from benchgen.csp import GroundedCsp, Search, backtrack_solve
from benchgen.errors import CheckError, EvalError, ParseError, ValidationError
from benchgen.evaluate import (
    EvaluationLimits,
    EvaluationResult,
    GradedPolicy,
    Policy,
    discriminating_scores,
    evaluate_configuration,
    status_penalty,
)
from benchgen.expressions import BinOp, Call, Expr, Index, IntLit, Name, Value
from benchgen.gensolve import CandidateInstance, GenOutcome, SolutionHistory
from benchgen.model import parse_model
from benchgen.problems import PROBLEMS, KnapsackData, Problem, parse_knapsack
from benchgen.runner import SolverRecord, Status
from benchgen.space import GeneratorConfiguration, ParameterSpace, parse_space
from benchgen.valuetext import NAME, format_value, is_int


def exclusion_key(values: dict[str, Any]) -> str:
    """One-line key of a decision-value map: equal values, equal key."""
    return ";".join(f"{name}={format_value(values[name])}" for name in sorted(values))


def make_configuration(space: ParameterSpace, assignment: dict[str, int]) -> GeneratorConfiguration:
    """Validate an assignment against the space and wrap it."""
    missing = [n for n in space.names if n not in assignment]
    if missing:
        raise ValidationError(f"assignment missing parameters: {missing}")
    extra = [n for n in assignment if n not in space]
    if extra:
        raise ValidationError(f"assignment has unknown parameters: {extra}")
    for spec in space.params:
        v = assignment[spec.name]
        if not (spec.lower <= v <= spec.upper):
            raise ValidationError(
                f"parameter {spec.name}={v} outside [{spec.lower}, {spec.upper}]"
            )
    return GeneratorConfiguration(assignment=dict(assignment))


def penalty_of(policy, *records) -> float:
    """The penalty an evaluation derives from its solver records: the one
    record of a graded policy, or the favoured then the base record."""
    if isinstance(policy, GradedPolicy):
        return status_penalty(policy.classify(*records))
    scores = discriminating_scores(*records, policy.problem.kind)
    return status_penalty(policy.classify(*records, scores), scores)


def evaluate_generator(outcome: GenOutcome, policy: Policy) -> EvaluationResult:
    """Evaluate a configuration whose generator search ends in ``outcome``:
    an unsatisfiable model, a translate or solve limit of a nanosecond
    (shorter than any step of either), or a solution."""
    space = parse_space("n: 1..1")
    text = "var x : int 1..3" + ("\nconstraint x = 0" if outcome is GenOutcome.UNSAT else "")
    limits = EvaluationLimits(
        translate_limit=1e-9 if outcome is GenOutcome.TRANSLATE_TIMEOUT else 5.0,
        solve_limit=1e-9 if outcome is GenOutcome.SOLVE_TIMEOUT else 5.0,
        mem_limit=None,
    )
    config = GeneratorConfiguration({"n": 1})
    result = evaluate_configuration(parse_model(space, text), config, SolutionHistory(), policy, limits)
    assert result.generator_outcome is outcome
    return result


def tuner_log(archive: CampaignArchive) -> str:
    return (archive.root / "tuner.log").read_text()


def killed_copy(full: Path, out: Path, k: int) -> Path:
    """Copy the finished campaign archive ``full`` to ``out`` as a SIGKILL
    after its k-th record leaves it: the first k records and ``tuner.log``
    lines, only those records' ``.inst`` files, and no ``history.json``
    (a campaign writes that when it ends)."""
    shutil.copytree(full, out)
    evals, log = out / "records" / "evals.jsonl", out / "tuner.log"
    records = evals.read_bytes().splitlines(keepends=True)[:k]
    assert len(records) == k, "the campaign recorded fewer than k evaluations"
    evals.write_bytes(b"".join(records))
    log.write_bytes(b"".join(log.read_bytes().splitlines(keepends=True)[:k]))
    kept = {f"{json.loads(line)['instance_id']}.inst" for line in records}
    for inst in (out / "instances").glob("*.inst"):
        if inst.name not in kept:
            inst.unlink()
    (out / "history.json").unlink()
    return out


def capture_frames(monkeypatch) -> list[tuple[str, bytes]]:
    """Collect, in order, the ``(name, data)`` frames that campaigns hand
    their archive writer from now on; each is still written."""
    frames: list[tuple[str, bytes]] = []
    write = CampaignArchive._write

    def capture(self, name: str, text: str, handover: bool = False) -> None:
        frames.append((name, text.encode()))
        write(self, name, text, handover)

    monkeypatch.setattr(CampaignArchive, "_write", capture)
    return frames


def cut_at(frames: list[tuple[str, bytes]], i: int, torn: bool, full: Path, out: Path) -> Path:
    """Build at ``out`` the archive that a crash leaves once the writer has
    applied the first ``i`` of the campaign's ``frames``, and with ``torn``
    the first half of frame i as well (half a log line, or half an
    ``.inst``). The files that ``CampaignArchive.create`` writes come from
    the finished archive ``full``; no ``history.json`` (a campaign writes
    that when it ends)."""
    for name in ("instances", "records", "reports"):
        (out / name).mkdir(parents=True)
    for name in ("config.json", "space.txt", "generator.model"):
        shutil.copyfile(full / name, out / name)
    return crash_after(frames, i, torn, out)


def crash_after(frames: list[tuple[str, bytes]], i: int, torn: bool, out: Path) -> Path:
    """Apply to the archive at ``out`` the first ``i`` of ``frames``, and
    with ``torn`` the first half of frame i as well, as a writer does that
    dies there."""
    applied = [archivewriter.frame(name, data) for name, data in frames[:i]]
    if torn:
        name, data = frames[i]
        applied.append(archivewriter.frame(name, data[: len(data) // 2]))
    archivewriter.apply(str(out), io.BytesIO(b"".join(applied)))
    return out


def decision_values(instance: CandidateInstance, config: GeneratorConfiguration) -> dict[str, Any]:
    """An instance's decision values: its values minus the configuration's parameters."""
    return {k: v for k, v in instance.values.items() if k not in config.assignment}


def enumerate_solutions(
    csp: GroundedCsp, limit: int = 1_000_000, time_limit: float = 60.0
) -> list[dict[str, Any]]:
    """Exhaust the search tree by stepping one search from solution to solution."""
    found: list[dict[str, Any]] = []
    search = Search(csp)
    while len(found) < limit:
        res = backtrack_solve(search, time.monotonic() + time_limit)
        if res.status is not GenOutcome.SOLUTION:
            break
        assert res.values is not None
        found.append(res.values)
    return found


def iter_selections(data: KnapsackData) -> Iterator[list[int]]:
    """All take vectors within copy bounds (exhaustive; small instances only)."""
    counts = [c + 1 for c in data.copies]
    take = [0] * data.n_items
    while True:
        yield list(take)
        i = 0
        while i < data.n_items:
            take[i] += 1
            if take[i] < counts[i]:
                break
            take[i] = 0
            i += 1
        else:
            return


def _as_number(v: Any, context: str) -> int | Fraction:
    if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
        raise EvalError(f"{context}: expected an integer, got {type(v).__name__}")
    return v


def _as_int_array(v: Any, context: str) -> list:
    if not isinstance(v, list) or any(isinstance(e, (set, list)) for e in v):
        raise EvalError(f"{context}: expected an integer array, got {type(v).__name__}")
    return v


def reference_evaluate(expr: Expr, env: Mapping[str, Value]) -> Any:
    """Evaluate under an environment mapping names to values.

    The reference definition of the model language: a tree walker that
    shares no code with the compiled semantics of ``benchgen.expressions``,
    so tests can compare the two.

    Division is exact (Fraction), so ``sum(xs)/n = d`` compares rationals
    rather than truncating. Raises EvalError on type mismatches, unknown
    names, and out-of-range indices.
    """
    if isinstance(expr, IntLit):
        return expr.value
    if isinstance(expr, Name):
        if expr.name not in env:
            raise EvalError(f"unknown identifier {expr.name!r}")
        return env[expr.name]
    if isinstance(expr, Index):
        base = reference_evaluate(expr.base, env)
        idx = reference_evaluate(expr.index, env)
        if not isinstance(base, list):
            raise EvalError("indexing a non-array value")
        idx = _as_number(idx, "array index")
        if idx != int(idx):
            raise EvalError(f"array index must be integral, got {idx}")
        i = int(idx)
        if not (1 <= i <= len(base)):
            raise EvalError(f"index {i} out of range 1..{len(base)}")
        return base[i - 1]
    if isinstance(expr, Call) and expr.fn == "card":
        arg = reference_evaluate(expr.arg, env)
        if isinstance(arg, set):
            return len(arg)
        if isinstance(arg, list) and all(isinstance(e, set) for e in arg):
            return [len(e) for e in arg]
        raise EvalError("card() needs a set or an array of sets")
    if isinstance(expr, Call):
        arr = _as_int_array(reference_evaluate(expr.arg, env), f"{expr.fn}()")
        if expr.fn == "sum":
            return sum(arr)
        if expr.fn == "alldifferent":
            return len(set(arr)) == len(arr)
        if not arr:
            raise EvalError(f"{expr.fn}() of an empty array")
        return min(arr) if expr.fn == "min" else max(arr)
    if isinstance(expr, BinOp) and expr.op == "and":
        return bool(reference_evaluate(expr.left, env)) and bool(reference_evaluate(expr.right, env))
    if isinstance(expr, BinOp) and expr.op == "in":
        item = _as_number(reference_evaluate(expr.left, env), "in")
        container = reference_evaluate(expr.right, env)
        if not isinstance(container, set):
            raise EvalError("right side of 'in' must be a set")
        return item in container
    if isinstance(expr, BinOp):
        left = _as_number(reference_evaluate(expr.left, env), expr.op)
        right = _as_number(reference_evaluate(expr.right, env), expr.op)
        if expr.op == "/":
            if right == 0:
                raise EvalError("division by zero")
            return Fraction(left) / Fraction(right)
        return {
            "+": left + right,
            "-": left - right,
            "*": left * right,
            "=": left == right,
            "!=": left != right,
            "<": left < right,
            "<=": left <= right,
            ">": left > right,
            ">=": left >= right,
        }[expr.op]
    raise EvalError(f"unknown AST node {expr!r}")


def reference_check(model, config, values: dict[str, Any]) -> bool:
    """Whether every constraint holds under (config, values) by the
    reference evaluator, a constraint it rejects counting as violated.
    The values must be of their declared shapes and domains."""
    env = {**config.assignment, **values}
    try:
        return all(bool(reference_evaluate(c, env)) for c in model.constraints)
    except EvalError:
        return False


# The recursive-descent reading of the model language: the parser as it
# was before it ran on an explicit stack, kept as the oracle for tree shape
# and error text. It has no depth limit of its own other than Python's
# recursion limit, so it is for expressions well below ``MAX_DEPTH``.
_REFERENCE_TOKEN = re.compile(rf"\s*(\d+|{NAME}|[=!<>]=|\S)")
_REFERENCE_FUNCTIONS = ("sum", "card", "alldifferent", "min", "max")
_REFERENCE_RELATIONS = {"=": "=", "==": "=", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">=", "in": "in"}
_REFERENCE_BINDING = {"+": 1, "-": 1, "*": 2, "/": 2}


def _reference_expect(tokens: list[str], want: str) -> None:
    found = tokens.pop()
    if found != want:
        raise ParseError(f"expected {want!r}, found {found[:40]!r}" if found else "unexpected end of expression")


def _reference_operand(tokens: list[str]) -> Expr:
    tok = tokens.pop()
    if tok == "-":
        return BinOp("-", IntLit(0), _reference_operand(tokens))
    if tok.isdecimal():
        try:
            node = IntLit(int(tok))
        except ValueError:
            raise ParseError(f"integer literal of {len(tok)} digits is too long") from None
    elif tok in _REFERENCE_FUNCTIONS:
        _reference_expect(tokens, "(")
        node = Call(tok, _reference_arith(tokens))
        _reference_expect(tokens, ")")
    elif tok == "(":
        node = _reference_condition(tokens)
        _reference_expect(tokens, ")")
    elif tok == "|":
        node = Call("card", _reference_arith(tokens))
        _reference_expect(tokens, "|")
    elif re.fullmatch(NAME, tok) and tok not in ("and", "in"):
        node = Name(tok)
    else:
        raise ParseError(f"unexpected {tok[:40]!r}" if tok else "unexpected end of expression")
    while tokens[-1] == "[":
        tokens.pop()
        node = Index(node, _reference_arith(tokens))
        _reference_expect(tokens, "]")
    return node


def _reference_arith(tokens: list[str], floor: int = 1) -> Expr:
    node = _reference_operand(tokens)
    while _REFERENCE_BINDING.get(tokens[-1], 0) >= floor:
        op = tokens.pop()
        node = BinOp(op, node, _reference_arith(tokens, _REFERENCE_BINDING[op] + 1))
    return node


def _reference_condition(tokens: list[str]) -> Expr:
    node = None
    while True:
        relation = _reference_arith(tokens)
        op = _REFERENCE_RELATIONS.get(tokens[-1])
        if op is not None:
            tokens.pop()
            right = _reference_arith(tokens)
            relation = BinOp(op, relation, right)
        node = relation if node is None else BinOp("and", node, relation)
        if tokens[-1] != "and":
            return node
        tokens.pop()


def reference_parse(text: str) -> Expr:
    """The tree of ``text`` by recursive descent; raises ParseError."""
    tokens = ["", *reversed(_REFERENCE_TOKEN.findall(text))]  # "" marks the end
    expr = _reference_condition(tokens)
    if tokens[-1]:
        raise ParseError(f"trailing input after expression: {tokens[-1][:40]!r}")
    return expr


# The knapsack searches as they were before their runs kept the clock, the
# memory cap, the target and the incumbent: each search keeps its own, and
# the frame maps what it returns to a record. Kept as the oracle for the
# records of runs that neither a deadline nor the memory cap stops; the
# iteration cap of the hill climber is read from ``benchgen.solvers``.
_Found = tuple[list[int] | None, int, list[tuple[float, int]], bool]


def _reference_knapsack_solver(*, complete: bool, reads_target: bool = True) -> Callable[..., Any]:
    """Make ``search(data, target, start, deadline, seed, mem_limit) -> _Found``
    the solver ``solve(problem, instance, time_limit, seed=0, mem_limit=None)``.

    ``target`` is None on an optimisation instance, and on every instance
    when the solver does not ``reads_target``. A decision run that misses
    its target is UNSAT when a ``complete`` search proved it, else a
    timeout, which keeps the trace only when the search is not complete.
    """

    def frame(search: Callable[..., _Found]) -> Callable[..., SolverRecord]:
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


@_reference_knapsack_solver(complete=True)
def reference_exact(
    data: KnapsackData, target: int | None, start: float, deadline: float, seed: int, mem_limit: int | None
) -> _Found:
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
        if mem_limit is not None and mem_units * solvers._WORD > mem_limit:
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


@_reference_knapsack_solver(complete=False)
def reference_hillclimb(
    data: KnapsackData, target: int | None, start: float, deadline: float, seed: int, mem_limit: int | None
) -> _Found:
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
    while iterations < solvers.HILLCLIMB_MAX_ITERATIONS:
        iterations += 1
        if iterations % 64 == 0 and time.monotonic() >= deadline:
            break
        if mem_limit is not None and (iterations + len(trace)) * solvers._WORD > mem_limit:
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


@_reference_knapsack_solver(complete=True, reads_target=False)
def reference_buggy(
    data: KnapsackData, target: int | None, start: float, deadline: float, seed: int, mem_limit: int | None
) -> _Found:
    """Always returns a wrong answer: infeasible payload or misreported objective."""
    take = list(data.copies)
    total_weight = sum(t * w for t, w in zip(take, data.weight))
    objective = sum(t * v for t, v in zip(take, data.value))
    if total_weight <= data.capacity:
        objective += 1  # feasible by luck: misreport the objective instead
    return take, objective, [], True


REFERENCE_SOLVERS = {"exact": reference_exact, "hillclimb": reference_hillclimb, "buggy": reference_buggy}


def from_deep_stack(call: Callable[[], Any], frames: int = 400) -> Any:
    """What ``call()`` returns when called ``frames`` frames deeper than here,
    as a caller that has used much of the stack would call it."""
    return call() if frames == 0 else from_deep_stack(call, frames - 1)


# Constraint templates over x (int), a[n] (int array) and s (set); {c} is a constant.
CONSTRAINT_TEMPLATES = (
    "sum(a) >= {c}",
    "sum(a) <= {c}",
    "alldifferent(a)",
    "x in s",
    "x + a[1] != {c}",
    "|s| <= {c}",
    "sum(a) / n = x",  # reaches the Fraction path of interval pruning
    "x * 2 - k < {c}",
    "max(a) >= x and min(a) <= {c}",
)

# Templates that evaluation rejects for some values (an index out of range
# or not an integer, a division by zero, arithmetic on a comparison), bare
# values, constraints over parameters alone, and t[n] (an array of sets).
ERROR_TEMPLATES = (
    "a[x] >= {c}",
    "a[k / 2] = x",
    "x / (x - {c}) >= 0",
    "(x < 1) = 1",
    "x",
    "k - {c}",
    "k >= {c}",
    "card(t[1]) = {c}",
    "x in t[x]",
)


def write_instance(archive: CampaignArchive, instance: CandidateInstance) -> None:
    """Write an instance's ``.inst`` as a campaign's writer does."""
    (archive.root / "instances" / f"{instance.id}.inst").write_text(instance.canonical_text)


def append_record(archive: CampaignArchive, entry: Mapping[str, Any]) -> None:
    """Append one evaluation record to ``records/evals.jsonl`` as a campaign's writer does."""
    with open(archive.root / "records" / "evals.jsonl", "a") as fh:
        fh.write(json.dumps(dict(entry)) + "\n")


def fabricate_graded_archive(
    root: Path,
    solver_name: str,
    entries,
    solver_kind: str = "complete",
    problem: str = "knapsack",
) -> CampaignArchive:
    """Write a minimal graded-campaign archive from (status, time, extras) rows.

    Each entry is a dict with at least ``status``; instances are synthesised
    tiny knapsacks so downstream evaluation can actually run them.
    """
    meta = {
        "campaign": "graded",
        "problem": problem,
        "solver": {"name": solver_name, "kind": solver_kind, "builtin": "exact", "command": None},
        "t_min": 10.0,
        "t_max": 1200.0,
        "types": ["SAT", "UNSAT"],
        "seed": 0,
        "total_budget": len(entries),
    }
    archive = CampaignArchive.create(root, meta, "cap_t: 1..50", "var capacity : int 1..50")
    for i, entry in enumerate(entries):
        status = entry["status"]
        instance = None
        if entry.get("with_instance", True):
            instance = CandidateInstance(
                values={
                    "capacity": 5 + (i % 17),
                    "weight": [2, 3 + (i % 4), 4],
                    "value": [3, 4, 5 + (i % 3)],
                },
                config_id=f"gfake{i:04d}",
                sequence=0,
            )
            write_instance(archive, instance)
        record = {
            "solver": solver_name,
            "status": entry.get("record_status", "sat"),
            "time": entry.get("time", 42.0),
            "objective": entry.get("objective", 0),
            "optimal_claimed": True,
            "solution": None,
            "time_to_best": entry.get("time_to_best"),
            "trace": [],
            "solution_ok": None,
            "note": "",
        }
        append_record(
            archive,
            {
                "seq": i + 1,
                "block": i,
                "config_id": f"gfake{i:04d}",
                "assignment": {"cap_t": 5 + (i % 17)},
                "instance_id": instance.id if instance else None,
                "penalty": entry.get("penalty", -1.0 if status == "graded" else 0.0),
                "status": status,
                "generator_outcome": "solution" if instance else "unsat",
                "records": {solver_name: record} if instance else {},
                "scores": entry.get("scores"),
            }
        )
    return archive


def naive_borda_totals(records, solvers, instances):
    """Reference Borda accumulation written straight from the definitions."""

    def better(a, b):
        if a.kind == "decision":
            return a.solved and not b.solved
        if a.solved != b.solved:
            return a.solved
        if a.optimal != b.optimal:
            return a.optimal
        if a.quality is None or b.quality is None:
            return False
        return a.quality < b.quality if a.kind == "minimise" else a.quality > b.quality

    def score(a, b):
        if better(a, b):
            return 1.0
        if better(b, a):
            return 0.0
        if a.solved and b.solved:
            return 0.5 if a.time + b.time == 0 else b.time / (a.time + b.time)
        return 0.0

    totals = {s: 0.0 for s in solvers}
    for i in instances:
        for s in solvers:
            for t in solvers:
                if s != t:
                    totals[s] += score(records[(s, i)], records[(t, i)])
    return totals


@pytest.fixture
def campaign_config_text():
    def make(kind="graded", budget=30, **extra):
        lines = [
            "[space]",
            "cap_t: 1..50",
            "",
            "[generator]",
            "model: knapsack.gen",
            "",
            "[campaign]",
            f"kind = {kind}",
            "problem = knapsack",
            "t_min = 2",
            "t_max = 5",
            f"budget = {budget}",
            "seed = 11",
            "translate_limit = 5",
            "solve_limit = 5",
            "mem_limit = none",
        ]
        for key, value in extra.items():
            lines.append(f"{key} = {value}")
        lines += [
            "",
            "[solver.band]",
            "builtin = synthetic:capacity / 10",
            "",
            "[solver.rising]",
            "builtin = synthetic:cap_t / 10",
            "",
            "[solver.falling]",
            "builtin = synthetic:(50 - cap_t) / 10",
        ]
        return "\n".join(lines) + "\n"

    return make


GENERATOR_MODEL = (
    "var capacity : int 1..50\n"
    "var weight[2] : int 1..9\n"
    "var value[2] : int 1..9\n"
    "constraint capacity = cap_t\n"
)


@pytest.fixture
def generator_model_text():
    return GENERATOR_MODEL
