"""Shared helpers: fabricated archives, naive scoring references and
exhaustive enumerations used as test oracles."""

import io
import json
import re
import shutil
import time
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

import pytest

from benchgen import archivewriter
from benchgen.archive import CampaignArchive
from benchgen.csp import GroundedCsp, Search, backtrack_solve
from benchgen.errors import EvalError, ParseError, ValidationError
from benchgen.evaluate import (
    EvaluationLimits,
    EvaluationResult,
    GradedPolicy,
    Policy,
    discriminating_scores,
    evaluate_configuration,
    status_penalty,
)
from benchgen.expressions import (
    AllDifferent,
    And,
    BinOp,
    Card,
    Compare,
    Expr,
    Index,
    InSet,
    IntLit,
    MaxOf,
    MinOf,
    Name,
    Neg,
    Sum,
    Value,
)
from benchgen.gensolve import CandidateInstance, GenOutcome, SolutionHistory
from benchgen.model import parse_model
from benchgen.problems import KnapsackData
from benchgen.space import GeneratorConfiguration, ParameterSpace, parse_space
from benchgen.valuetext import NAME, format_value


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
    if isinstance(expr, Card):
        arg = reference_evaluate(expr.arg, env)
        if isinstance(arg, set):
            return len(arg)
        if isinstance(arg, list) and all(isinstance(e, set) for e in arg):
            return [len(e) for e in arg]
        raise EvalError("card() needs a set or an array of sets")
    if isinstance(expr, Sum):
        arr = _as_int_array(reference_evaluate(expr.arg, env), "sum()")
        return sum(arr)
    if isinstance(expr, MinOf):
        arr = _as_int_array(reference_evaluate(expr.arg, env), "min()")
        if not arr:
            raise EvalError("min() of an empty array")
        return min(arr)
    if isinstance(expr, MaxOf):
        arr = _as_int_array(reference_evaluate(expr.arg, env), "max()")
        if not arr:
            raise EvalError("max() of an empty array")
        return max(arr)
    if isinstance(expr, Neg):
        return -_as_number(reference_evaluate(expr.arg, env), "negation")
    if isinstance(expr, BinOp):
        left = _as_number(reference_evaluate(expr.left, env), expr.op)
        right = _as_number(reference_evaluate(expr.right, env), expr.op)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if right == 0:
            raise EvalError("division by zero")
        return Fraction(left) / Fraction(right)
    if isinstance(expr, Compare):
        left = _as_number(reference_evaluate(expr.left, env), expr.op)
        right = _as_number(reference_evaluate(expr.right, env), expr.op)
        return {
            "=": left == right,
            "!=": left != right,
            "<": left < right,
            "<=": left <= right,
            ">": left > right,
            ">=": left >= right,
        }[expr.op]
    if isinstance(expr, InSet):
        item = _as_number(reference_evaluate(expr.item, env), "in")
        container = reference_evaluate(expr.container, env)
        if not isinstance(container, set):
            raise EvalError("right side of 'in' must be a set")
        return item in container
    if isinstance(expr, AllDifferent):
        arr = _as_int_array(reference_evaluate(expr.arg, env), "alldifferent()")
        return len(set(arr)) == len(arr)
    if isinstance(expr, And):
        return bool(reference_evaluate(expr.left, env)) and bool(reference_evaluate(expr.right, env))
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
_REFERENCE_FUNCTIONS = {"sum": Sum, "card": Card, "alldifferent": AllDifferent, "min": MinOf, "max": MaxOf}
_REFERENCE_RELATIONS = {"=": "=", "==": "=", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">=", "in": "in"}
_REFERENCE_BINDING = {"+": 1, "-": 1, "*": 2, "/": 2}


def _reference_expect(tokens: list[str], want: str) -> None:
    found = tokens.pop()
    if found != want:
        raise ParseError(f"expected {want!r}, found {found!r}" if found else "unexpected end of expression")


def _reference_operand(tokens: list[str]) -> Expr:
    tok = tokens.pop()
    if tok == "-":
        return Neg(_reference_operand(tokens))
    if tok.isdecimal():
        try:
            node = IntLit(int(tok))
        except ValueError:
            raise ParseError(f"integer literal of {len(tok)} digits is too long") from None
    elif tok in _REFERENCE_FUNCTIONS:
        _reference_expect(tokens, "(")
        node = _REFERENCE_FUNCTIONS[tok](_reference_arith(tokens))
        _reference_expect(tokens, ")")
    elif tok == "(":
        node = _reference_condition(tokens)
        _reference_expect(tokens, ")")
    elif tok == "|":
        node = Card(_reference_arith(tokens))
        _reference_expect(tokens, "|")
    elif re.fullmatch(NAME, tok) and tok not in ("and", "in"):
        node = Name(tok)
    else:
        raise ParseError(f"unexpected {tok!r}" if tok else "unexpected end of expression")
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
            relation = InSet(relation, right) if op == "in" else Compare(op, relation, right)
        node = relation if node is None else And(node, relation)
        if tokens[-1] != "and":
            return node
        tokens.pop()


def reference_parse(text: str) -> Expr:
    """The tree of ``text`` by recursive descent; raises ParseError."""
    tokens = ["", *reversed(_REFERENCE_TOKEN.findall(text))]  # "" marks the end
    expr = _reference_condition(tokens)
    if tokens[-1]:
        raise ParseError(f"trailing input after expression: {tokens[-1]!r}")
    return expr


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
