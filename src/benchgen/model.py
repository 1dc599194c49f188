"""Generator models: declarations of decision variables plus constraints.

A generator model pairs a parameter space with decision variables whose
shapes and bounds may depend on the parameters. Solving an instantiated
model produces candidate-instance data. The text format is line based:

    var capacity : int 1..100
    var weight[n_items] : int 1..w_max
    var picks : set of 1..10
    var succ[n_tasks] : set of 2..n_tasks
    constraint sum(weight) >= capacity

``#`` starts a comment. Bounds and shapes are expressions over parameters.
"""

from __future__ import annotations

import re
from typing import Any, Mapping

from . import expressions as ex
from .errors import EvalError, ModelError, ParseError, ValidationError
from .records import Record
from .space import GeneratorConfiguration, ParameterSpace
from .valuetext import NAME, is_int, quoted

_VAR_RE = re.compile(rf"var\s+({NAME})\s*(?:\[([^\]]+)\])?\s*:\s*(int|set\s+of)\s+(.+?)\s*\.\.\s*(.+?)\s*")


class DecisionVar(Record, frozen=True):
    """One declared decision variable.

    ``kind`` is "int" or "set"; a non-None ``shape`` makes it an array of
    that kind. Bounds give the element (or set-universe) range.
    """

    name: str
    kind: str
    lower: ex.Expr
    upper: ex.Expr
    shape: ex.Expr | None = None


class InstantiatedVar(Record, frozen=True):
    """A decision variable with shapes and bounds resolved for one config."""

    name: str
    kind: str
    lower: int
    upper: int
    length: int | None  # None for scalars / single sets


class GeneratorModel(Record, frozen=True):
    space: ParameterSpace
    decision_vars: tuple[DecisionVar, ...]
    constraints: tuple[ex.Expr, ...]


def parse_model(space: ParameterSpace, text: str) -> GeneratorModel:
    """Parse variable and constraint declarations against a space."""
    decision_vars: list[DecisionVar] = []
    constraints: list[ex.Expr] = []
    names = set(space.names)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        try:
            if line.startswith("var "):
                m = _VAR_RE.fullmatch(line)
                if not m:
                    raise ParseError(f"malformed variable declaration: {quoted(raw.strip())}")
                name, shape_txt, kind_txt, lo_txt, hi_txt = m.groups()
                if name in names:
                    raise ValidationError(f"name {quoted(name)} already declared")
                var = DecisionVar(
                    name=name,
                    kind="set" if kind_txt.startswith("set") else "int",
                    shape=ex.parse_expression(shape_txt) if shape_txt else None,
                    lower=ex.parse_expression(lo_txt),
                    upper=ex.parse_expression(hi_txt),
                )
                for bound in (var.lower, var.upper) + ((var.shape,) if shape_txt else ()):
                    unknown = ", ".join(sorted(ex.names_in(bound) - set(space.names)))
                    if unknown:
                        raise ValidationError(f"bounds of {quoted(name)} reference non-parameters: {quoted(unknown)}")
                decision_vars.append(var)
                names.add(name)
            elif line.startswith("constraint "):
                expr = ex.parse_expression(line[len("constraint "):])
                unknown = ", ".join(sorted(ex.names_in(expr) - names))
                if unknown:
                    raise ValidationError(f"constraint references unknown identifiers: {quoted(unknown)}")
                constraints.append(expr)
            elif line:
                raise ParseError(f"expected 'var' or 'constraint', got {quoted(raw.strip())}")
        except (ParseError, ValidationError) as err:
            raise type(err)(f"line {lineno}: {err}") from None
    if not decision_vars:
        raise ValidationError("generator model declares no decision variables")
    return GeneratorModel(
        space=space,
        decision_vars=tuple(decision_vars),
        constraints=tuple(constraints),
    )


def _eval_bound(expr: ex.Expr, env: Mapping[str, Any], what: str) -> int:
    try:
        value = ex.evaluate(expr, env)
    except EvalError as err:
        raise ModelError(f"{what}: {err}") from err
    if isinstance(value, bool):
        raise ModelError(f"{what}: bound is not a number")
    if value.denominator != 1:
        raise ModelError(f"{what}: bound {value} is not an integer")
    return int(value)


def instantiate(model: GeneratorModel, config: GeneratorConfiguration) -> list[InstantiatedVar]:
    """Resolve shapes and bounds for a configuration.

    Raises ModelError when a shape is ill-defined (negative length, or a
    non-integer bound) for this configuration.
    """
    env = dict(config.assignment)
    out: list[InstantiatedVar] = []
    for var in model.decision_vars:
        lo = _eval_bound(var.lower, env, f"lower bound of {var.name}")
        hi = _eval_bound(var.upper, env, f"upper bound of {var.name}")
        length: int | None = None
        if var.shape is not None:
            length = _eval_bound(var.shape, env, f"shape of {var.name}")
            if length < 0:
                raise ModelError(f"shape of {var.name} is negative ({length}) for {config.id}")
        out.append(InstantiatedVar(var.name, var.kind, lo, hi, length))
    return out


def _conforms(iv: InstantiatedVar, value: Any) -> bool:
    def ok_int(v: Any) -> bool:
        return is_int(v) and iv.lower <= v <= iv.upper

    def ok(v: Any) -> bool:
        return ok_int(v) if iv.kind == "int" else isinstance(v, (set, frozenset)) and all(map(ok_int, v))

    if iv.length is None:
        return ok(value)
    return isinstance(value, list) and len(value) == iv.length and all(map(ok, value))


def check_assignment(
    model: GeneratorModel, config: GeneratorConfiguration, values: Mapping[str, Any]
) -> bool:
    """Re-check a full assignment against the instantiated model.

    True iff every value conforms to its declared shape and domain and all
    constraints hold under (config, values). A constraint that cannot be
    evaluated counts as violated, as in the generator search. Raises
    EvalError when a decision variable is missing.
    """
    instantiated = instantiate(model, config)
    missing = [iv.name for iv in instantiated if iv.name not in values]
    if missing:
        raise EvalError(f"assignment missing decision variables: {missing}")
    for iv in instantiated:
        if not _conforms(iv, values[iv.name]):
            return False
    env: dict[str, Any] = dict(config.assignment)
    for iv in instantiated:
        env[iv.name] = values[iv.name]
    try:
        return all(bool(ex.evaluate(c, env)) for c in model.constraints)
    except EvalError:
        return False
