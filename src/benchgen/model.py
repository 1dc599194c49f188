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
from fractions import Fraction
from typing import Any, Mapping

from . import expressions as ex
from .errors import EvalError, ModelError, ParseError, ValidationError
from .records import Record
from .space import GeneratorConfiguration, ParameterSpace

_VAR_RE = re.compile(
    r"^var\s+([A-Za-z_][A-Za-z0-9_]*)\s*(?:\[([^\]]+)\])?\s*:\s*"
    r"(int|set\s+of)\s+(.+?)\s*\.\.\s*(.+?)\s*$"
)


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

    @property
    def spec_kind(self) -> str:
        if self.kind == "set":
            return "int_set"
        return "int_array" if self.shape is not None else "int"


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
        if not line:
            continue
        if line.startswith("var "):
            m = _VAR_RE.match(line)
            if not m:
                raise ParseError(f"line {lineno}: malformed variable declaration: {raw.strip()!r}")
            name, shape_txt, kind_txt, lo_txt, hi_txt = m.groups()
            if name in names:
                raise ValidationError(f"line {lineno}: name {name!r} already declared")
            kind = "set" if kind_txt.startswith("set") else "int"
            shape = ex.parse_expression(shape_txt) if shape_txt else None
            var = DecisionVar(
                name=name,
                kind=kind,
                lower=ex.parse_expression(lo_txt),
                upper=ex.parse_expression(hi_txt),
                shape=shape,
            )
            for bound in (var.lower, var.upper) + ((var.shape,) if shape else ()):
                unknown = ex.names_in(bound) - set(space.names)
                if unknown:
                    raise ValidationError(
                        f"line {lineno}: bounds of {name!r} reference non-parameters: {sorted(unknown)}"
                    )
            decision_vars.append(var)
            names.add(name)
        elif line.startswith("constraint "):
            expr = ex.parse_expression(line[len("constraint "):])
            unknown = ex.names_in(expr) - names
            if unknown:
                raise ValidationError(
                    f"line {lineno}: constraint references unknown identifiers: {sorted(unknown)}"
                )
            constraints.append(expr)
        else:
            raise ParseError(f"line {lineno}: expected 'var' or 'constraint', got {raw.strip()!r}")
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
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise ModelError(f"{what}: bound is not a number")
    if isinstance(value, Fraction):
        if value.denominator != 1:
            raise ModelError(f"{what}: bound {value} is not an integer")
        value = int(value)
    return value


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
        return isinstance(v, int) and not isinstance(v, bool) and iv.lower <= v <= iv.upper

    def ok_set(v: Any) -> bool:
        return isinstance(v, (set, frozenset)) and all(
            isinstance(e, int) and iv.lower <= e <= iv.upper for e in v
        )

    if iv.length is None:
        return ok_int(value) if iv.kind == "int" else ok_set(value)
    if not isinstance(value, list) or len(value) != iv.length:
        return False
    return all(ok_int(v) for v in value) if iv.kind == "int" else all(ok_set(v) for v in value)


def check_assignment(
    model: GeneratorModel, config: GeneratorConfiguration, values: Mapping[str, Any]
) -> bool:
    """Re-check a full assignment against the instantiated model.

    True iff every value conforms to its declared shape and domain and all
    constraints hold under (config, values). Raises EvalError on type
    mismatches inside constraint evaluation.
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
    return all(bool(ex.evaluate(c, env)) for c in model.constraints)
