"""Grounding of an instantiated generator model into a finite-domain CSP.

Integer variables become one CSP variable each, arrays one per element,
and sets one 0/1 membership variable per universe element (ascending, so
value-order search tries the empty set first). Each model constraint is
compiled to an exact check plus an interval-based pruning predicate that
refutes partial assignments early; pruning is best effort and gives up
(no refutation) on anything it cannot bound. Interval bounds are plain
ints; a bound becomes a Fraction only where a division is evaluated, so
pruning stays exact without paying for rationals elsewhere.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Mapping, Sequence

from . import expressions as ex
from .csp import CspConstraint, CspVariable, GroundedCsp
from .errors import EvalError
from .model import GeneratorModel, InstantiatedVar, instantiate
from .space import GeneratorConfiguration
from .valuetext import canonical_key


class TranslateTimeout(Exception):
    """Grounding exceeded its deadline or the flattening size cap."""


# Instantiations bigger than this never finish in the micro solver anyway;
# treating them as a translation failure mirrors the discard-immediately
# penalty for configurations too large to go through the pipeline.
MAX_CSP_CELLS = 2_000_000


@dataclass(frozen=True)
class _Layout:
    iv: InstantiatedVar
    start: int
    count: int

    @property
    def universe(self) -> range:
        return range(self.iv.lower, self.iv.upper + 1)


Bound = int | Fraction
Interval = tuple[Bound, Bound]


class _GiveUp(Exception):
    """Raised when interval evaluation cannot bound a subexpression."""


@dataclass(frozen=True)
class _SetDesc:
    definite: frozenset[int]
    possible: frozenset[int]


def _value_env(
    params: Mapping[str, int], layouts: Sequence[_Layout], assignment: Sequence[int | None]
) -> dict[str, Any]:
    env: dict[str, Any] = dict(params)
    for lay in layouts:
        iv = lay.iv
        if iv.kind == "int":
            if iv.length is None:
                env[iv.name] = assignment[lay.start]
            else:
                env[iv.name] = list(assignment[lay.start : lay.start + iv.length])
        else:
            universe = list(lay.universe)
            width = len(universe)

            def one_set(offset: int) -> set[int]:
                return {
                    universe[j]
                    for j in range(width)
                    if assignment[offset + j] == 1
                }

            if iv.length is None:
                env[iv.name] = one_set(lay.start)
            else:
                env[iv.name] = [one_set(lay.start + i * width) for i in range(iv.length)]
    return env


def _partial_env(
    params: Mapping[str, int], layouts: Sequence[_Layout], assignment: Sequence[int | None]
) -> dict[str, Any]:
    """Descriptors for interval evaluation: intervals and partial sets."""
    env: dict[str, Any] = {name: (v, v) for name, v in params.items()}
    for lay in layouts:
        iv = lay.iv
        if iv.kind == "int":
            lo, hi = iv.lower, iv.upper

            def cell(idx: int) -> Interval:
                v = assignment[idx]
                return (v, v) if v is not None else (lo, hi)

            if iv.length is None:
                env[iv.name] = cell(lay.start)
            else:
                env[iv.name] = [cell(lay.start + i) for i in range(iv.length)]
        else:
            universe = list(lay.universe)
            width = len(universe)

            def one_desc(offset: int) -> _SetDesc:
                definite = set()
                possible = set()
                for j, u in enumerate(universe):
                    bit = assignment[offset + j]
                    if bit == 1:
                        definite.add(u)
                        possible.add(u)
                    elif bit is None:
                        possible.add(u)
                return _SetDesc(frozenset(definite), frozenset(possible))

            if iv.length is None:
                env[iv.name] = one_desc(lay.start)
            else:
                env[iv.name] = [one_desc(lay.start + i * width) for i in range(iv.length)]
    return env


def _ieval(expr: ex.Expr, env: Mapping[str, Any]) -> Any:
    if isinstance(expr, ex.IntLit):
        return (expr.value, expr.value)
    if isinstance(expr, ex.Name):
        if expr.name not in env:
            raise _GiveUp
        return env[expr.name]
    if isinstance(expr, ex.Index):
        base = _ieval(expr.base, env)
        if not isinstance(base, list):
            raise _GiveUp
        idx = _ieval(expr.index, env)
        if not _is_interval(idx):
            raise _GiveUp
        lo, hi = idx
        if lo == hi and lo.denominator == 1:
            i = int(lo)
            if not (1 <= i <= len(base)):
                raise _GiveUp
            return base[i - 1]
        if not base:
            raise _GiveUp
        return _hull(base)
    if isinstance(expr, ex.Card):
        arg = _ieval(expr.arg, env)
        if isinstance(arg, _SetDesc):
            return (len(arg.definite), len(arg.possible))
        if isinstance(arg, list) and all(isinstance(e, _SetDesc) for e in arg):
            return [(len(e.definite), len(e.possible)) for e in arg]
        raise _GiveUp
    if isinstance(expr, ex.Sum):
        arr = _ieval(expr.arg, env)
        if not isinstance(arr, list) or not all(_is_interval(e) for e in arr):
            raise _GiveUp
        return (sum(e[0] for e in arr), sum(e[1] for e in arr))
    if isinstance(expr, (ex.MinOf, ex.MaxOf)):
        arr = _ieval(expr.arg, env)
        if not isinstance(arr, list) or not arr or not all(_is_interval(e) for e in arr):
            raise _GiveUp
        if isinstance(expr, ex.MinOf):
            return (min(e[0] for e in arr), min(e[1] for e in arr))
        return (max(e[0] for e in arr), max(e[1] for e in arr))
    if isinstance(expr, ex.Neg):
        lo, hi = _numeric(_ieval(expr.arg, env))
        return (-hi, -lo)
    if isinstance(expr, ex.BinOp):
        a, b = _numeric(_ieval(expr.left, env))
        c, d = _numeric(_ieval(expr.right, env))
        if expr.op == "+":
            return (a + c, b + d)
        if expr.op == "-":
            return (a - d, b - c)
        if expr.op == "*":
            products = (a * c, a * d, b * c, b * d)
            return (min(products), max(products))
        if c <= 0 <= d:
            raise _GiveUp
        quotients = (Fraction(a) / c, Fraction(a) / d, Fraction(b) / c, Fraction(b) / d)
        return (min(quotients), max(quotients))
    raise _GiveUp


def _is_interval(v: Any) -> bool:
    return isinstance(v, tuple) and len(v) == 2 and isinstance(v[0], (int, Fraction))


def _numeric(v: Any) -> Interval:
    if not _is_interval(v):
        raise _GiveUp
    return v


def _hull(items: list) -> Any:
    if all(_is_interval(e) for e in items):
        return (min(e[0] for e in items), max(e[1] for e in items))
    if all(isinstance(e, _SetDesc) for e in items):
        possible: frozenset[int] = frozenset()
        for e in items:
            possible |= e.possible
        return _SetDesc(frozenset(), possible)
    raise _GiveUp


def _violated(expr: ex.Expr, env: Mapping[str, Any]) -> bool:
    """True when the partial assignment already refutes the constraint."""
    try:
        if isinstance(expr, ex.And):
            return _violated(expr.left, env) or _violated(expr.right, env)
        if isinstance(expr, ex.Compare):
            a, b = _numeric(_ieval(expr.left, env))
            c, d = _numeric(_ieval(expr.right, env))
            if expr.op == "=":
                return b < c or d < a
            if expr.op == "!=":
                return a == b == c == d
            if expr.op == "<":
                return a >= d
            if expr.op == "<=":
                return a > d
            if expr.op == ">":
                return b <= c
            return b < c  # >=
        if isinstance(expr, ex.InSet):
            a, b = _numeric(_ieval(expr.item, env))
            container = _ieval(expr.container, env)
            if not isinstance(container, _SetDesc):
                raise _GiveUp
            if a == b:
                return a.denominator != 1 or int(a) not in container.possible
            return not any(a <= p <= b for p in container.possible)
        if isinstance(expr, ex.AllDifferent):
            arr = _ieval(expr.arg, env)
            if not isinstance(arr, list) or not all(_is_interval(e) for e in arr):
                raise _GiveUp
            fixed = [e[0] for e in arr if e[0] == e[1]]
            return len(set(fixed)) != len(fixed)
        raise _GiveUp
    except _GiveUp:
        return False


def ground(
    model: GeneratorModel,
    config: GeneratorConfiguration,
    deadline: float | None = None,
    max_cells: int = MAX_CSP_CELLS,
) -> GroundedCsp:
    """Flatten the model for one configuration into a GroundedCsp.

    Raises ModelError for ill-defined shapes and TranslateTimeout when the
    monotonic ``deadline`` passes during grounding or the flattened size
    exceeds ``max_cells`` domain cells.
    """

    def check_deadline() -> None:
        if deadline is not None and time.monotonic() >= deadline:
            raise TranslateTimeout

    check_deadline()
    instantiated = instantiate(model, config)
    params = dict(config.assignment)

    total_cells = 0
    for iv in instantiated:
        width = max(iv.upper - iv.lower + 1, 0)
        count = iv.length if iv.length is not None else 1
        total_cells += (width if iv.kind == "int" else 2 * width) * count
        if total_cells > max_cells:
            raise TranslateTimeout

    layouts: list[_Layout] = []
    variables: list[CspVariable] = []
    for iv in instantiated:
        check_deadline()
        start = len(variables)
        if iv.kind == "int":
            domain = tuple(range(iv.lower, iv.upper + 1))
            count = iv.length if iv.length is not None else 1
            if iv.length is None:
                variables.append(CspVariable(iv.name, domain))
            else:
                for i in range(iv.length):
                    variables.append(CspVariable(f"{iv.name}[{i + 1}]", domain))
        else:
            universe = list(range(iv.lower, iv.upper + 1))
            width = len(universe)
            count = width * (iv.length if iv.length is not None else 1)
            if iv.length is None:
                for u in universe:
                    variables.append(CspVariable(f"{iv.name}{{{u}}}", (0, 1)))
            else:
                for i in range(iv.length):
                    for u in universe:
                        variables.append(CspVariable(f"{iv.name}[{i + 1}]{{{u}}}", (0, 1)))
        layouts.append(_Layout(iv, start, count))

    by_name = {lay.iv.name: lay for lay in layouts}

    constraints: list[CspConstraint] = []
    for cexpr in model.constraints:
        check_deadline()
        referenced = [by_name[n] for n in sorted(ex.names_in(cexpr)) if n in by_name]
        scope = tuple(
            sorted(idx for lay in referenced for idx in range(lay.start, lay.start + lay.count))
        )

        def make_check(cx: ex.Expr, ref: list[_Layout]):
            def check(assignment: Sequence[int | None]) -> bool:
                env = _value_env(params, ref, assignment)
                try:
                    return bool(ex.evaluate(cx, env))
                except EvalError:
                    return False

            return check

        def make_prune(cx: ex.Expr, ref: list[_Layout]):
            def prune(assignment: Sequence[int | None]) -> bool:
                return _violated(cx, _partial_env(params, ref, assignment))

            return prune

        constraints.append(
            CspConstraint(
                scope=scope,
                check=make_check(cexpr, referenced),
                prune=make_prune(cexpr, referenced) if scope else None,
                label=str(cexpr),
            )
        )

    def decode(assignment: Sequence[int | None]) -> dict[str, Any]:
        env = _value_env({}, layouts, assignment)
        return env

    return GroundedCsp(
        variables=variables,
        constraints=constraints,
        decode=decode,
        key_of=canonical_key,
    )
