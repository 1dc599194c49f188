"""Grounding of an instantiated generator model into a finite-domain CSP.

Integer variables become one CSP variable each, arrays one per element,
and sets one 0/1 membership variable per universe element (ascending, so
value-order search tries the empty set first). Each model constraint is
compiled, once per grounding, to one predicate over the assignment
vector that says whether the assignment refutes it. Each name is
resolved when the predicate is built (a parameter to a constant
interval, a decision variable to a reader of its slots), so the search
pays only for interval arithmetic. While the constraint's scope is
incomplete the predicate is best effort: it refutes only what the
interval bounds rule out, and a conjunct it cannot bound refutes
nothing. Once the last slot of the scope is assigned every bound is a
point and the verdict is exact, the one ``expressions.evaluate`` gives:
a conjunct that still cannot be bounded (an index out of range or not
an integer, a division by zero, arithmetic on a comparison) is one that
evaluation rejects, and it counts as violated. Interval bounds are plain
ints; a bound becomes a Fraction only where a division is evaluated, so
the verdicts stay exact without paying for rationals elsewhere.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Any, Callable, Collection, Mapping, Sequence

from . import expressions as ex
from .csp import CspConstraint, CspVariable, GroundedCsp
from .model import GeneratorModel, InstantiatedVar, instantiate
from .records import Record
from .space import GeneratorConfiguration


class TranslateTimeout(Exception):
    """Grounding exceeded its deadline or the flattening size cap."""


# Instantiations bigger than this never finish in the micro solver anyway;
# treating them as a translation failure mirrors the discard-immediately
# penalty for configurations too large to go through the pipeline.
MAX_CSP_CELLS = 2_000_000


class _Layout(Record, frozen=True):
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


# A set's bounds under a partial assignment: how many members are certain,
# and every value that may still be a member.
_SetBounds = tuple[int, Collection[int]]
Reader = Callable[[Sequence[int | None]], Any]


class _Term(Record, frozen=True):
    """A compiled subexpression of a known shape.

    ``kind`` is "num" (``read`` gives an Interval), "set" (``read`` gives
    _SetBounds), or "num[]"/"set[]" (``items`` reads each element). A
    decision int array also has ``cells``: its slots and element bounds.
    """

    kind: str
    read: Reader | None = None
    items: tuple[Reader, ...] = ()
    cells: tuple[range, int, int] | None = None


def _value_env(layouts: Sequence[_Layout], assignment: Sequence[int | None]) -> dict[str, Any]:
    """The decision values of a full assignment, by variable name."""
    env: dict[str, Any] = {}
    for lay in layouts:
        iv = lay.iv
        if iv.kind == "int":
            cells = list(assignment[lay.start : lay.start + lay.count])
        else:
            width = len(lay.universe)
            offsets = [lay.start + i * width for i in range(1 if iv.length is None else iv.length)]
            cells = [
                {u for u, bit in zip(lay.universe, assignment[o : o + width]) if bit == 1}
                for o in offsets
            ]
        env[iv.name] = cells[0] if iv.length is None else cells
    return env


def _cell(index: int, lo: int, hi: int) -> Reader:
    unset = (lo, hi)

    def read(x: Sequence[int | None]) -> Interval:
        v = x[index]
        return unset if v is None else (v, v)

    return read


def _set_cell(offset: int, universe: range) -> Reader:
    end = offset + len(universe)

    def read(x: Sequence[int | None]) -> _SetBounds:
        bits = x[offset:end]  # 1 member, 0 not, None open
        return bits.count(1), [u for u, bit in zip(universe, bits) if bit != 0]

    return read


def _terms(params: Mapping[str, int], layouts: Sequence[_Layout]) -> dict[str, _Term]:
    """What each name reads: a parameter is a constant interval, a decision
    variable reads its slots of the assignment vector."""
    terms = {name: _constant(v) for name, v in params.items()}
    for lay in layouts:
        iv = lay.iv
        if iv.kind == "int":
            if iv.length is None:
                terms[iv.name] = _Term("num", _cell(lay.start, iv.lower, iv.upper))
            else:
                slots = range(lay.start, lay.start + iv.length)
                terms[iv.name] = _Term(
                    "num[]",
                    items=tuple(_cell(i, iv.lower, iv.upper) for i in slots),
                    cells=(slots, iv.lower, iv.upper),
                )
        elif iv.length is None:
            terms[iv.name] = _Term("set", _set_cell(lay.start, lay.universe))
        else:
            width = len(lay.universe)
            terms[iv.name] = _Term(
                "set[]",
                items=tuple(
                    _set_cell(lay.start + i * width, lay.universe) for i in range(iv.length)
                ),
            )
    return terms


def _constant(v: Bound) -> _Term:
    interval = (v, v)
    return _Term("num", lambda x: interval)


def _scalar(term: _Term, kind: str) -> Reader:
    if term.kind != kind:
        raise _GiveUp
    assert term.read is not None
    return term.read


def _items(term: _Term, kind: str) -> tuple[Reader, ...]:
    """Element readers of an array whose elements are all ``kind`` (an
    empty array qualifies)."""
    if term.kind not in ("num[]", "set[]") or (term.items and term.kind != kind + "[]"):
        raise _GiveUp
    return term.items


def _hull_num(values: list[Interval]) -> Interval:
    return (min(v[0] for v in values), max(v[1] for v in values))


def _hull_set(values: list[_SetBounds]) -> _SetBounds:
    return 0, frozenset().union(*(possible for _, possible in values))


def _compile(expr: ex.Expr, terms: Mapping[str, _Term]) -> _Term:
    """Interval reader of a subexpression.

    Raises _GiveUp when the subexpression can never be bounded; a reader
    raises _GiveUp when it cannot bound the subexpression under a given
    partial assignment.
    """
    if isinstance(expr, ex.IntLit):
        return _constant(expr.value)
    if isinstance(expr, ex.Name):
        if expr.name not in terms:
            raise _GiveUp
        return terms[expr.name]
    if isinstance(expr, ex.Index):
        base = _compile(expr.base, terms)
        if base.kind not in ("num[]", "set[]") or not base.items:
            raise _GiveUp
        items = base.items
        index = _scalar(_compile(expr.index, terms), "num")
        hull = _hull_num if base.kind == "num[]" else _hull_set

        def read_index(x: Sequence[int | None]) -> Any:
            lo, hi = index(x)
            if lo != hi:
                return hull([r(x) for r in items])
            if lo.denominator != 1 or not 1 <= lo <= len(items):
                raise _GiveUp
            return items[int(lo) - 1](x)

        return _Term(base.kind[:-2], read_index)
    if isinstance(expr, ex.Card):
        arg = _compile(expr.arg, terms)

        def card(r: Reader) -> Reader:
            def read_card(x: Sequence[int | None]) -> Interval:
                definite, possible = r(x)
                return (definite, len(possible))

            return read_card

        if arg.kind == "set":
            return _Term("num", card(arg.read))
        return _Term("num[]", items=tuple(card(r) for r in _items(arg, "set")))
    if isinstance(expr, ex.Sum):
        arg = _compile(expr.arg, terms)
        items = _items(arg, "num")
        if arg.cells is not None:
            slots, lo0, hi0 = arg.cells

            def read_sum(x: Sequence[int | None]) -> Interval:
                lo = hi = 0
                for i in slots:
                    v = x[i]
                    if v is None:
                        lo += lo0
                        hi += hi0
                    else:
                        lo += v
                        hi += v
                return (lo, hi)

            return _Term("num", read_sum)

        def read_sum_items(x: Sequence[int | None]) -> Interval:
            values = [r(x) for r in items]
            return (sum(v[0] for v in values), sum(v[1] for v in values))

        return _Term("num", read_sum_items)
    if isinstance(expr, (ex.MinOf, ex.MaxOf)):
        items = _items(_compile(expr.arg, terms), "num")
        if not items:
            raise _GiveUp
        pick = min if isinstance(expr, ex.MinOf) else max
        return _Term("num", lambda x: _pick_bounds(pick, [r(x) for r in items]))
    if isinstance(expr, ex.Neg):
        arg_read = _scalar(_compile(expr.arg, terms), "num")

        def read_neg(x: Sequence[int | None]) -> Interval:
            lo, hi = arg_read(x)
            return (-hi, -lo)

        return _Term("num", read_neg)
    if isinstance(expr, ex.BinOp):
        left = _scalar(_compile(expr.left, terms), "num")
        right = _scalar(_compile(expr.right, terms), "num")
        combine = _ARITHMETIC[expr.op]
        return _Term("num", lambda x: combine(*left(x), *right(x)))
    raise _GiveUp


def _pick_bounds(pick: Callable, values: list[Interval]) -> Interval:
    return (pick(v[0] for v in values), pick(v[1] for v in values))


def _divide(a: Bound, b: Bound, c: Bound, d: Bound) -> Interval:
    if c <= 0 <= d:
        raise _GiveUp
    quotients = (Fraction(a) / c, Fraction(a) / d, Fraction(b) / c, Fraction(b) / d)
    return (min(quotients), max(quotients))


def _multiply(a: Bound, b: Bound, c: Bound, d: Bound) -> Interval:
    products = (a * c, a * d, b * c, b * d)
    return (min(products), max(products))


# [a, b] op [c, d] for each arithmetic operator.
_ARITHMETIC: dict[str, Callable[[Bound, Bound, Bound, Bound], Interval]] = {
    "+": lambda a, b, c, d: (a + c, b + d),
    "-": lambda a, b, c, d: (a - d, b - c),
    "*": _multiply,
    "/": _divide,
}

# Whether [a, b] op [c, d] can no longer hold, for each comparison.
_REFUTES: dict[str, Callable[[Bound, Bound, Bound, Bound], bool]] = {
    "=": lambda a, b, c, d: b < c or d < a,
    "!=": lambda a, b, c, d: a == b == c == d,
    "<": lambda a, b, c, d: a >= d,
    "<=": lambda a, b, c, d: a > d,
    ">": lambda a, b, c, d: b <= c,
    ">=": lambda a, b, c, d: b < c,
}


def _atom(expr: ex.Expr, terms: Mapping[str, _Term]) -> Callable[[Sequence[int | None]], bool]:
    if isinstance(expr, ex.Compare):
        left = _scalar(_compile(expr.left, terms), "num")
        right = _scalar(_compile(expr.right, terms), "num")
        refutes = _REFUTES[expr.op]
        return lambda x: refutes(*left(x), *right(x))
    if isinstance(expr, ex.InSet):
        item = _scalar(_compile(expr.item, terms), "num")
        container = _scalar(_compile(expr.container, terms), "set")

        def refutes_in(x: Sequence[int | None]) -> bool:
            a, b = item(x)
            _, possible = container(x)
            if a == b:
                return a.denominator != 1 or int(a) not in possible
            return not any(a <= p <= b for p in possible)

        return refutes_in
    if isinstance(expr, ex.AllDifferent):
        items = _items(_compile(expr.arg, terms), "num")

        def refutes_alldifferent(x: Sequence[int | None]) -> bool:
            fixed = [lo for lo, hi in (r(x) for r in items) if lo == hi]
            return len(set(fixed)) != len(fixed)

        return refutes_alldifferent
    # A bare value holds when it is a nonzero number, a non-empty set or a
    # non-empty array.
    value = _compile(expr, terms)
    read = value.read
    if value.kind == "num":
        return lambda x: read(x) == (0, 0)
    if value.kind == "set":
        return lambda x: not read(x)[1]
    empty = not value.items
    return lambda x: empty


def _refuter(
    expr: ex.Expr, terms: Mapping[str, _Term], last: int | None
) -> Callable[[Sequence[int | None]], bool]:
    """Whether an assignment refutes the constraint, where ``last`` is the
    last slot of its scope (None for an empty scope).

    Until slot ``last`` is assigned a conjunct that cannot be bounded
    refutes nothing; from then on it is violated, as evaluation would
    reject it. Each conjunct is decided on its own.
    """
    if isinstance(expr, ex.And):
        left, right = _refuter(expr.left, terms, last), _refuter(expr.right, terms, last)
        return lambda x: left(x) or right(x)

    def complete(x: Sequence[int | None]) -> bool:
        return last is None or x[last] is not None

    try:
        atom = _atom(expr, terms)
    except _GiveUp:
        return complete

    def refutes(x: Sequence[int | None]) -> bool:
        try:
            return atom(x)
        except _GiveUp:
            return complete(x)

    return refutes


def ground(
    model: GeneratorModel,
    config: GeneratorConfiguration,
    deadline: float | None = None,
) -> GroundedCsp:
    """Flatten the model for one configuration into a GroundedCsp.

    Raises ModelError for ill-defined shapes and TranslateTimeout when the
    monotonic ``deadline`` passes during grounding or the flattened size
    exceeds ``MAX_CSP_CELLS`` domain cells.
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
        if total_cells > MAX_CSP_CELLS:
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
    terms = _terms(params, layouts)

    constraints: list[CspConstraint] = []
    for cexpr in model.constraints:
        check_deadline()
        referenced = [by_name[n] for n in sorted(ex.names_in(cexpr)) if n in by_name]
        scope = tuple(
            sorted(idx for lay in referenced for idx in range(lay.start, lay.start + lay.count))
        )
        constraints.append(
            CspConstraint(scope, _refuter(cexpr, terms, scope[-1] if scope else None))
        )

    def decode(assignment: Sequence[int | None]) -> dict[str, Any]:
        return _value_env(layouts, assignment)

    return GroundedCsp(
        variables=variables,
        constraints=constraints,
        decode=decode,
    )
