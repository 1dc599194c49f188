"""Expression language used by generator models and latency functions.

Supported forms: integer linear arithmetic with exact rational division,
comparisons, conjunction, set membership, cardinality (elementwise over
arrays of sets), sums over integer arrays, and alldifferent. Values are
integers, integer arrays, integer sets, or arrays of integer sets; arrays
are 1-indexed.

Grammar, loosest binding first: ``and``; one comparison or ``in`` (they do
not chain); ``+ -``; ``* /``; unary ``-``; postfix ``[index]``. Function
arguments, indices and ``|...|`` take arithmetic only. A tree, or text
nested by brackets and unary minus, deeper than ``MAX_DEPTH`` is a ParseError.

A tree has five node types: ``IntLit``, ``Name``, ``Index``, ``Call``
(``sum``, ``min``, ``max``, ``card`` and ``alldifferent``) and ``BinOp``
(arithmetic, comparisons, ``in`` and ``and``); ``-a`` parses as ``0 - a``.

This module holds the syntax and its one compiled semantics. The
generator search reads the compiled form under partial assignments
(``ground``), and ``evaluate`` reads the same form on fixed values. Each
operator means a row of ``_ARITHMETIC`` or ``_REFUTES``, and ``sum``,
``min`` and ``max`` bound their elements through one fold (``_FOLDS``);
only ``sum`` over a decision array reads the array's slots directly
(``read_sum``).
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Any, Callable, Collection, Generator, Iterator, Mapping, Sequence, Union

from .errors import EvalError, ParseError
from .records import Record
from .valuetext import MAX_DEPTH, NAME, descend, is_int, quoted

Value = Union[int, Fraction, list, set]

# Syntax tree nodes. The comparison "==" is the operator "=".


class IntLit(Record, frozen=True):
    value: int


class Name(Record, frozen=True):
    name: str


class Index(Record, frozen=True):
    base: "Expr"
    index: "Expr"


class Call(Record, frozen=True):
    fn: str  # sum min max card alldifferent
    arg: "Expr"


class BinOp(Record, frozen=True):
    op: str  # + - * / = != < <= > >= in and
    left: "Expr"
    right: "Expr"


Expr = Union[IntLit, Name, Index, Call, BinOp]


# After whitespace: an integer, a word, a two-character comparison, or any
# other single character.
_TOKEN = re.compile(rf"\s*(\d+|{NAME}|[=!<>]=|\S)")
_NAME_RE = re.compile(NAME)
_FUNCTIONS = ("sum", "min", "max", "card", "alldifferent")
_RELATIONS = {"=": "=", "==": "=", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">=", "in": "in"}
_BINDING = {"+": 1, "-": 1, "*": 2, "/": 2}


def _expect(tokens: list[str], want: str) -> None:
    found = tokens.pop()
    if found != want:
        raise ParseError(f"expected {want!r}, found {quoted(found)}" if found else "unexpected end of expression")


def _operand(tokens: list[str], level: int) -> Generator:
    """A unary minus, or an atom and the indices after it."""
    if level > MAX_DEPTH:
        raise ParseError(f"expression is nested {level} levels deep, more than {MAX_DEPTH}")
    tok = tokens.pop()
    if tok == "-":
        return BinOp("-", IntLit(0), (yield _operand(tokens, level + 1)))
    if tok.isdecimal():
        try:
            node = IntLit(int(tok))
        except ValueError:  # more digits than int() converts
            raise ParseError(f"integer literal of {len(tok)} digits is too long") from None
    elif tok in _FUNCTIONS:
        _expect(tokens, "(")
        node = Call(tok, (yield _arith(tokens, level + 1)))
        _expect(tokens, ")")
    elif tok == "(":
        node = yield _condition(tokens, level + 1)
        _expect(tokens, ")")
    elif tok == "|":
        node = Call("card", (yield _arith(tokens, level + 1)))
        _expect(tokens, "|")
    elif _NAME_RE.fullmatch(tok) and tok not in ("and", "in"):
        node = Name(tok)
    else:
        raise ParseError(f"unexpected {quoted(tok)}" if tok else "unexpected end of expression")
    while tokens[-1] == "[":
        tokens.pop()
        node = Index(node, (yield _arith(tokens, level + 1)))
        _expect(tokens, "]")
    return node


def _arith(tokens: list[str], level: int, floor: int = 1) -> Generator:
    """Operands joined by left-associative operators binding at least ``floor``."""
    node = yield _operand(tokens, level)
    while _BINDING.get(tokens[-1], 0) >= floor:
        op = tokens.pop()
        node = BinOp(op, node, (yield _arith(tokens, level, _BINDING[op] + 1)))
    return node


def _condition(tokens: list[str], level: int) -> Generator:
    """Relations joined by ``and``, each with at most one comparison or ``in``."""
    node = None
    while True:
        relation = yield _arith(tokens, level)
        op = _RELATIONS.get(tokens[-1])
        if op is not None:
            tokens.pop()
            relation = BinOp(op, relation, (yield _arith(tokens, level)))
        node = relation if node is None else BinOp("and", node, relation)
        if tokens[-1] != "and":
            return node
        tokens.pop()


def _levels(expr: Expr) -> Iterator[list[Expr]]:
    """The nodes of the tree, one level at a time from the root, without recursion."""
    level = [expr]
    while level:
        yield level
        level = [child for node in level for child in vars(node).values() if isinstance(child, Record)]


def parse_expression(text: str) -> Expr:
    """Parse a boolean or arithmetic expression; raises ParseError."""
    tokens = ["", *reversed(_TOKEN.findall(text))]  # "" marks the end
    expr = descend(_condition(tokens, 1))
    if tokens[-1]:
        raise ParseError(f"trailing input after expression: {quoted(tokens[-1])}")
    depth = sum(1 for _ in _levels(expr))
    if depth > MAX_DEPTH:
        raise ParseError(f"expression tree is {depth} levels deep, more than {MAX_DEPTH}")
    return expr


def names_in(expr: Expr) -> set[str]:
    """All identifiers referenced by the expression."""
    return {node.name for level in _levels(expr) for node in level if isinstance(node, Name)}


# The semantics: an expression compiles to a reader of interval bounds over
# an assignment vector. A name stands for a constant or for a reader of
# decision slots (``ground``). Bounds are plain ints; a bound becomes a
# Fraction only where a division is evaluated, so the verdicts stay exact
# without paying for rationals elsewhere.

Bound = int | Fraction
Interval = tuple[Bound, Bound]
# A set's bounds under a partial assignment: how many members are certain,
# and every value that may still be a member.
_SetBounds = tuple[int, Collection[int]]
Reader = Callable[[Sequence[int | None]], Any]


class _GiveUp(Exception):
    """Raised, with the reason, when a subexpression cannot be bounded."""


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


# The term a name stands for; KeyError when it stands for none.
Lookup = Callable[[str], _Term]
_NOUNS = {"num": "a number", "set": "a set", "num[]": "an integer array", "set[]": "an array of sets"}


def _constant(value: Any) -> _Term:
    """The term of a fixed value: a number, a set, or an array of either."""
    if isinstance(value, list):
        elements = [_constant(v) for v in value]
        kind = elements[0].kind if elements else "num"
        if kind in ("num", "set") and all(e.kind == kind for e in elements):
            return _Term(kind + "[]", items=tuple(e.read for e in elements))
    elif isinstance(value, (set, frozenset)):
        return _Term("set", lambda x: (len(value), value))
    elif is_int(value) or isinstance(value, Fraction):
        interval = (value, value)
        return _Term("num", lambda x: interval)
    raise _GiveUp(f"a {type(value).__name__} value is not a number, a set or an array of either")


def _scalar(term: _Term, kind: str) -> Reader:
    if term.kind != kind:
        raise _GiveUp(f"expected {_NOUNS[kind]}, got {_NOUNS[term.kind]}")
    assert term.read is not None
    return term.read


def _items(term: _Term, kind: str) -> tuple[Reader, ...]:
    """Element readers of an array whose elements are all ``kind`` (an
    empty array qualifies)."""
    if term.kind not in ("num[]", "set[]") or (term.items and term.kind != kind + "[]"):
        raise _GiveUp(f"expected {_NOUNS[kind + '[]']}, got {_NOUNS[term.kind]}")
    return term.items


def _hull_num(values: list[Interval]) -> Interval:
    return (min(v[0] for v in values), max(v[1] for v in values))


def _hull_set(values: list[_SetBounds]) -> _SetBounds:
    return 0, frozenset().union(*(possible for _, possible in values))


def _compile(expr: Expr, lookup: Lookup) -> _Term:
    """Interval reader of a subexpression.

    Raises _GiveUp when the subexpression can never be bounded; a reader
    raises _GiveUp when it cannot bound the subexpression under a given
    partial assignment.
    """
    if isinstance(expr, IntLit):
        return _constant(expr.value)
    if isinstance(expr, Name):
        try:
            return lookup(expr.name)
        except KeyError:
            raise _GiveUp(f"unknown identifier {quoted(expr.name)}") from None
    if isinstance(expr, Index):
        base = _compile(expr.base, lookup)
        if not base.items:
            raise _GiveUp("only a non-empty array can be indexed")
        items = base.items
        index = _scalar(_compile(expr.index, lookup), "num")
        hull = _hull_num if base.kind == "num[]" else _hull_set

        def read_index(x: Sequence[int | None]) -> Any:
            lo, hi = index(x)
            if lo != hi:
                return hull([r(x) for r in items])
            if lo.denominator != 1 or not 1 <= lo <= len(items):
                raise _GiveUp(f"index {lo} out of range 1..{len(items)}")
            return items[int(lo) - 1](x)

        return _Term(base.kind[:-2], read_index)
    if _is_condition(expr):
        raise _GiveUp("a condition is not a value")
    if isinstance(expr, BinOp):
        left = _scalar(_compile(expr.left, lookup), "num")
        right = _scalar(_compile(expr.right, lookup), "num")
        combine = _ARITHMETIC[expr.op]
        return _Term("num", lambda x: combine(*left(x), *right(x)))
    arg = _compile(expr.arg, lookup)
    if expr.fn == "card":

        def card(r: Reader) -> Reader:
            def read_card(x: Sequence[int | None]) -> Interval:
                definite, possible = r(x)
                return (definite, len(possible))

            return read_card

        if arg.kind == "set":
            return _Term("num", card(arg.read))
        return _Term("num[]", items=tuple(card(r) for r in _items(arg, "set")))
    items = _items(arg, "num")
    if expr.fn == "sum" and arg.cells is not None:
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
    if not items and expr.fn != "sum":
        raise _GiveUp(f"{expr.fn}() of an empty array")
    fold = _FOLDS[expr.fn]
    return _Term("num", lambda x: _fold(fold, [r(x) for r in items]))


def _is_condition(expr: Expr) -> bool:
    """Whether ``expr`` holds or fails and has no value: a comparison,
    ``in``, ``and`` or ``alldifferent``."""
    if isinstance(expr, BinOp):
        return expr.op not in _ARITHMETIC
    return isinstance(expr, Call) and expr.fn == "alldifferent"


# What ``sum``, ``min`` and ``max`` fold their elements' bounds by.
_FOLDS: dict[str, Callable] = {"sum": sum, "min": min, "max": max}


def _fold(fold: Callable, bounds: list[Interval]) -> Interval:
    """The bounds of ``sum``, ``min`` or ``max`` over elements with these bounds."""
    return (fold(b[0] for b in bounds), fold(b[1] for b in bounds))


def _divide(a: Bound, b: Bound, c: Bound, d: Bound) -> Interval:
    if c <= 0 <= d:
        raise _GiveUp("division by zero")
    if a == b and c == d:
        q = Fraction(a) / c
        return (q, q)
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


def _atom(expr: Expr, lookup: Lookup) -> Callable[[Sequence[int | None]], bool]:
    if isinstance(expr, BinOp) and expr.op in _REFUTES:
        left = _scalar(_compile(expr.left, lookup), "num")
        right = _scalar(_compile(expr.right, lookup), "num")
        refutes = _REFUTES[expr.op]
        return lambda x: refutes(*left(x), *right(x))
    if isinstance(expr, BinOp) and expr.op == "in":
        item = _scalar(_compile(expr.left, lookup), "num")
        container = _scalar(_compile(expr.right, lookup), "set")

        def refutes_in(x: Sequence[int | None]) -> bool:
            a, b = item(x)
            _, possible = container(x)
            if a == b:
                return a.denominator != 1 or int(a) not in possible
            return not any(a <= p <= b for p in possible)

        return refutes_in
    if isinstance(expr, Call) and expr.fn == "alldifferent":
        items = _items(_compile(expr.arg, lookup), "num")

        def refutes_alldifferent(x: Sequence[int | None]) -> bool:
            fixed = [lo for lo, hi in (r(x) for r in items) if lo == hi]
            return len(set(fixed)) != len(fixed)

        return refutes_alldifferent
    # A bare value holds when it is a nonzero number, a non-empty set or a
    # non-empty array.
    value = _compile(expr, lookup)
    read = value.read
    if value.kind == "num":
        return lambda x: read(x) == (0, 0)
    if value.kind == "set":
        return lambda x: not read(x)[1]
    empty = not value.items
    return lambda x: empty


def _refuter(expr: Expr, lookup: Lookup, last: int | None) -> Callable[[Sequence[int | None]], bool]:
    """Whether an assignment refutes the constraint, where ``last`` is the
    last slot of its scope (None for an empty scope).

    Until slot ``last`` is assigned a conjunct that cannot be bounded
    refutes nothing; from then on it is violated, as evaluation would
    reject it. Each conjunct is decided on its own.
    """
    if isinstance(expr, BinOp) and expr.op == "and":
        left, right = _refuter(expr.left, lookup, last), _refuter(expr.right, lookup, last)
        return lambda x: left(x) or right(x)

    def complete(x: Sequence[int | None]) -> bool:
        return last is None or x[last] is not None

    try:
        atom = _atom(expr, lookup)
    except _GiveUp:
        return complete

    def refutes(x: Sequence[int | None]) -> bool:
        try:
            return atom(x)
        except _GiveUp:
            return complete(x)

    return refutes


def evaluate(expr: Expr, env: Mapping[str, Value]) -> int | Fraction | bool:
    """The value of a numeric expression, otherwise whether it holds.

    Names read their values in ``env``. Division is exact (Fraction), so
    ``sum(xs)/n = d`` never truncates. Raises EvalError, with the reason,
    on type mismatches, unknown names, out-of-range indices and division
    by zero.
    """
    if isinstance(expr, BinOp) and expr.op == "and":
        return bool(evaluate(expr.left, env)) and bool(evaluate(expr.right, env))

    def lookup(name: str) -> _Term:
        return _constant(env[name])

    try:
        if not _is_condition(expr):
            value = _compile(expr, lookup)
            if value.kind == "num":
                return value.read(())[0]
        return not _atom(expr, lookup)(())
    except _GiveUp as err:
        raise EvalError(str(err)) from None
