"""Expression language used by generator models and latency functions.

Supported forms: integer linear arithmetic with exact rational division,
comparisons, conjunction, set membership, cardinality (elementwise over
arrays of sets), sums over integer arrays, and alldifferent. Values are
integers, integer arrays, integer sets, or arrays of integer sets; arrays
are 1-indexed.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Any, Mapping, Union

from .errors import EvalError, ParseError
from .records import Record

Value = Union[int, Fraction, list, set, bool]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>==|!=|<=|>=|\.\.|[-+*/()\[\]{}|,<>=])"
    r")"
)

_KEYWORDS = {"and", "in", "sum", "card", "alldifferent", "min", "max"}


def tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ParseError(f"cannot tokenize near {rest[:20]!r}")
        pos = m.end()
        if m.group("int") is not None:
            tokens.append(("int", m.group("int")))
        elif m.group("ident") is not None:
            word = m.group("ident")
            tokens.append(("kw" if word in _KEYWORDS else "ident", word))
        else:
            tokens.append(("op", m.group("op")))
    return tokens


# AST nodes. Comparison operators keep their surface spelling; "=" and "=="
# are the same operator.


class IntLit(Record, frozen=True):
    value: int


class Name(Record, frozen=True):
    name: str


class Index(Record, frozen=True):
    base: "Expr"
    index: "Expr"


class Card(Record, frozen=True):
    arg: "Expr"


class Sum(Record, frozen=True):
    arg: "Expr"


class MinOf(Record, frozen=True):
    arg: "Expr"


class MaxOf(Record, frozen=True):
    arg: "Expr"


class Neg(Record, frozen=True):
    arg: "Expr"


class BinOp(Record, frozen=True):
    op: str  # + - * /
    left: "Expr"
    right: "Expr"


class Compare(Record, frozen=True):
    op: str  # = != < <= > >=
    left: "Expr"
    right: "Expr"


class InSet(Record, frozen=True):
    item: "Expr"
    container: "Expr"


class AllDifferent(Record, frozen=True):
    arg: "Expr"


class And(Record, frozen=True):
    left: "Expr"
    right: "Expr"


Expr = Union[
    IntLit, Name, Index, Card, Sum, MinOf, MaxOf, Neg, BinOp, Compare, InSet, AllDifferent, And
]


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> tuple[str, str] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> tuple[str, str]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression")
        self.pos += 1
        return tok

    def expect(self, value: str) -> None:
        tok = self.next()
        if tok[1] != value:
            raise ParseError(f"expected {value!r}, found {tok[1]!r}")

    def at(self, value: str) -> bool:
        tok = self.peek()
        return tok is not None and tok[1] == value

    # Grammar, loosest binding first: and, comparison/in, additive,
    # multiplicative, unary, atom.

    def parse_bool(self) -> Expr:
        left = self.parse_relation()
        while self.at("and"):
            self.next()
            left = And(left, self.parse_relation())
        return left

    def parse_relation(self) -> Expr:
        left = self.parse_additive()
        tok = self.peek()
        if tok is not None and tok[1] in ("=", "==", "!=", "<", "<=", ">", ">="):
            op = self.next()[1]
            if op == "==":
                op = "="
            return Compare(op, left, self.parse_additive())
        if tok is not None and tok[1] == "in":
            self.next()
            return InSet(left, self.parse_additive())
        return left

    def parse_additive(self) -> Expr:
        left = self.parse_multiplicative()
        while True:
            tok = self.peek()
            if tok is not None and tok[1] in ("+", "-"):
                op = self.next()[1]
                left = BinOp(op, left, self.parse_multiplicative())
            else:
                return left

    def parse_multiplicative(self) -> Expr:
        left = self.parse_unary()
        while True:
            tok = self.peek()
            if tok is not None and tok[1] in ("*", "/"):
                op = self.next()[1]
                left = BinOp(op, left, self.parse_unary())
            else:
                return left

    def parse_unary(self) -> Expr:
        if self.at("-"):
            self.next()
            return Neg(self.parse_unary())
        return self.parse_postfix()

    def parse_postfix(self) -> Expr:
        node = self.parse_atom()
        while self.at("["):
            self.next()
            index = self.parse_additive()
            self.expect("]")
            node = Index(node, index)
        return node

    def parse_atom(self) -> Expr:
        tok = self.next()
        kind, value = tok
        if kind == "int":
            return IntLit(int(value))
        if kind == "ident":
            return Name(value)
        if kind == "kw" and value in ("sum", "card", "alldifferent", "min", "max"):
            self.expect("(")
            arg = self.parse_additive()
            self.expect(")")
            return {
                "sum": Sum,
                "card": Card,
                "alldifferent": AllDifferent,
                "min": MinOf,
                "max": MaxOf,
            }[value](arg)
        if value == "(":
            inner = self.parse_bool()
            self.expect(")")
            return inner
        if value == "|":
            inner = self.parse_additive()
            self.expect("|")
            return Card(inner)
        raise ParseError(f"unexpected token {value!r}")


def parse_expression(text: str) -> Expr:
    """Parse a boolean or arithmetic expression; raises ParseError."""
    parser = _Parser(tokenize(text))
    expr = parser.parse_bool()
    if parser.peek() is not None:
        raise ParseError(f"trailing input after expression: {parser.peek()[1]!r}")
    return expr


def names_in(expr: Expr) -> set[str]:
    """All identifiers referenced by the expression."""
    out: set[str] = set()

    def walk(node: Expr) -> None:
        if isinstance(node, Name):
            out.add(node.name)
        elif isinstance(node, IntLit):
            pass
        elif isinstance(node, (Card, Sum, MinOf, MaxOf, Neg, AllDifferent)):
            walk(node.arg)
        elif isinstance(node, Index):
            walk(node.base)
            walk(node.index)
        elif isinstance(node, (BinOp, Compare, And)):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, InSet):
            walk(node.item)
            walk(node.container)
        else:
            raise EvalError(f"unknown AST node {node!r}")

    walk(expr)
    return out


def _as_number(v: Any, context: str) -> int | Fraction:
    if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
        raise EvalError(f"{context}: expected an integer, got {type(v).__name__}")
    return v


def _as_int_array(v: Any, context: str) -> list:
    if not isinstance(v, list) or any(isinstance(e, (set, list)) for e in v):
        raise EvalError(f"{context}: expected an integer array, got {type(v).__name__}")
    return v


def evaluate(expr: Expr, env: Mapping[str, Value]) -> Value:
    """Evaluate under an environment mapping names to values.

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
        base = evaluate(expr.base, env)
        idx = evaluate(expr.index, env)
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
        arg = evaluate(expr.arg, env)
        if isinstance(arg, set):
            return len(arg)
        if isinstance(arg, list) and all(isinstance(e, set) for e in arg):
            return [len(e) for e in arg]
        raise EvalError("card() needs a set or an array of sets")
    if isinstance(expr, Sum):
        arr = _as_int_array(evaluate(expr.arg, env), "sum()")
        return sum(arr)
    if isinstance(expr, MinOf):
        arr = _as_int_array(evaluate(expr.arg, env), "min()")
        if not arr:
            raise EvalError("min() of an empty array")
        return min(arr)
    if isinstance(expr, MaxOf):
        arr = _as_int_array(evaluate(expr.arg, env), "max()")
        if not arr:
            raise EvalError("max() of an empty array")
        return max(arr)
    if isinstance(expr, Neg):
        return -_as_number(evaluate(expr.arg, env), "negation")
    if isinstance(expr, BinOp):
        left = _as_number(evaluate(expr.left, env), expr.op)
        right = _as_number(evaluate(expr.right, env), expr.op)
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
        left = _as_number(evaluate(expr.left, env), expr.op)
        right = _as_number(evaluate(expr.right, env), expr.op)
        return {
            "=": left == right,
            "!=": left != right,
            "<": left < right,
            "<=": left <= right,
            ">": left > right,
            ">=": left >= right,
        }[expr.op]
    if isinstance(expr, InSet):
        item = _as_number(evaluate(expr.item, env), "in")
        container = evaluate(expr.container, env)
        if not isinstance(container, set):
            raise EvalError("right side of 'in' must be a set")
        return item in container
    if isinstance(expr, AllDifferent):
        arr = _as_int_array(evaluate(expr.arg, env), "alldifferent()")
        return len(set(arr)) == len(arr)
    if isinstance(expr, And):
        return bool(evaluate(expr.left, env)) and bool(evaluate(expr.right, env))
    raise EvalError(f"unknown AST node {expr!r}")


def evaluate_numeric(text_or_expr: str | Expr, env: Mapping[str, Value]) -> Fraction:
    """Evaluate to a number; convenience for latency functions and bounds."""
    expr = parse_expression(text_or_expr) if isinstance(text_or_expr, str) else text_or_expr
    value = evaluate(expr, env)
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise EvalError("expected a numeric result")
    return Fraction(value)
