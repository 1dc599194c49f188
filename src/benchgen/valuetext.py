"""Canonical text format for instance data and solution payloads.

One ``name = value`` line per entry, names sorted; values are integers,
bracketed arrays, nested up to ``MAX_DEPTH`` levels (``[[1, 2], []]``),
braced integer sets (ascending), or arrays of sets. Only blanks and tabs
may separate the tokens of a value. The format is deterministic: equal
values produce byte-identical text.

This module also states the rules the other text formats share: ``NAME``
is what a parameter, a decision variable and a value-map entry may be
called, ``is_int`` what counts as an integer value, ``quoted`` how much
of its input an error message quotes, ``MAX_DEPTH`` how deep a text may
nest, and ``descend`` how a nested reader or writer runs.
"""

from __future__ import annotations

import re
from typing import Any, Generator, Iterator, Mapping

from .errors import ParseError

NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_NAME_RE = re.compile(NAME)


def is_int(v: Any) -> bool:
    """Whether ``v`` is an integer; a bool is not one."""
    return isinstance(v, int) and not isinstance(v, bool)


def quoted(text: str) -> str:
    """``text`` as an error message quotes it: at most its first 40 characters."""
    return repr(text[:40])


# Deepest nesting of an expression's tree or text, or of a value's arrays;
# compiling a tree takes a stack frame a level.
MAX_DEPTH = 500


def descend(read: Generator) -> Any:
    """What ``read`` returns. A reader yields each nested reader and is sent its
    value back, so nesting takes a list entry here, not a stack frame."""
    stack, value = [read], None
    while stack:
        try:
            stack.append(stack[-1].send(value))
            value = None
        except StopIteration as done:
            stack.pop()
            value = done.value
    return value


def _write(value: Any) -> Generator:
    """The text of ``value``, not an integer; yields each nested writer (see ``descend``)."""
    if isinstance(value, (set, frozenset)) and all(map(is_int, value)):
        return "{" + ", ".join(map(str, sorted(value))) + "}"
    if isinstance(value, (list, tuple)):
        items = []
        for v in value:
            items.append(str(v) if is_int(v) else (yield _write(v)))
        return "[" + ", ".join(items) + "]"
    raise ParseError(f"value {value!r:.40} is not an integer, an integer set or an array")


def format_value(value: Any) -> str:
    return str(value) if is_int(value) else descend(_write(value))


def format_values(values: Mapping[str, Any]) -> str:
    """Render a value map as canonical text (sorted names, trailing newline)."""
    lines = [f"{name} = {format_value(values[name])}" for name in sorted(values)]
    return "\n".join(lines) + "\n" if lines else ""


def values_to_jsonable(values: Mapping[str, Any] | None) -> dict[str, Any] | None:
    """JSON form of a value map: a set becomes ``{"__set__": [...]}`` and an
    array of sets ``{"__sets__": [[...], ...]}``, both ascending."""
    if values is None:
        return None
    out: dict[str, Any] = {}
    for k, v in values.items():
        if isinstance(v, (set, frozenset)):
            out[k] = {"__set__": sorted(v)}
        elif isinstance(v, list) and any(isinstance(e, (set, frozenset)) for e in v):
            out[k] = {"__sets__": [sorted(e) for e in v]}
        else:
            out[k] = v
    return out


def values_from_jsonable(data: Mapping[str, Any]) -> dict[str, Any]:
    """Inverse of ``values_to_jsonable`` on a value map."""
    out: dict[str, Any] = {}
    for k, v in data.items():
        if isinstance(v, dict) and "__set__" in v:
            out[k] = set(v["__set__"])
        elif isinstance(v, dict) and "__sets__" in v:
            out[k] = [set(e) for e in v["__sets__"]]
        else:
            out[k] = v
    return out


# An integer or any other single character, after blanks and tabs: any
# other space inside a value is a token that no value accepts.
_TOKEN = re.compile(r"[ \t]*(-?\d+|[^ \t])")
_CLOSE = {"[": "]", "{": "}"}


def _int(tok: str, text: str) -> int:
    try:
        return int(tok)
    except ValueError:  # not an integer token, or too many digits to convert
        raise ParseError(f"expected an integer, got {quoted(tok)} in {quoted(text)}") from None


def _read(tokens: Iterator[str], tok: str, text: str, level: int) -> Generator:
    """The array or set that ``tok`` opens, ``level`` deep; the rest comes from ``tokens``."""
    if level > MAX_DEPTH:
        raise ParseError(f"value is nested {level} levels deep, more than {MAX_DEPTH}")
    close = _CLOSE[tok]
    items: list[Any] = []
    tok = next(tokens, "")
    if tok != close:
        while True:
            nested = tok in _CLOSE and close == "]"
            items.append((yield _read(tokens, tok, text, level + 1)) if nested else _int(tok, text))
            tok = next(tokens, "")
            if tok != ",":
                break
            tok = next(tokens, "")
        if tok != close:
            raise ParseError(f"expected ',' or {close!r}, got {quoted(tok)} in {quoted(text)}")
    return items if close == "]" else set(items)


def parse_values(text: str) -> dict[str, Any]:
    """Parse instance/solution text back into a value map."""
    values: dict[str, Any] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected 'name = value', got {quoted(raw)}")
        name, _, rhs = line.partition("=")
        name = name.strip()
        if not _NAME_RE.fullmatch(name):
            raise ParseError(f"invalid name {quoted(name)}")
        if name in values:
            raise ParseError(f"duplicate name {quoted(name)}")
        rhs = rhs.strip()
        tokens = iter(_TOKEN.findall(rhs))
        tok = next(tokens, "")
        values[name] = descend(_read(tokens, tok, rhs, 1)) if tok in _CLOSE else _int(tok, rhs)
        if next(tokens, None) is not None:
            raise ParseError(f"trailing input in value: {quoted(rhs)}")
    return values
