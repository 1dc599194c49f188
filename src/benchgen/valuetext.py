"""Canonical text format for instance data and solution payloads.

One ``name = value`` line per entry, names sorted; values are integers,
bracketed arrays, which may nest (``[[1, 2], []]``), braced integer sets
(ascending), or arrays of sets. Only blanks and tabs may separate the
tokens of a value. The format is deterministic: equal values produce
byte-identical text.

This module also states the two rules the other text formats share:
``NAME`` is what a parameter, a decision variable and a value-map entry
may be called, and ``is_int`` is what counts as an integer value.
"""

from __future__ import annotations

import re
from typing import Any, Iterator, Mapping

from .errors import ParseError

NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_NAME_RE = re.compile(NAME)


def is_int(v: Any) -> bool:
    """Whether ``v`` is an integer; a bool is not one."""
    return isinstance(v, int) and not isinstance(v, bool)


def format_value(value: Any) -> str:
    if is_int(value):
        return str(value)
    if isinstance(value, bool):
        raise ParseError("boolean values are not part of the instance format")
    if isinstance(value, (set, frozenset)):
        return "{" + ", ".join(str(int(v)) for v in sorted(value)) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(format_value(v) for v in value) + "]"
    raise ParseError(f"unsupported value type {type(value).__name__}")


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
        raise ParseError(f"expected an integer, got {tok!r} in {text!r}") from None


def _read(tokens: Iterator[str], tok: str, text: str) -> Any:
    """The value that starts with ``tok``; the rest of it comes from ``tokens``."""
    close = _CLOSE.get(tok)
    if close is None:
        return _int(tok, text)
    items: list[Any] = []
    tok = next(tokens, "")
    if tok != close:
        while True:
            items.append(_read(tokens, tok, text) if close == "]" else _int(tok, text))
            tok = next(tokens, "")
            if tok != ",":
                break
            tok = next(tokens, "")
        if tok != close:
            raise ParseError(f"expected ',' or {close!r}, got {tok!r} in {text!r}")
    return items if close == "]" else set(items)


def parse_values(text: str) -> dict[str, Any]:
    """Parse instance/solution text back into a value map."""
    values: dict[str, Any] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected 'name = value', got {raw!r}")
        name, _, rhs = line.partition("=")
        name = name.strip()
        if not _NAME_RE.fullmatch(name):
            raise ParseError(f"invalid name {name!r}")
        if name in values:
            raise ParseError(f"duplicate name {name!r}")
        rhs = rhs.strip()
        tokens = iter(_TOKEN.findall(rhs))
        try:
            values[name] = _read(tokens, next(tokens, ""), rhs)
        except RecursionError:
            raise ParseError(f"value of {name!r} is nested too deeply") from None
        if next(tokens, None) is not None:
            raise ParseError(f"trailing input in value: {rhs!r}")
    return values
