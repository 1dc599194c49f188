"""Canonical text format for instance data and solution payloads.

One ``name = value`` line per entry, names sorted; values are integers,
bracketed integer arrays, braced integer sets (ascending), or arrays of
sets. The format is deterministic: equal values produce byte-identical
text.
"""

from __future__ import annotations

import re
from typing import Any, Mapping

from .errors import ParseError

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


def format_value(value: Any) -> str:
    if isinstance(value, bool):
        raise ParseError("boolean values are not part of the instance format")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, (set, frozenset)):
        return "{" + ", ".join(str(int(v)) for v in sorted(value)) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(format_value(v) for v in value) + "]"
    raise ParseError(f"unsupported value type {type(value).__name__}")


def format_values(values: Mapping[str, Any]) -> str:
    """Render a value map as canonical text (sorted names, trailing newline)."""
    lines = [f"{name} = {format_value(values[name])}" for name in sorted(values)]
    return "\n".join(lines) + "\n" if lines else ""


def canonical_key(values: Mapping[str, Any]) -> str:
    """Single-line canonical encoding: equal values, equal key."""
    return ";".join(f"{name}={format_value(values[name])}" for name in sorted(values))


def values_to_jsonable(values: Mapping[str, Any] | None) -> dict[str, Any] | None:
    """JSON form of a value map: a set becomes ``{"__set__": [...]}`` and an
    array of sets ``{"__sets__": [[...], ...]}``, both ascending."""
    if values is None:
        return None
    out: dict[str, Any] = {}
    for k, v in values.items():
        if isinstance(v, set):
            out[k] = {"__set__": sorted(v)}
        elif isinstance(v, list) and any(isinstance(e, set) for e in v):
            out[k] = {"__sets__": [sorted(e) for e in v]}
        else:
            out[k] = v
    return out


def values_from_jsonable(data: Mapping[str, Any] | None) -> dict[str, Any] | None:
    """Inverse of ``values_to_jsonable``."""
    if data is None:
        return None
    out: dict[str, Any] = {}
    for k, v in data.items():
        if isinstance(v, dict) and "__set__" in v:
            out[k] = set(v["__set__"])
        elif isinstance(v, dict) and "__sets__" in v:
            out[k] = [set(e) for e in v["__sets__"]]
        else:
            out[k] = v
    return out


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> None:
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r} at position {self.pos} in {self.text!r}")
        self.pos += 1

    def int_(self) -> int:
        self.skip_ws()
        m = re.match(r"-?\d+", self.text[self.pos:])
        if not m:
            raise ParseError(f"expected integer at position {self.pos} in {self.text!r}")
        self.pos += m.end()
        return int(m.group())

    def value(self) -> Any:
        ch = self.peek()
        if ch == "[":
            self.take("[")
            items: list[Any] = []
            if self.peek() == "]":
                self.take("]")
                return items
            while True:
                items.append(self.value())
                if self.peek() == ",":
                    self.take(",")
                    continue
                self.take("]")
                return items
        if ch == "{":
            self.take("{")
            items_set: set[int] = set()
            if self.peek() == "}":
                self.take("}")
                return items_set
            while True:
                items_set.add(self.int_())
                if self.peek() == ",":
                    self.take(",")
                    continue
                self.take("}")
                return items_set
        return self.int_()

    def done(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def parse_value(text: str) -> Any:
    sc = _Scanner(text)
    v = sc.value()
    if not sc.done():
        raise ParseError(f"trailing input in value: {text!r}")
    return v


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
        if not _NAME_RE.match(name):
            raise ParseError(f"invalid name {name!r}")
        if name in values:
            raise ParseError(f"duplicate name {name!r}")
        values[name] = parse_value(rhs.strip())
    return values
