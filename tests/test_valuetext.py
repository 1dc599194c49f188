"""Canonical value-text format: determinism and round-trips."""

import json
from random import Random

import pytest

from benchgen.errors import ParseError
from benchgen.valuetext import format_values, parse_values, values_from_jsonable, values_to_jsonable


def test_format_sorts_names_and_sets():
    text = format_values({"b": {3, 1, 2}, "a": 7, "c": [2, 1]})
    assert text == "a = 7\nb = {1, 2, 3}\nc = [2, 1]\n"


def test_nested_sets_in_arrays():
    text = format_values({"succ": [{2, 1}, set(), {5}]})
    assert text == "succ = [{1, 2}, {}, {5}]\n"
    assert parse_values(text) == {"succ": [{1, 2}, set(), {5}]}


def test_roundtrip_fuzz():
    rng = Random(31)
    for _ in range(100):
        values = {}
        for i in range(rng.randint(1, 6)):
            name = f"v{i}"
            kind = rng.randrange(4)
            if kind == 0:
                values[name] = rng.randint(-99, 99)
            elif kind == 1:
                values[name] = [rng.randint(-9, 9) for _ in range(rng.randint(0, 5))]
            elif kind == 2:
                values[name] = {rng.randint(0, 9) for _ in range(rng.randint(0, 5))}
            else:
                values[name] = [
                    {rng.randint(0, 9) for _ in range(rng.randint(0, 3))}
                    for _ in range(rng.randint(0, 4))
                ]
        text = format_values(values)
        assert parse_values(text) == values
        assert format_values(parse_values(text)) == text


def test_parse_rejects_malformed():
    for text in ["novalue", "x = ", "x = [1, ", "x = {1", "x = 1 2", "1x = 3", "x = [1]]"]:
        with pytest.raises(ParseError):
            parse_values(text)


def test_parse_rejects_duplicates():
    with pytest.raises(ParseError):
        parse_values("x = 1\nx = 2")


def test_comments_and_blank_lines_ignored():
    assert parse_values("# header\n\nx = 3  # trailing\n") == {"x": 3}


def test_a_frozenset_has_the_json_form_of_a_set():
    frozen = {"s": frozenset({2, 1}), "t": [frozenset(), frozenset({3})]}
    thawed = {"s": {2, 1}, "t": [set(), {3}]}
    assert json.dumps(values_to_jsonable(frozen)) == json.dumps(values_to_jsonable(thawed))
    assert values_from_jsonable(values_to_jsonable(frozen)) == thawed
