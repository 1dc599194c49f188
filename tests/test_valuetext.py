"""Canonical value-text format: determinism and round-trips."""

import json
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from benchgen.errors import EvalError, ParseError, ValidationError
from benchgen.expressions import evaluate, parse_expression
from benchgen.model import parse_model
from benchgen.space import parse_space
from benchgen.valuetext import MAX_DEPTH, format_values, parse_values, values_from_jsonable, values_to_jsonable

from conftest import from_deep_stack


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
    values = ["[1,,2]", "{[1]}", "{1,}", "[,]", "--1", "1a", "[1 2]", "{1 2}", "[1,\xa02]"]
    for value in values:
        with pytest.raises(ParseError):
            parse_values(f"x = {value}")


def test_parse_accepts_nested_arrays_tabs_and_minus_zero():
    assert parse_values("x = [[1, 2], []]") == {"x": [[1, 2], []]}
    assert parse_values("x =\t[\t1 ,\t{2,\t3}\t]\t") == {"x": [1, {2, 3}]}
    assert parse_values("x = -0") == {"x": 0}


@pytest.mark.parametrize(
    "value", ["1" * 5000, "[" * 5000 + "]" * 5000], ids=["too-many-digits", "too-deep"]
)
def test_a_value_python_cannot_hold_is_a_parse_error(value):
    with pytest.raises(ParseError):
        parse_values(f"x = {value}")


@pytest.mark.parametrize(
    "value, token",
    [("1" * 5000, "1" * 40), ("[" + ", ".join(["1"] * 2000) + " x]", "x")],
    ids=["5000-digits", "after-2000-elements"],
)
def test_a_parse_error_quotes_at_most_40_characters_of_the_value(value, token):
    with pytest.raises(ParseError) as refused:
        parse_values(f"x = {value}")
    assert len(str(refused.value)) < 200 and repr(token) in str(refused.value)


LONG = "y" * 5000
SPACE = parse_space("n: 1..3")


def model_line(line: str):
    return parse_model(SPACE, f"var x : int 1..3\n{line}")


@pytest.mark.parametrize(
    "read, text",
    [
        (parse_expression, f"x {LONG}"),
        (parse_expression, f"(x {LONG}"),
        (parse_expression, f"sum {LONG}"),
        (lambda text: evaluate(parse_expression(text), {}), LONG),
        (parse_space, LONG),
        (parse_space, f"{LONG}: 1..2; {LONG}: 1..2"),
        (parse_space, f"{LONG}: 2..1"),
        (parse_space, f"n: 1..{'1' * 5000}"),
        (model_line, f"var {LONG}"),
        (model_line, f"var {LONG} : int 1..{LONG}"),
        (model_line, f"var z : int 1..{LONG}"),
        (model_line, LONG),
        (model_line, f"constraint x = {LONG}"),
        (model_line, f"constraint x {LONG}"),
        (parse_values, LONG),
        (parse_values, f"{LONG}! = 1"),
        (parse_values, f"x = 1 {LONG}"),
    ],
    ids=[
        "expression-trailing-input", "expression-expected-parenthesis", "expression-expected-call",
        "expression-unknown-identifier", "space-malformed-entry",
        "space-duplicate-name", "space-inverted-bounds", "space-too-many-digits",
        "model-malformed-declaration", "model-bounds-of-a-long-name", "model-non-parameters",
        "model-neither-var-nor-constraint", "model-unknown-identifiers", "model-trailing-input",
        "values-no-equals", "values-invalid-name", "values-trailing-input",
    ],
)
def test_every_reader_quotes_at_most_40_characters_of_a_long_token_or_line(read, text):
    with pytest.raises((ParseError, ValidationError, EvalError)) as refused:
        read(text)
    assert len(str(refused.value)) < 200, str(refused.value)[:300]


@pytest.mark.parametrize(
    "value", [[True, 2], [2.5], [Fraction(7, 2)], {True, 2}, {2.5}, {Fraction(7, 2)}, {(1, 2)}], ids=repr
)
def test_format_refuses_a_member_that_is_not_an_integer_in_an_array_or_a_set(value):
    with pytest.raises(ParseError, match="is not an integer, an integer set or an array$"):
        format_values({"s": value})


# Each way a value nests, as a builder of a value ``depth`` levels deep and
# of what it reads as.
NESTED_VALUES = {
    "arrays": (lambda depth: "[" * depth + "]" * depth, []),
    "set-in-arrays": (lambda depth: "[" * (depth - 1) + "{1}" + "]" * (depth - 1), {1}),
}


@pytest.mark.parametrize("form", NESTED_VALUES)
def test_value_text_is_bounded_by_max_depth_alone_on_a_deep_stack(form):
    build, innermost = NESTED_VALUES[form]
    value = from_deep_stack(lambda: parse_values(f"x = {build(MAX_DEPTH)}"))["x"]
    for _ in range(MAX_DEPTH - 1):
        (value,) = value
    assert value == innermost
    with pytest.raises(ParseError, match=f"{MAX_DEPTH + 1} levels deep, more than {MAX_DEPTH}$"):
        from_deep_stack(lambda: parse_values(f"x = {build(MAX_DEPTH + 1)}"))


@pytest.mark.parametrize("form", NESTED_VALUES)
def test_a_value_max_depth_deep_round_trips_on_a_deep_stack(form):
    text = f"x = {NESTED_VALUES[form][0](MAX_DEPTH)}\n"
    assert from_deep_stack(lambda: format_values(parse_values(text))) == text


_ints = st.integers(-(10**6), 10**6)
_arrays = st.recursive(
    st.lists(_ints, max_size=4) | st.lists(st.sets(_ints, max_size=4), max_size=4),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=12,
)


@settings(derandomize=True)
@given(st.dictionaries(st.sampled_from(["a", "b_2", "_c", "Dd"]), _ints | _arrays))
def test_nested_values_round_trip(values):
    assert parse_values(format_values(values)) == values


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


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.text(alphabet="aZ_09éß\n", min_size=1, max_size=4))
@example("x_1")
@example("1x")
@example("é")
@example("x\n")
def test_every_text_format_accepts_the_same_names(name):
    """A parameter, a decision variable and a value-map entry may have the same names."""
    space = parse_space("p: 1..3")
    readers = {
        "space": lambda: parse_space(f"{name}: 1..3").names,
        "model": lambda: tuple(v.name for v in parse_model(space, f"var {name} : int 1..3").decision_vars),
        "values": lambda: tuple(parse_values(f"{name} = 1")),
    }
    accepted = {}
    for fmt, read in readers.items():
        try:
            accepted[fmt] = read() == (name,)
        except (ParseError, ValidationError):
            accepted[fmt] = False
    assert len(set(accepted.values())) == 1, accepted
