"""Generator-model parsing, evaluation semantics, and the assignment checker."""

from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from benchgen.errors import EvalError, ModelError, ParseError, ValidationError
from benchgen.expressions import (
    BinOp,
    Call,
    Index,
    IntLit,
    MAX_DEPTH,
    Name,
    evaluate,
    names_in,
    parse_expression,
)
from benchgen.gensolve import SolutionHistory, solve_generator
from benchgen.model import check_assignment, instantiate, parse_model
from benchgen.records import Record
from benchgen.space import parse_space
from conftest import (
    CONSTRAINT_TEMPLATES,
    ERROR_TEMPLATES,
    decision_values,
    from_deep_stack,
    make_configuration,
    reference_evaluate,
    reference_parse,
)

SUCCESSORS_SPACE = parse_space("n_tasks_t: 1..60; s_density: 1..5")
SUCCESSORS_MODEL = """
# successor sets, average out-degree pinned by a density parameter
var succ[n_tasks_t] : set of 2..n_tasks_t
constraint sum(card(succ)) / n_tasks_t = s_density
"""


def successors_model():
    return parse_model(SUCCESSORS_SPACE, SUCCESSORS_MODEL)


def test_parse_model_shapes_and_kinds():
    model = successors_model()
    (var,) = model.decision_vars
    assert var.name == "succ"
    assert var.kind == "set"
    assert len(model.constraints) == 1


def test_parse_model_rejects_unknown_identifier():
    with pytest.raises(ValidationError):
        parse_model(parse_space("n: 1..5"), "var a : int 1..3\nconstraint b = 1")


def test_parse_model_rejects_duplicate_names():
    with pytest.raises(ValidationError):
        parse_model(parse_space("n: 1..5"), "var n : int 1..3")
    with pytest.raises(ValidationError):
        parse_model(parse_space("n: 1..5"), "var a : int 1..3\nvar a : int 1..4")


def test_parse_model_rejects_garbage_lines():
    with pytest.raises(ParseError):
        parse_model(parse_space("n: 1..5"), "wibble 12")


def test_instantiate_negative_shape_is_model_error():
    space = parse_space("n: 1..3")
    model = parse_model(space, "var a[n - 5] : int 1..2")
    with pytest.raises(ModelError):
        instantiate(model, make_configuration(space, {"n": 1}))


def test_instantiate_resolves_parameter_bounds():
    space = parse_space("n: 2..6")
    model = parse_model(space, "var xs[n] : int 1..n")
    (iv,) = instantiate(model, make_configuration(space, {"n": 4}))
    assert (iv.length, iv.lower, iv.upper) == (4, 1, 4)


@pytest.mark.parametrize(
    "declaration, message",
    [
        ("var a[n / (n - n)] : int 1..2", "shape of a: division by zero"),
        ("var a : int 1..n / 2", "upper bound of a: bound 3/2 is not an integer"),
        ("var a : int (n < 3)..4", "lower bound of a: bound is not a number"),
    ],
)
def test_instantiate_says_what_is_wrong_with_a_bound(declaration, message):
    space = parse_space("n: 1..5")
    model = parse_model(space, declaration)
    with pytest.raises(ModelError) as caught:
        instantiate(model, make_configuration(space, {"n": 3}))
    assert str(caught.value) == message


def test_check_assignment_paper_style_instance():
    model = successors_model()
    config = make_configuration(SUCCESSORS_SPACE, {"n_tasks_t": 6, "s_density": 2})
    succ = [{2, 4, 5, 6}, {3, 4, 5}, {4, 5, 6}, {6}, {6}, set()]
    assert check_assignment(model, config, {"succ": succ}) is True


def test_check_assignment_takes_a_frozenset_as_a_set():
    space = parse_space("n: 1..2")
    model = parse_model(space, "var s : set of 1..3\nvar t[2] : set of 1..3\nconstraint card(s) >= 1\n"
                               "constraint card(t[2]) >= 1")
    config = make_configuration(space, {"n": 1})
    for kind in (set, frozenset):
        assert check_assignment(model, config, {"s": kind({1}), "t": [kind(), kind({3})]}) is True
        assert check_assignment(model, config, {"s": kind(), "t": [kind(), kind({3})]}) is False


def test_check_assignment_refuses_a_bool_wherever_it_takes_an_integer():
    space = parse_space("n: 1..2")
    model = parse_model(space, "var x : int 0..3\nvar a[2] : int 0..3\nvar s : set of 1..3\n"
                               "var t[2] : set of 1..3")
    config = make_configuration(space, {"n": 1})
    values = {"x": 1, "a": [1, 1], "s": {1}, "t": [{1}, set()]}
    assert check_assignment(model, config, values) is True
    for name, value in [("x", True), ("a", [True, 1]), ("s", {True}), ("t", [{True}, set()])]:
        assert check_assignment(model, config, {**values, name: value}) is False, name


def test_check_assignment_all_empty_fails_density():
    model = successors_model()
    config = make_configuration(SUCCESSORS_SPACE, {"n_tasks_t": 6, "s_density": 2})
    succ = [set() for _ in range(6)]
    assert check_assignment(model, config, {"succ": succ}) is False


def test_check_assignment_rejects_out_of_universe_elements():
    model = successors_model()
    config = make_configuration(SUCCESSORS_SPACE, {"n_tasks_t": 6, "s_density": 2})
    succ = [{2, 4, 5, 99}, {3, 4, 5}, {4, 5, 6}, {6}, {6}, {3}]
    assert check_assignment(model, config, {"succ": succ}) is False


def test_check_assignment_missing_variable_raises():
    model = successors_model()
    config = make_configuration(SUCCESSORS_SPACE, {"n_tasks_t": 2, "s_density": 1})
    with pytest.raises(EvalError):
        check_assignment(model, config, {})


def test_check_assignment_counts_an_unevaluable_constraint_violated():
    space = parse_space("n: 1..1")
    model = parse_model(space, "var x : int 0..1\nvar a[n] : int 0..1\nconstraint a[x] >= 0")
    config = make_configuration(space, {"n": 1})
    # Arrays index from 1, so a[0] is out of range.
    assert check_assignment(model, config, {"x": 0, "a": [0]}) is False
    assert check_assignment(model, config, {"x": 1, "a": [0]}) is True


def test_division_is_exact_rational():
    # sum(xs)/n = d holds exactly when sum(xs) = d * n, no truncation.
    expr = parse_expression("sum(xs) / n = d")
    assert evaluate(expr, {"xs": [1, 2], "n": 2, "d": 1}) is False
    assert evaluate(expr, {"xs": [1, 3], "n": 2, "d": 2}) is True


def test_expression_operators():
    env = {"a": 7, "b": 3, "xs": [4, 1, 4], "s": {1, 5}}
    cases = {
        "a + b * 2 = 13": True,
        "(a + b) * 2 = 20": True,
        "-a < 0": True,
        "a != b": True,
        "min(xs) = 1": True,
        "max(xs) = 4": True,
        "5 in s": True,
        "2 in s": False,
        "alldifferent(xs)": False,
        "a >= b and b >= 1": True,
        "|s| = 2": True,
    }
    for text, expected in cases.items():
        assert evaluate(parse_expression(text), env) is expected, text


def test_expression_type_errors():
    with pytest.raises(EvalError):
        evaluate(parse_expression("sum(s)"), {"s": {1, 2}})
    with pytest.raises(EvalError):
        evaluate(parse_expression("a in b"), {"a": 1, "b": 2})
    with pytest.raises(EvalError):
        evaluate(parse_expression("xs[9]"), {"xs": [1, 2]})
    with pytest.raises(EvalError):
        evaluate(parse_expression("a / 0"), {"a": 1})


# Names of every kind of value: ints, an int array, the empty array, a set,
# an array of sets, and one name left unbound.
NAMES = ("x", "k", "n", "a", "e", "s", "t", "missing")
INTS = st.integers(-2, 4)
COMPARISONS = st.sampled_from(("=", "!=", "<", "<=", ">", ">="))
SETS = st.sets(st.integers(0, 3), max_size=3)

ENVIRONMENTS = st.fixed_dictionaries({
    "x": INTS,
    "k": INTS,
    "n": st.integers(0, 2),
    "a": st.lists(INTS, min_size=1, max_size=3),
    "e": st.just([]),
    "s": SETS,
    "t": st.lists(SETS, min_size=1, max_size=2),
})


def negation(expr):
    """The tree of ``-expr``."""
    return BinOp("-", IntLit(0), expr)


def card(expr):
    return Call("card", expr)


def _nodes(children):
    return st.one_of(
        st.builds(Index, children, children),
        *(st.builds(Call, st.just(fn), children) for fn in ("card", "sum", "min", "max")),
        st.builds(negation, children),
        st.builds(Call, st.just("alldifferent"), children),
        st.builds(BinOp, st.sampled_from("+-*/"), children, children),
        st.builds(BinOp, COMPARISONS, children, children),
        st.builds(BinOp, st.just("in"), children, children),
        st.builds(BinOp, st.just("and"), children, children),
    )


TREES = st.recursive(
    st.one_of(st.integers(0, 4).map(IntLit), st.sampled_from(NAMES).map(Name)), _nodes, max_leaves=8
)

# Well-typed trees, which random trees seldom are: numbers, with more
# divisions and more indices in range than chance gives, and conditions
# over them.
ARRAYS = st.sampled_from([Name("a"), Name("a"), Name("e"), card(Name("t"))])
NUMBERS = st.recursive(
    st.one_of(
        st.integers(0, 4).map(IntLit),
        st.sampled_from([Name("x"), Name("k"), Name("n"), card(Name("s"))]),
        st.builds(Call, st.sampled_from(["sum", "min", "max"]), ARRAYS),
    ),
    lambda n: st.one_of(
        st.builds(BinOp, st.sampled_from("+-*/"), n, n),
        st.builds(BinOp, st.just("/"), n, n),
        st.builds(negation, n),
        st.builds(Index, ARRAYS, st.one_of(st.integers(1, 2).map(IntLit), n)),
        st.builds(lambda i: card(Index(Name("t"), i)), st.one_of(st.integers(1, 2).map(IntLit), n)),
    ),
    max_leaves=6,
)
CONDITIONS = st.recursive(
    st.one_of(
        st.builds(BinOp, COMPARISONS, NUMBERS, NUMBERS),
        st.builds(lambda op, side: BinOp(op, side, side), COMPARISONS, NUMBERS),
        st.builds(
            BinOp, st.just("in"), NUMBERS, st.one_of(st.just(Name("s")), st.builds(Index, st.just(Name("t")), NUMBERS))
        ),
        st.builds(Call, st.just("alldifferent"), ARRAYS),
    ),
    lambda c: st.builds(BinOp, st.just("and"), c, c),
    max_leaves=3,
)
TEMPLATES = st.builds(
    lambda template, c: parse_expression(template.format(c=c)),
    st.sampled_from(CONSTRAINT_TEMPLATES + ERROR_TEMPLATES),
    st.integers(0, 4),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(TREES, TEMPLATES, NUMBERS, CONDITIONS), st.lists(ENVIRONMENTS, min_size=4, max_size=4))
@example(parse_expression("x / n in s"), [{"x": 3, "k": 0, "n": 2, "a": [1], "e": [], "s": {1}, "t": [set()]}])
def test_evaluate_agrees_with_the_reference_tree_walker(expr, envs):
    # The example: 3/2 is not a member of {1}, though int(3/2) is.
    for env in envs:
        try:
            expected = reference_evaluate(expr, env)
        except EvalError:
            with pytest.raises(EvalError):
                evaluate(expr, env)
            continue
        actual = evaluate(expr, env)
        if isinstance(expected, (bool, set, list)):
            assert actual is bool(expected)
        else:
            assert not isinstance(actual, bool) and actual == expected


def reference_names(expr) -> set[str]:
    """The names in a tree, by recursion over its record-valued fields."""
    if isinstance(expr, Name):
        return {expr.name}
    return set().union(*(reference_names(v) for v in vars(expr).values() if isinstance(v, Record)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(TREES, TEMPLATES, NUMBERS, CONDITIONS))
def test_names_in_agrees_with_a_recursive_walk(expr):
    assert names_in(expr) == reference_names(expr)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(TREES, NUMBERS), st.lists(ENVIRONMENTS, min_size=4, max_size=4))
def test_negation_evaluates_as_subtraction_from_zero(expr, envs):
    assert parse_expression(f"-({parenthesised(expr)})") == negation(expr)
    for env in envs:
        try:
            value = evaluate(expr, env)
        except EvalError:
            value = None
        if value is None or isinstance(value, bool):
            with pytest.raises(EvalError):
                evaluate(negation(expr), env)
        else:
            negated = evaluate(negation(expr), env)
            assert type(negated) is type(value) and negated == -value


def test_an_empty_array_sums_to_zero_and_has_no_minimum_or_maximum():
    assert evaluate(parse_expression("sum(e)"), {"e": []}) == 0
    for fold in ("min", "max"):
        with pytest.raises(EvalError, match=rf"^{fold}\(\) of an empty array$"):
            evaluate(parse_expression(f"{fold}(e)"), {"e": []})
    space = parse_space("n: 0..0")
    model = parse_model(space, "var a[n] : int 1..3\nconstraint sum(a) = 0")
    config = make_configuration(space, {"n": 0})
    result = solve_generator(model, config, SolutionHistory(), 30.0, 30.0)
    assert decision_values(result.instance, config) == {"a": []}
    for fold in ("min", "max"):
        model = parse_model(space, f"var a[n] : int 1..3\nconstraint {fold}(a) = 0")
        assert check_assignment(model, config, {"a": []}) is False


def test_expression_parse_errors():
    for text in ["a +", "sum(", "a = = b", "[1,2]", "1..2", "{1}", "a, b", "x = y = z", "a in s in t", "sum x", "and"]:
        with pytest.raises(ParseError):
            parse_expression(text)


def parenthesised(expr) -> str:
    """The tree as text with every operand in parentheses, so that no
    precedence rule takes part in reading it back."""
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, Name):
        return expr.name
    if isinstance(expr, Index):
        return f"({parenthesised(expr.base)})[({parenthesised(expr.index)})]"
    if isinstance(expr, BinOp):
        return f"({parenthesised(expr.left)}) {expr.op} ({parenthesised(expr.right)})"
    return f"{expr.fn}(({parenthesised(expr.arg)}))"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(TREES)
def test_a_parenthesised_tree_parses_back_to_itself(expr):
    assert parse_expression(parenthesised(expr)) == expr


A, B, C, D = Name("a"), Name("b"), Name("c"), Name("d")


@pytest.mark.parametrize(
    "text, tree",
    [
        ("a - b - c", BinOp("-", BinOp("-", A, B), C)),
        ("a / b * c", BinOp("*", BinOp("/", A, B), C)),
        ("-a[1]", negation(Index(A, IntLit(1)))),
        ("|x| + 1", BinOp("+", card(Name("x")), IntLit(1))),
        ("a + b = c and d", BinOp("and", BinOp("=", BinOp("+", A, B), C), D)),
        ("(a = b) + 1", BinOp("+", BinOp("=", A, B), IntLit(1))),
    ],
)
def test_precedence_and_associativity(text, tree):
    assert parse_expression(text) == tree


@pytest.mark.parametrize(
    "text",
    ["1" * 5000, "(" * 3000 + "a" + ")" * 3000, "-" * 3000 + "a"],
    ids=["5000-digits", "3000-parentheses", "3000-minus-signs"],
)
def test_an_expression_python_cannot_hold_is_a_parse_error(text):
    with pytest.raises(ParseError):
        parse_expression(text)


def deep_constraint(depth: int) -> str:
    """``x + 0 + ... + 0 = n``, a tree ``depth`` levels deep."""
    return "x" + " + 0" * (depth - 2) + " = n"


def test_a_tree_at_the_depth_bound_is_parsed_evaluated_and_solved():
    space = parse_space("n: 1..3")
    model = parse_model(space, f"var x : int 1..3\nconstraint {deep_constraint(MAX_DEPTH)}")
    (constraint,) = model.constraints
    assert evaluate(constraint, {"x": 2, "n": 2}) is True
    assert evaluate(constraint, {"x": 1, "n": 2}) is False
    config = make_configuration(space, {"n": 2})
    assert check_assignment(model, config, {"x": 2}) is True
    result = solve_generator(model, config, SolutionHistory(), 30.0, 30.0)
    assert decision_values(result.instance, config) == {"x": 2}


def test_a_tree_deeper_than_the_bound_is_refused_with_its_depth():
    with pytest.raises(ParseError, match=f"{MAX_DEPTH + 1} levels deep, more than {MAX_DEPTH}"):
        parse_expression(deep_constraint(MAX_DEPTH + 1))
    with pytest.raises(ParseError, match=f"{MAX_DEPTH + 1} levels deep"):
        parse_expression("-" * MAX_DEPTH + "x")


# Each form that nests the text, as a builder of an expression ``depth``
# levels deep: by its tree, or by its brackets and minus signs.
NESTED_FORMS = {
    "sum": lambda depth: "0 + (" * (depth - 1) + "x" + ")" * (depth - 1),
    "difference": lambda depth: "0 - (" * (depth - 1) + "x" + ")" * (depth - 1),
    "product": lambda depth: "1 * (" * (depth - 1) + "x" + ")" * (depth - 1),
    "quotient": lambda depth: "1 / (" * (depth - 1) + "x" + ")" * (depth - 1),
    "conjunction": lambda depth: "x = n and (" * (depth - 2) + "x = n" + ")" * (depth - 2),
    "parentheses": lambda depth: "(" * (depth - 1) + "x" + ")" * (depth - 1),
    "index": lambda depth: "a[" * (depth - 1) + "x" + "]" * (depth - 1),
    "call": lambda depth: "sum(" * (depth - 1) + "x" + ")" * (depth - 1),
    "cardinality": lambda depth: "|" * (depth - 1) + "x" + "|" * (depth - 1),
    "negation": lambda depth: "-" * (depth - 1) + "x",
}


@pytest.mark.parametrize("form", NESTED_FORMS)
def test_each_nested_form_is_bounded_by_max_depth_alone_on_a_deep_stack(form):
    build = NESTED_FORMS[form]
    assert "x" in names_in(from_deep_stack(lambda: parse_expression(build(MAX_DEPTH))))
    with pytest.raises(ParseError, match=f"{MAX_DEPTH + 1} levels deep, more than {MAX_DEPTH}$"):
        from_deep_stack(lambda: parse_expression(build(MAX_DEPTH + 1)))


# Pieces of the grammar, each an operand; X is the deeper operand and Y a
# shallow one. A relation or conjunction is an operand inside parentheses.
GRAMMAR_FORMS = [
    form.split()
    for form in [
        *(f"{left} {op} {right}" for op in "+-*/" for left, right in ["XY", "YX"]),
        *(f"( X {op} Y )" for op in ["=", "==", "!=", "<", "<=", ">", ">=", "in", "and"]),
        "( Y and X )", "( Y < X )", "( X )", "- X", "| X |", "X [ Y ]", "Y [ X ]",
        *(f"{f} ( X )" for f in ["sum", "card", "min", "max", "alldifferent"]),
    ]
]
GRAMMAR_TOKENS = sorted({tok for form in GRAMMAR_FORMS for tok in form} - {"X", "Y"}) + [
    "a", "s", "0", "7", ",", "{", "}", "]", "..", "1" * 5000
]


def grammar_tokens(rng: Random, depth: int) -> list[str]:
    """The tokens of a random expression of ``depth`` nested grammar forms."""
    if depth <= 1:
        return [rng.choice(["a", "b", "s", "0", "7"])]
    deep, shallow = grammar_tokens(rng, depth - 1), grammar_tokens(rng, rng.randint(1, min(depth - 1, 3)))
    return [t for tok in rng.choice(GRAMMAR_FORMS) for t in {"X": deep, "Y": shallow}.get(tok, [tok])]


def outcome(parse, text: str):
    try:
        return parse(text)
    except ParseError as err:
        return f"ParseError: {err}"


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.integers(0, 2**32), st.integers(1, 100), st.integers(0, 2))
def test_the_parser_reads_grammar_and_mutated_text_as_recursive_descent_does(seed, depth, mutations):
    rng = Random(seed)
    tokens = grammar_tokens(rng, depth)
    for _ in range(mutations):
        i = rng.randrange(len(tokens) + 1)
        tokens[i:i + rng.randint(0, 1)] = rng.choice([[], [rng.choice(GRAMMAR_TOKENS)]])
    text = " ".join(tokens)
    assert outcome(parse_expression, text) == outcome(reference_parse, text)


# Each form the compiler takes apart, as a constraint on x that holds at
# x = n; a builder takes the depth of the tree it builds.
DEEP_FORMS = {
    "negation": lambda depth: "-" * (depth - 2) + "x = " + "-" * (depth % 2) + "n",
    "product": lambda depth: "x" + " * 1" * (depth - 2) + " = n",
    "quotient": lambda depth: "x" + " / 1" * (depth - 2) + " = n",
    "conjunction": lambda depth: "x = n" + " and x = n" * (depth - 2),
}


@pytest.mark.parametrize("form", DEEP_FORMS)
def test_every_rewritten_form_at_the_depth_bound_is_parsed_evaluated_and_solved(form):
    build = DEEP_FORMS[form]
    with pytest.raises(ParseError, match=f"{MAX_DEPTH + 1} levels deep"):
        parse_expression(build(MAX_DEPTH + 1))
    space = parse_space("n: 1..3")
    model = parse_model(space, f"var x : int 1..3\nconstraint {build(MAX_DEPTH)}")
    (constraint,) = model.constraints
    assert names_in(constraint) == {"x", "n"}
    assert evaluate(constraint, {"x": 2, "n": 2}) is True
    assert evaluate(constraint, {"x": 1, "n": 2}) is False
    config = make_configuration(space, {"n": 2})
    assert check_assignment(model, config, {"x": 2}) is True
    assert check_assignment(model, config, {"x": 3}) is False
    result = solve_generator(model, config, SolutionHistory(), 30.0, 30.0)
    assert decision_values(result.instance, config) == {"x": 2}
