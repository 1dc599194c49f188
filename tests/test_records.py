"""Record types behave as the dataclasses they replace.

For every record class in benchgen, a twin is built here with
``dataclasses.make_dataclass`` from the class's source: the same fields in
the same order, the same defaults and default factories, the same frozen
flag, and the record's own ``__post_init__``. A hidden field becomes a
field with ``compare=False, repr=False``. Both are then driven with the same
arguments, and must agree on everything ``@dataclass`` promised.
"""

import ast
import dataclasses
import importlib
import pkgutil
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import benchgen
from benchgen.errors import ValidationError
from benchgen.evaluate import DiscriminatingPolicy, GradedPolicy
from benchgen.problems import get_problem
from benchgen.records import Record, field, field_names, replace
from benchgen.runner import SolverAdapter
from benchgen.scoring import ComparableRecord
from benchgen.space import GeneratorConfiguration, ParameterSpace, ParameterSpec
from benchgen.tuner import TunerConfig


def _is_field_call(node: ast.expr | None) -> bool:
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "field"


def _twin(cls: type, node: ast.ClassDef, namespace: dict) -> type:
    """The dataclass that ``@dataclass`` would have made from the same class body."""
    frozen = any(kw.arg == "frozen" and ast.literal_eval(kw.value) for kw in node.keywords)
    specs = []
    for stmt in node.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        name = stmt.target.id
        options = {}
        if _is_field_call(stmt.value):
            given_kw = {kw.arg: kw.value for kw in stmt.value.keywords}
            if ast.literal_eval(given_kw.pop("hidden", ast.Constant(False))):
                options.update(compare=False, repr=False)
            if "default_factory" in given_kw:
                factory = given_kw.pop("default_factory")
                options["default_factory"] = eval(ast.unparse(factory), namespace)
            if given_kw.pop("default", None) is not None:
                options["default"] = getattr(cls, name)
            assert not given_kw, given_kw
        elif stmt.value is not None:
            # The class attribute is the default object itself, as under @dataclass.
            options["default"] = getattr(cls, name)
        specs.append((name, object, dataclasses.field(**options)))
    extra = {"__post_init__": cls.__dict__["__post_init__"]} if "__post_init__" in cls.__dict__ else {}
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=frozen, namespace=extra)


def _records_and_twins() -> list[tuple[type, type]]:
    pairs = []
    for info in pkgutil.iter_modules(benchgen.__path__):
        module = importlib.import_module(f"benchgen.{info.name}")
        tree = ast.parse(Path(module.__file__).read_text())
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and any(getattr(b, "id", None) == "Record" for b in node.bases):
                cls = getattr(module, node.name)
                pairs.append((cls, _twin(cls, node, vars(module))))
    return pairs


PAIRS = _records_and_twins()

VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 3),
    st.floats(-2, 2, allow_nan=False),
    st.sampled_from(["", "a", "exact", "SAT", "complete"]),
    st.lists(st.integers(0, 2), max_size=2),
    st.tuples(st.integers(0, 2)),
    st.frozensets(st.sampled_from(["SAT", "UNSAT"])),
    st.dictionaries(st.sampled_from(["n", "cap_t"]), st.integers(1, 3), max_size=2),
)


# Field values that pass the checks of the records whose __post_init__
# rejects nearly every value of VALUES.
_SPEC = ParameterSpec("n", 1, 3)
_ADAPTER = SolverAdapter(name="a", builtin="exact")
VALID = {
    ParameterSpec: {"name": "n", "lower": 1, "upper": 3},
    ParameterSpace: {"params": (_SPEC,)},
    SolverAdapter: {"name": "a", "kind": "local_search", "builtin": "exact", "command": None},
    GradedPolicy: {
        "problem": get_problem("knapsack"), "solver": _ADAPTER, "t_min": 1.0, "t_max": 2.0,
        "types": frozenset({"SAT"}), "oracle": None, "oracle_budget": None,
    },
    DiscriminatingPolicy: {
        "problem": get_problem("knapsack"), "favoured": _ADAPTER, "t_min": 1.0, "t_max": 2.0,
        "base": SolverAdapter(name="b", builtin="exact"), "types": frozenset({"SAT"}),
    },
    ComparableRecord: {"solved": True, "optimal": False, "quality": 3, "time": 0.5, "kind": "maximise"},
}


def outcome(cls: type, args: tuple, kwargs: dict):
    try:
        return cls(*args, **kwargs)
    except Exception as err:  # compared by type with the twin's
        return err


@st.composite
def calls(draw, cls: type, names: tuple[str, ...]):
    """Arguments for a record: some positional, some by keyword, some
    omitted, and now and then one too many, repeated or unknown."""
    valid = VALID.get(cls, {})
    values = {
        name: valid[name] if name in valid and draw(st.integers(0, 9)) else draw(VALUES) for name in names
    }
    npos = draw(st.integers(0, len(names)))
    args = tuple(values[name] for name in names[:npos])
    kwargs = {name: values[name] for name in names[npos:] if draw(st.booleans()) or draw(st.booleans())}
    flaw = draw(st.sampled_from([None] * 6 + ["extra", "repeat", "unknown"]))
    if flaw == "extra":
        args += (draw(VALUES),)
    elif flaw == "repeat" and npos:
        kwargs[names[0]] = values[names[0]]
    elif flaw == "unknown":
        kwargs["not_a_field"] = 0
    return args, kwargs


def agree(record, twin) -> None:
    """Same construction outcome, and for a built pair the same repr and hash."""
    if isinstance(twin, Exception):
        assert type(record) is type(twin), (record, twin)
        return
    assert not isinstance(record, Exception), record
    assert repr(record) == repr(twin)
    try:
        expected = hash(twin)
    except TypeError:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected


@pytest.mark.parametrize("cls, twin", PAIRS, ids=[cls.__name__ for cls, _ in PAIRS])
@settings(max_examples=30, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_record_behaves_as_its_dataclass_twin(cls, twin, data):
    names = tuple(f.name for f in dataclasses.fields(twin))
    assert field_names(cls) == names
    args, kwargs = data.draw(calls(cls, names))
    record, expected = outcome(cls, args, kwargs), outcome(twin, args, kwargs)
    agree(record, expected)
    if isinstance(expected, Exception):
        return

    # A second pair from the same arguments, or with one field changed.
    changed = data.draw(st.sampled_from((None,) + names))
    if changed is None:
        args2, kwargs2 = args, dict(kwargs)
    else:
        value = data.draw(VALUES)
        args2 = tuple(value if name == changed else a for name, a in zip(names, args))
        kwargs2 = {**kwargs, changed: value} if changed not in names[: len(args)] else dict(kwargs)
    record2, expected2 = outcome(cls, args2, kwargs2), outcome(twin, args2, kwargs2)
    agree(record2, expected2)
    if not isinstance(expected2, Exception):
        assert (record == record2) == (expected == expected2)
        assert (record != record2) == (expected != expected2)
    assert (record == expected) is False and (record != expected) is True
    assert record != object() and not record == None  # noqa: E711

    # A fresh default-factory object per instance.
    given_names = set(kwargs) | set(names[: len(args)])
    for f in dataclasses.fields(twin):
        if f.default_factory is not dataclasses.MISSING and f.name not in given_names:
            again = cls(*args, **kwargs)
            assert getattr(again, f.name) is not getattr(record, f.name)
            assert getattr(again, f.name) == f.default_factory()

    # replace builds anew, through __post_init__.
    name = data.draw(st.sampled_from(names))
    value = data.draw(VALUES)
    replaced = outcome(lambda: replace(record, **{name: value}), (), {})
    agree(replaced, outcome(lambda: dataclasses.replace(expected, **{name: value}), (), {}))

    # Assignment: refused on frozen records, and applied alike otherwise.
    frozen = twin.__dataclass_params__.frozen
    for target in (record, expected):
        try:
            setattr(target, name, value)
        except AttributeError:
            assert frozen
        else:
            assert not frozen
    agree(record, expected)
    if frozen:
        with pytest.raises(AttributeError):
            delattr(record, name)


def test_every_record_class_has_a_twin():
    records = {cls for cls, _ in PAIRS}
    assert {GeneratorConfiguration, TunerConfig} <= records
    expression_nodes = {cls for cls in records if cls.__module__ == "benchgen.expressions"}
    assert len(expression_nodes) == 13


def test_records_of_different_classes_with_equal_fields_differ():
    from benchgen.expressions import AllDifferent, Card, IntLit, MaxOf, MinOf, Neg, Sum

    nodes = [kind(IntLit(1)) for kind in (Sum, MinOf, MaxOf, Neg, Card, AllDifferent)]
    for i, a in enumerate(nodes):
        for j, b in enumerate(nodes):
            assert (a == b) == (i == j)
            assert (a != b) == (i != j)
    assert Sum(IntLit(1)) == Sum(IntLit(1)) and hash(Sum(IntLit(1))) == hash(Sum(IntLit(1)))


def test_replace_runs_post_init_again():
    assert replace(TunerConfig(), total_budget=5).total_budget == 5
    with pytest.raises(ValidationError):
        replace(TunerConfig(), total_budget=-1)
    config = GeneratorConfiguration({"n": 2})
    moved = replace(config, assignment={"n": 3}, id="")
    assert moved.id == GeneratorConfiguration({"n": 3}).id != config.id
    with pytest.raises(TypeError):
        replace(config, not_a_field=1)


def test_hidden_field_is_kept_but_neither_compared_nor_shown():
    from benchgen.gensolve import CandidateInstance

    a = CandidateInstance({"x": 1}, {}, "g1", 1, cursor=(1, 2))
    b = CandidateInstance({"x": 1}, {}, "g1", 1, cursor=(3,))
    assert a == b and a.cursor == (1, 2)
    assert "cursor" not in repr(a)
    assert replace(a, sequence=2).cursor == (1, 2)


def test_class_definition_is_checked_as_under_dataclass():
    with pytest.raises(TypeError):

        class Misordered(Record):
            a: int = 0
            b: int

    with pytest.raises(ValueError):
        field(default=0, default_factory=list)

    class Point(Record, frozen=True):
        x: int
        y: int = 0
        seen: list = field(default_factory=list, hidden=True)

    assert field_names(Point) == ("x", "y", "seen")
    assert repr(Point(1)).endswith("<locals>.Point(x=1, y=0)")
    assert Point(1) == Point(1, 0, [5]) and {Point(1): 1}[Point(1, seen=[2])] == 1
