"""Record types behave as the dataclasses they replace.

For every record class in benchgen, a twin is built here with
``dataclasses.make_dataclass`` from the class's source: the same fields in
the same order, the same defaults and default factories, the same frozen
flag, and the record's own ``__post_init__``. Both are then driven with the
same arguments, and must agree on everything ``@dataclass`` promised.
"""

import ast
import dataclasses
import importlib
import inspect
import json
import pkgutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import benchgen
from benchgen.archive import CampaignArchive, Evaluation
from benchgen.errors import ValidationError
from benchgen.evaluate import DiscriminatingPolicy, GradedPolicy
from benchgen.expressions import IntLit, parse_expression
from benchgen.problems import get_problem
from benchgen.records import Record, field, field_names, from_jsonable, replace, to_jsonable
from benchgen.report import CombinedSet
from benchgen.runner import GenOutcome, OracleResult, RunStatus, SolverAdapter, SolverRecord, Status
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

# The node forms the parser emits for what were once node classes of their
# own, by the former class's name: a source text and the fields that mark
# its form. A form case drives the form's record class (``Call`` or
# ``BinOp``) with those fields held, beside the parsed tree itself.
FORMS = {
    "Neg": ("-x", {"op": "-", "left": IntLit(0)}),
    "Card": ("|x|", {"fn": "card"}),
    "Sum": ("sum(x)", {"fn": "sum"}),
    "MinOf": ("min(x)", {"fn": "min"}),
    "MaxOf": ("max(x)", {"fn": "max"}),
    "AllDifferent": ("alldifferent(x)", {"fn": "alldifferent"}),
    "Compare": ("x <= y", {"op": "<="}),
    "InSet": ("x in s", {"op": "in"}),
    "And": ("x = 1 and y = 2", {"op": "and"}),
}
_TWINS = dict(PAIRS)
CASES = [(cls, twin, None) for cls, twin in PAIRS] + [
    (type(parse_expression(text)), _TWINS[type(parse_expression(text))], (text, pins))
    for text, pins in FORMS.values()
]
CASE_IDS = [cls.__name__ for cls, _ in PAIRS] + list(FORMS)

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
    # Frozen but unhashable, as its twin is: the assignment is a dict.
    GeneratorConfiguration: {"assignment": {"n": 1}},
}


def outcome(cls: type, args: tuple, kwargs: dict):
    try:
        return cls(*args, **kwargs)
    except Exception as err:  # compared by type with the twin's
        return err


@st.composite
def calls(draw, cls: type, names: tuple[str, ...], pins: dict | None = None):
    """Arguments for a record: some positional, some by keyword, some
    omitted, and now and then one too many, repeated or unknown. A pinned
    field always takes its pinned value."""
    valid = {**VALID.get(cls, {}), **(pins or {})}
    values = {
        name: valid[name] if name in valid and (name in (pins or {}) or draw(st.integers(0, 9))) else draw(VALUES)
        for name in names
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


@pytest.mark.parametrize("cls, twin, form", CASES, ids=CASE_IDS)
@settings(max_examples=30, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_record_behaves_as_its_dataclass_twin(cls, twin, form, data):
    names = tuple(f.name for f in dataclasses.fields(twin))
    assert field_names(cls) == names
    pins = None
    if form is not None:
        text, pins = form
        node = parse_expression(text)
        agree(node, twin(**{name: getattr(node, name) for name in names}))
    args, kwargs = data.draw(calls(cls, names, pins))
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
    # The five AST nodes and the compiler's _Term.
    expression_records = {cls for cls in records if cls.__module__ == "benchgen.expressions"}
    assert len(expression_records) == 6


@pytest.mark.parametrize("cls, twin, form", CASES, ids=CASE_IDS)
def test_a_record_class_has_the_signature_of_its_dataclass_twin(cls, twin, form):
    if form is not None:
        text, pins = form
        node = parse_expression(text)
        assert type(node) is cls and {name: getattr(node, name) for name in pins} == pins
    factories = {f.name for f in dataclasses.fields(twin) if f.default_factory is not dataclasses.MISSING}

    def plain(signature: inspect.Signature) -> inspect.Signature:
        """Without annotations, since a twin's are all ``object``, and with
        one marker as the default of every default-factory field."""
        return signature.replace(return_annotation=signature.empty, parameters=[
            p.replace(annotation=p.empty, default="<factory>" if p.name in factories else p.default)
            for p in signature.parameters.values()
        ])

    assert plain(inspect.signature(cls)) == plain(inspect.signature(twin))
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"


def test_records_of_different_classes_with_equal_fields_differ():
    class Left(Record, frozen=True):
        arg: int

    class Right(Record, frozen=True):
        arg: int

    nodes = [kind(1) for kind in (Left, Right)]
    for i, a in enumerate(nodes):
        for j, b in enumerate(nodes):
            assert (a == b) == (i == j)
            assert (a != b) == (i != j)
    assert Left(1) == Left(1) and hash(Left(1)) == hash(Left(1))


def test_replace_runs_post_init_again():
    assert replace(TunerConfig(), total_budget=5).total_budget == 5
    with pytest.raises(ValidationError):
        replace(TunerConfig(), total_budget=-1)
    config = GeneratorConfiguration({"n": 2})
    moved = replace(config, assignment={"n": 3})
    assert moved.id == GeneratorConfiguration({"n": 3}).id != config.id
    with pytest.raises(TypeError):
        replace(config, not_a_field=1)


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
        seen: tuple = field(default_factory=tuple)

    assert field_names(Point) == ("x", "y", "seen")
    assert repr(Point(1)).endswith("<locals>.Point(x=1, y=0, seen=())")
    assert Point(1) == Point(1, 0, ()) != Point(1, 0, (5,)) and {Point(1): 1}[Point(1, seen=())] == 1


def test_to_jsonable_gives_a_record_its_fields_in_declaration_order():
    class Inner(Record, frozen=True):
        status: Status
        types: frozenset

    class Outer(Record):
        z: Inner
        a: tuple
        m: dict
        none: object = None

    outer = Outer(Inner(Status.SAT, frozenset({"UNSAT", "SAT"})), (1, (2, 3)), {"k": Inner(Status.ERROR, frozenset())})
    form = to_jsonable(outer)
    assert form == {
        "z": {"status": "sat", "types": ["SAT", "UNSAT"]},
        "a": [1, [2, 3]],
        "m": {"k": {"status": "error", "types": []}},
        "none": None,
    }
    assert list(form) == list(field_names(Outer)) and list(form["z"]) == list(field_names(Inner))
    assert json.loads(json.dumps(form)) == form


# -- the JSON form read back ----------------------------------------------------

# Every record class that the archive's files or a command's outputs are read into.
DECODED = [Evaluation, SolverRecord, OracleResult, CombinedSet]


@pytest.mark.parametrize("cls", DECODED, ids=[cls.__name__ for cls in DECODED])
def test_the_decode_plan_of_every_record_class_read_from_json_builds(cls):
    # Planning reads every annotation, nested records' included, so one the
    # decoder cannot read fails here, not at the first archive read.
    with pytest.raises(ValidationError, match="^None is not an object$"):
        from_jsonable(cls, None)


TEXT = st.text(max_size=4)
# A JSON int in a float field stays an int (tuner.log writes a penalty's repr).
NUMBERS = st.integers(-3, 3) | st.floats(allow_nan=False)
SOLUTIONS = st.dictionaries(TEXT, st.one_of(
    st.integers(-3, 3),
    st.lists(st.integers(-3, 3), max_size=3),
    st.sets(st.integers(-3, 3), max_size=3),
    st.lists(st.sets(st.integers(0, 3), max_size=2), min_size=1, max_size=3),
), max_size=3)
SOLVER_RECORDS = st.builds(
    SolverRecord, st.sampled_from(Status), NUMBERS, st.none() | st.integers(), st.booleans(),
    st.none() | SOLUTIONS, st.none() | NUMBERS, st.lists(st.tuples(NUMBERS, st.integers()), max_size=3),
    st.none() | st.booleans(), TEXT,
)


@st.composite
def evaluations(draw) -> Evaluation:
    status = draw(st.sampled_from(RunStatus))
    scores = st.tuples(NUMBERS, NUMBERS)
    return Evaluation(
        1, draw(st.integers(0, 9)), draw(TEXT), draw(st.dictionaries(TEXT, st.integers(), max_size=2)),
        draw(st.none() | TEXT), draw(NUMBERS), status, draw(st.sampled_from(GenOutcome)),
        draw(st.dictionaries(TEXT, SOLVER_RECORDS, max_size=2)),
        draw(scores if status is RunStatus.DIS_FOUND else st.none() | scores),
        draw(st.none() | st.builds(OracleResult, st.none() | st.integers(), st.booleans(), NUMBERS, st.booleans())),
    )


def combined_sets():
    labels = st.lists(TEXT, min_size=0, max_size=3, unique=True)
    return labels.flatmap(lambda names: st.builds(
        CombinedSet, st.integers(), st.integers(0, 9), st.fixed_dictionaries({n: TEXT for n in names}),
        st.fixed_dictionaries({n: st.lists(TEXT, max_size=2) for n in names}),
    ))


def through_json(form):
    return json.loads(json.dumps(form))


def same(a, b) -> bool:
    """Equal, with every number of the same type (an int read back as a float differs)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Record):
        a, b = to_jsonable(a), to_jsonable(b)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b


@settings(max_examples=200, deadline=None, derandomize=True)
@given(SOLVER_RECORDS)
def test_a_solver_record_reads_back_from_its_archived_form(record):
    back = from_jsonable(SolverRecord, through_json(record.to_jsonable("band")))
    assert back == record and same(back, record)
    assert same(back.solution, record.solution)


@settings(max_examples=100, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(evaluations())
def test_an_evaluation_reads_back_from_its_archived_line(evaluation):
    with tempfile.TemporaryDirectory() as root:
        archive = CampaignArchive(root)
        lines = []
        archive._write = lambda name, text, handover=False: lines.append(text)
        archive.add_evaluation(evaluation)
        (Path(root) / "records").mkdir()
        (Path(root) / "records" / "evals.jsonl").write_text("".join(lines))
        (back,) = archive.evaluations()
    assert back == evaluation and same(back, evaluation)
    assert ("oracle" in json.loads(lines[0])) == (evaluation.oracle is not None)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(combined_sets())
def test_a_combined_set_reads_back_from_its_json_form(combined):
    back = from_jsonable(CombinedSet, through_json(to_jsonable(combined)))
    assert back == combined and same(back, combined)


def test_the_json_form_keeps_ints_ignores_unknown_keys_and_refuses_booleans_as_numbers():
    form = {**SolverRecord(Status.SAT, 3, 7).to_jsonable("band"), "unknown": [1]}
    record = from_jsonable(SolverRecord, form)
    assert type(record.time) is int and record.time == 3 and record.objective == 7
    with pytest.raises(ValidationError, match="^time True is not a number$"):
        from_jsonable(SolverRecord, {**form, "time": True})
    with pytest.raises(ValidationError, match="^objective False is not an integer$"):
        from_jsonable(SolverRecord, {**form, "objective": False})
    with pytest.raises(ValidationError, match="^no 'trace'$"):
        from_jsonable(SolverRecord, {key: value for key, value in form.items() if key != "trace"})
    # Archives written before solver records had a note: an absent note reads as "".
    noteless = {key: value for key, value in {**form, "note": "late"}.items() if key != "note"}
    assert from_jsonable(SolverRecord, noteless) == SolverRecord(Status.SAT, 3, 7)


def test_a_dis_found_evaluation_without_scores_is_refused_by_its_post_init():
    form = to_jsonable(Evaluation(1, 0, "c", {}, None, 0.0, RunStatus.OTHERS, GenOutcome.SOLUTION, {}, None))
    assert from_jsonable(Evaluation, form).scores is None
    with pytest.raises(ValidationError, match="^no 'scores'$"):
        from_jsonable(Evaluation, {**form, "status": "dis-found"})
