"""Record types: value classes built from a table of their fields.

A record class subclasses ``Record`` and lists its fields as annotations,
in order, each with an optional default. ``Record`` then gives it what
``@dataclass`` would: an ``__init__`` taking the fields positionally or by
keyword (calling ``__post_init__`` when the class defines one), value
``__eq__`` between instances of the same class, the same ``__repr__`` text,
and, for ``class X(Record, frozen=True)``, ``__hash__`` and refusal of
assignment. As under a frozen dataclass, that hash is the fields' hash, so
hashing a frozen record with an unhashable field (``GeneratorConfiguration``
and its dict ``assignment``) raises ``TypeError``. A record that is not
frozen is unhashable. Every annotation in the class body is a field.

Only ``__init__`` is generated per class, from the field table built when
the class is defined: its signature is the fields, so Python binds the
arguments and raises its own ``TypeError`` for a bad call. Generating one
costs about 70 µs, some 2.7 ms for benchgen's 39 record classes at
import. The other methods are shared by every record. ``replace`` and
``from_jsonable`` build records through ``__init__`` too; ``replace`` and
``field_names`` stand in for ``dataclasses.replace`` and ``dataclasses.fields``.

A record's JSON form is its fields, and ``from_jsonable`` reads it back.
``to_jsonable`` makes a record an object of its fields in declaration
order, an enum its value, a set or frozenset its sorted list, a tuple or
list a list, and a dict a dict key by key; anything else passes through.
``from_jsonable(cls, data)`` decodes each field by its annotation, needs
its key unless ``_may_be_absent`` names it, and ignores other keys. A JSON
int stays an int in a ``float`` field, a ``bool`` is no number, and
``Annotated[X, f]`` passes the decoded ``X`` through ``f``, whose
``TypeError`` or ``ValueError`` refuses the value.
"""

from __future__ import annotations

from enum import Enum
from functools import cache
from operator import attrgetter
from types import UnionType
from typing import Annotated, Any, Callable, TypeVar, Union, get_args, get_origin, get_type_hints

from .errors import ValidationError

_MISSING: Any = object()

R = TypeVar("R", bound="Record")


class _Field:
    __slots__ = ("default", "factory")

    def __init__(self, default: Any, factory: Callable[[], Any] | None):
        self.default = default
        self.factory = factory


def field(*, default: Any = _MISSING, default_factory: Callable[[], Any] | None = None) -> Any:
    """A field default made afresh for each instance by ``default_factory``."""
    if default is not _MISSING and default_factory is not None:
        raise ValueError("a field takes a default or a default_factory, not both")
    return _Field(default, default_factory)


def _getter(names: tuple[str, ...]) -> Callable[[Any], tuple]:
    """The tuple of the named attributes, even for one name or none."""
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda obj: (get(obj),)
    return attrgetter(*names) if names else lambda obj: ()


def _frozen(self: Record, name: str, *value: Any) -> None:
    raise AttributeError(f"cannot assign to field {name!r} of frozen {type(self).__name__}")


def _hash(self: Record) -> int:
    return hash(self._key(self))


def _init(cls: type[Record], required: int) -> Callable[..., None]:
    """The ``__init__`` of ``cls``, whose first ``required`` fields have no default."""
    fields, factories = cls._fields, cls._factories
    source = "".join((
        f"def __init__(self, {''.join(f'{name}, ' for name in fields)}):\n",
        *(f"    if {name} is _MISSING: {name} = _factories[{name!r}]()\n" for name in factories),
        f"    _set(self, '__dict__', {{{', '.join(f'{name!r}: {name}' for name in fields)}}})\n",
        "    self.__post_init__()\n",
    ))
    namespace = {"_MISSING": _MISSING, "_set": object.__setattr__, "_factories": factories}
    exec(source, namespace)
    init = namespace["__init__"]
    init.__defaults__ = tuple(cls._template[name] for name in fields[required:])  # _MISSING for a factory
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


class Record:
    """Base of benchgen's record types; see the module docstring."""

    _fields: tuple[str, ...] = ()  # every field, in order
    _template: dict[str, Any] = {}  # field -> default, _MISSING if none
    _factories: dict[str, Callable[[], Any]] = {}

    def __init_subclass__(cls, frozen: bool = False, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        template = dict(cls._template)
        factories = dict(cls._factories)
        for name in cls.__dict__.get("__annotations__", {}):
            value = cls.__dict__.get(name, _MISSING)
            if isinstance(value, _Field):
                if value.factory is not None:
                    factories[name] = value.factory
                value = value.default
                if value is _MISSING:
                    delattr(cls, name)
                else:
                    setattr(cls, name, value)
            template[name] = value
        fields = tuple(template)
        optional = [name in factories or template[name] is not _MISSING for name in fields]
        required = optional.index(True) if True in optional else len(fields)
        if not all(optional[required:]):
            raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
        cls._fields = fields
        cls._template = template
        cls._factories = factories
        cls._key = staticmethod(_getter(fields))
        cls.__init__ = _init(cls, required)
        if frozen:
            cls.__setattr__ = _frozen
            cls.__delattr__ = _frozen
            if "__hash__" not in cls.__dict__:
                cls.__hash__ = _hash

    def __post_init__(self) -> None:
        """Checks and derived fields of a subclass run here."""

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __repr__(self) -> str:
        cls = type(self)
        items = ", ".join(f"{name}={value!r}" for name, value in zip(cls._fields, cls._key(self)))
        return f"{cls.__qualname__}({items})"


def replace(record: R, /, **changes: Any) -> R:
    """A new record of the same class with ``changes``; its ``__post_init__`` runs again."""
    return type(record)(**dict(zip(record._fields, record._key(record)), **changes))


def field_names(record: Record | type[Record]) -> tuple[str, ...]:
    """The field names of a record or record class, in order."""
    return record._fields


def to_jsonable(value: Any) -> Any:
    """The JSON form of a value, by the rule in the module docstring."""
    if isinstance(value, Record):
        return {name: to_jsonable(v) for name, v in zip(value._fields, value._key(value))}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, (tuple, list)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: to_jsonable(v) for k, v in value.items()}
    return value


def _unfit(value: Any, what: str, path: str) -> Any:
    """Raise: ``value`` at ``path`` is not ``what``, or, if ``_MISSING``, its key is absent."""
    path = path.lstrip(".")
    raise ValidationError(f"no {path!r}" if value is _MISSING else f"{path} {value!r:.40} is not {what}".lstrip())


# Annotations whose values are kept as they are, if their type is one listed.
_KEPT = {int: ((int,), "an integer"), float: ((int, float), "a number"), str: ((str,), "a string"),
         bool: ((bool,), "a boolean"), Any: ((dict, list, str, int, float, bool, type(None)), "a JSON value")}


def _plan(hint: Any) -> Callable[[Any, str], Any]:
    """The decoder of a field annotated ``hint``: it takes a value and the path to it."""
    origin, args = get_origin(hint), get_args(hint)
    if hint in _KEPT:
        kinds, what = _KEPT[hint]
        return lambda value, path: value if type(value) in kinds else _unfit(value, what, path)
    if isinstance(hint, type) and issubclass(hint, Record):
        return _decoder(hint)
    if isinstance(hint, type) and issubclass(hint, Enum):
        # A value of another type than the members' (an unhashable one too) is not looked up.
        members, kinds = {m.value: m for m in hint}, tuple({type(m.value) for m in hint})
        what = "a" + "".join(f" {c.lower()}" if c.isupper() else c for c in hint.__name__)  # RunStatus: a run status
        return lambda value, path: (
            members[value] if type(value) in kinds and value in members else _unfit(value, what, path)
        )
    if origin is Annotated:
        inner, codec = _plan(args[0]), args[1]

        def decode(value: Any, path: str) -> Any:
            try:
                return codec(inner(value, path))
            except (TypeError, ValueError) as exc:  # the codec's own refusal
                return _unfit(value, f"decodable ({exc})", path)

        return decode
    if origin in (Union, UnionType) and args[1:] == (type(None),):
        inner = _plan(args[0])
        return lambda value, path: None if value is None else inner(value, path)
    if origin is dict and args[0] is str:
        each = _plan(args[1])
        return lambda value, path: (
            {k: each(v, f"{path}.{k}") for k, v in value.items()} if type(value) is dict
            else _unfit(value, "an object", path)
        )
    if origin is list:
        each = _plan(args[0])
        return lambda value, path: (
            [each(v, f"{path}[{i}]") for i, v in enumerate(value)] if type(value) is list
            else _unfit(value, "a list", path)
        )
    if origin is tuple:
        items, what = list(map(_plan, args)), f"a list of {len(args)} items"
        return lambda value, path: (
            tuple(each(v, f"{path}[{i}]") for i, (each, v) in enumerate(zip(items, value)))
            if type(value) is list and len(value) == len(items) else _unfit(value, what, path)
        )
    raise TypeError(f"no JSON decoder for the annotation {hint!r}")


@cache
def _decoder(cls: type[Record]) -> Callable[[Any, str], Any]:
    """The decoder of record class ``cls``, planned once from its field
    annotations, each resolved in the module of the class that states it. An
    absent key is left to its class default if ``_may_be_absent`` names it,
    and is otherwise refused."""
    hints = get_type_hints(cls, include_extras=True)
    may_be_absent = getattr(cls, "_may_be_absent", ())
    fields = [(name, _plan(hints[name]), name in may_be_absent) for name in cls._fields]

    def decode(value: Any, path: str) -> Record:
        if type(value) is not dict:
            _unfit(value, "an object", path)
        # The class's cross-field rules in __post_init__ raise their own ValidationError.
        return cls(**{
            name: each(value.get(name, _MISSING), f"{path}.{name}")
            for name, each, optional in fields
            if not optional or name in value
        })

    return decode


def from_jsonable(cls: type[R], data: Any) -> R:
    """The ``cls`` record whose JSON form is ``data`` (see the module docstring).
    Raises ``ValidationError`` naming the path of the first field that does not
    fit (``records.band.trace[0] 1 is not a list of 2 items``) or is absent
    (``no 'records.band.time'``)."""
    return _decoder(cls)(data, "")
