"""Record types: value classes whose methods are shared, not generated.

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

Nothing is compiled per class: the methods are the same functions for
every record, driven by the field table built when the class is defined.
So defining a record costs microseconds, and importing this module loads
nothing beyond ``operator`` and ``enum``. ``replace`` and ``field_names`` stand in for
``dataclasses.replace`` and ``dataclasses.fields``.

A record's JSON form is its fields: ``to_jsonable`` makes a record an
object of its fields in declaration order, an enum its value, a set or
frozenset its sorted list, a tuple or list a list, and a dict a dict key
by key; anything else passes through. The archive's policy block, solver
records and combined sets are written this way, so adding a field to one
of those records adds it to the archive.
"""

from __future__ import annotations

from enum import Enum
from operator import attrgetter
from typing import Any, Callable, TypeVar

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


class Record:
    """Base of benchgen's record types; see the module docstring."""

    _fields: tuple[str, ...] = ()  # every field, in order
    _required = 0  # the first fields, which have no default
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
        cls._required = required
        cls._template = template
        cls._factories = factories
        cls._key = staticmethod(_getter(fields))
        if frozen:
            cls.__setattr__ = _frozen
            cls.__delattr__ = _frozen
            if "__hash__" not in cls.__dict__:
                cls.__hash__ = _hash

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        cls = type(self)
        fields = cls._fields
        values = cls._template.copy()
        if args:
            if len(args) > len(fields):
                raise TypeError(f"{cls.__name__}() takes {len(fields)} arguments but {len(args)} were given")
            if kwargs and not kwargs.keys().isdisjoint(fields[: len(args)]):
                twice = next(name for name in fields[: len(args)] if name in kwargs)
                raise TypeError(f"{cls.__name__}() got multiple values for argument {twice!r}")
            values.update(zip(fields, args))
        values.update(kwargs)
        if len(values) > len(fields):
            unknown = next(name for name in kwargs if name not in cls._template)
            raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {unknown!r}")
        if len(args) < cls._required:
            for name in fields[len(args) : cls._required]:
                if name not in kwargs:
                    raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
        for name, factory in cls._factories.items():
            if values[name] is _MISSING:
                values[name] = factory()
        object.__setattr__(self, "__dict__", values)
        self.__post_init__()

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
    for name in record._fields:
        if name not in changes:
            changes[name] = getattr(record, name)
    return type(record)(**changes)


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
