"""Grounding of an instantiated generator model into a finite-domain CSP.

Integer variables become one CSP variable each, arrays one per element,
and sets one 0/1 membership variable per universe element (ascending, so
value-order search tries the empty set first). Each model constraint is
compiled (``expressions``), once per grounding, to one predicate over the
assignment vector that says whether the assignment refutes it. Each name
is resolved when the predicate is built (a parameter to a constant
interval, a decision variable to a reader of its slots), so the search
pays only for interval arithmetic. While the constraint's scope is
incomplete the predicate is best effort: it refutes only what the
interval bounds rule out, and a conjunct it cannot bound refutes
nothing. Once the last slot of the scope is assigned every bound is a
point and the verdict is exact: a conjunct that still cannot be bounded
(an index out of range or not an integer, a division by zero, arithmetic
on a comparison) counts as violated, as it does in ``check_assignment``.
"""

from __future__ import annotations

import time
from typing import Any, Mapping, Sequence

from .csp import CspConstraint, CspVariable, GroundedCsp
from .expressions import Interval, Reader, _constant, _refuter, _SetBounds, _Term, names_in
from .model import GeneratorModel, InstantiatedVar, instantiate
from .records import Record
from .space import GeneratorConfiguration


class TranslateTimeout(Exception):
    """Grounding exceeded its deadline or the flattening size cap."""


# Instantiations bigger than this never finish in the micro solver anyway;
# treating them as a translation failure mirrors the discard-immediately
# penalty for configurations too large to go through the pipeline.
MAX_CSP_CELLS = 2_000_000


class _Layout(Record, frozen=True):
    iv: InstantiatedVar
    start: int
    count: int

    @property
    def universe(self) -> range:
        return range(self.iv.lower, self.iv.upper + 1)


def _value_env(layouts: Sequence[_Layout], assignment: Sequence[int | None]) -> dict[str, Any]:
    """The decision values of a full assignment, by variable name."""
    env: dict[str, Any] = {}
    for lay in layouts:
        iv = lay.iv
        if iv.kind == "int":
            cells = list(assignment[lay.start : lay.start + lay.count])
        else:
            width = len(lay.universe)
            offsets = [lay.start + i * width for i in range(1 if iv.length is None else iv.length)]
            cells = [
                {u for u, bit in zip(lay.universe, assignment[o : o + width]) if bit == 1}
                for o in offsets
            ]
        env[iv.name] = cells[0] if iv.length is None else cells
    return env


def _cell(index: int, lo: int, hi: int) -> Reader:
    unset = (lo, hi)

    def read(x: Sequence[int | None]) -> Interval:
        v = x[index]
        return unset if v is None else (v, v)

    return read


def _set_cell(offset: int, universe: range) -> Reader:
    end = offset + len(universe)

    def read(x: Sequence[int | None]) -> _SetBounds:
        bits = x[offset:end]  # 1 member, 0 not, None open
        return bits.count(1), [u for u, bit in zip(universe, bits) if bit != 0]

    return read


def _terms(params: Mapping[str, int], layouts: Sequence[_Layout]) -> dict[str, _Term]:
    """What each name reads: a parameter is a constant interval, a decision
    variable reads its slots of the assignment vector."""
    terms = {name: _constant(v) for name, v in params.items()}
    for lay in layouts:
        iv = lay.iv
        if iv.kind == "int":
            if iv.length is None:
                terms[iv.name] = _Term("num", _cell(lay.start, iv.lower, iv.upper))
            else:
                slots = range(lay.start, lay.start + iv.length)
                terms[iv.name] = _Term(
                    "num[]",
                    items=tuple(_cell(i, iv.lower, iv.upper) for i in slots),
                    cells=(slots, iv.lower, iv.upper),
                )
        elif iv.length is None:
            terms[iv.name] = _Term("set", _set_cell(lay.start, lay.universe))
        else:
            width = len(lay.universe)
            terms[iv.name] = _Term(
                "set[]",
                items=tuple(
                    _set_cell(lay.start + i * width, lay.universe) for i in range(iv.length)
                ),
            )
    return terms


def ground(
    model: GeneratorModel,
    config: GeneratorConfiguration,
    deadline: float | None = None,
) -> GroundedCsp:
    """Flatten the model for one configuration into a GroundedCsp.

    Raises ModelError for ill-defined shapes and TranslateTimeout when the
    monotonic ``deadline`` passes during grounding or the flattened size
    exceeds ``MAX_CSP_CELLS`` domain cells.
    """

    def check_deadline() -> None:
        if deadline is not None and time.monotonic() >= deadline:
            raise TranslateTimeout

    check_deadline()
    instantiated = instantiate(model, config)
    params = dict(config.assignment)

    total_cells = 0
    for iv in instantiated:
        width = max(iv.upper - iv.lower + 1, 0)
        count = iv.length if iv.length is not None else 1
        total_cells += (width if iv.kind == "int" else 2 * width) * count
        if total_cells > MAX_CSP_CELLS:
            raise TranslateTimeout

    layouts: list[_Layout] = []
    variables: list[CspVariable] = []
    for iv in instantiated:
        check_deadline()
        start = len(variables)
        if iv.kind == "int":
            domain = tuple(range(iv.lower, iv.upper + 1))
            count = iv.length if iv.length is not None else 1
            if iv.length is None:
                variables.append(CspVariable(iv.name, domain))
            else:
                for i in range(iv.length):
                    variables.append(CspVariable(f"{iv.name}[{i + 1}]", domain))
        else:
            universe = list(range(iv.lower, iv.upper + 1))
            width = len(universe)
            count = width * (iv.length if iv.length is not None else 1)
            if iv.length is None:
                for u in universe:
                    variables.append(CspVariable(f"{iv.name}{{{u}}}", (0, 1)))
            else:
                for i in range(iv.length):
                    for u in universe:
                        variables.append(CspVariable(f"{iv.name}[{i + 1}]{{{u}}}", (0, 1)))
        layouts.append(_Layout(iv, start, count))

    by_name = {lay.iv.name: lay for lay in layouts}
    lookup = _terms(params, layouts).__getitem__

    constraints: list[CspConstraint] = []
    for cexpr in model.constraints:
        check_deadline()
        referenced = [by_name[n] for n in sorted(names_in(cexpr)) if n in by_name]
        scope = tuple(
            sorted(idx for lay in referenced for idx in range(lay.start, lay.start + lay.count))
        )
        constraints.append(
            CspConstraint(scope, _refuter(cexpr, lookup, scope[-1] if scope else None))
        )

    def decode(assignment: Sequence[int | None]) -> dict[str, Any]:
        return _value_env(layouts, assignment)

    return GroundedCsp(
        variables=variables,
        constraints=constraints,
        decode=decode,
    )
