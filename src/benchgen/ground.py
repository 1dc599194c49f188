"""Grounding of an instantiated generator model into a finite-domain CSP.

Each decision variable is declared once (``_declare``): it takes a run of
slots of the assignment vector, with their domains, and a term that reads
them. An integer takes one slot, an array one per element, and a set one
0/1 membership slot per universe element (ascending, so value-order
search tries the empty set first). Each model constraint is compiled
(``expressions``), once per grounding, to one predicate over the
assignment vector that says whether the assignment refutes it, with each
name resolved when the predicate is built (a parameter to a constant
interval, a decision variable to its term), so the search pays only for
interval arithmetic. The predicate is a check of each slot the constraint
reads; a constraint that reads no slot is decided once, at the root
(``GroundedCsp.refuted``). While the constraint's scope is incomplete the
predicate is best effort: it refutes only what the interval bounds rule
out, and a conjunct it cannot bound refutes nothing. Once the last slot
of the scope is assigned every bound is a point and the verdict is exact:
a conjunct that still cannot be bounded (an index out of range or not an
integer, a division by zero, arithmetic on a comparison) counts as
violated, as it does in ``check_assignment``. A solution is decoded
through the same terms: on a full assignment an int cell reads ``(v, v)``
and a set cell reads its members exactly; ``encode`` is its inverse.
"""

from __future__ import annotations

import time
from typing import Any, Mapping, Sequence

from .csp import GroundedCsp, Refuter
from .expressions import Interval, Reader, _constant, _refuter, _SetBounds, _Term, names_in
from .model import GeneratorModel, InstantiatedVar, instantiate
from .space import GeneratorConfiguration


class TranslateTimeout(Exception):
    """Grounding exceeded its deadline or the flattening size cap."""


# Instantiations bigger than this never finish in the micro solver anyway;
# treating them as a translation failure mirrors the discard-immediately
# penalty for configurations too large to go through the pipeline.
MAX_CSP_CELLS = 2_000_000


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


def _declare(iv: InstantiatedVar, start: int) -> tuple[list[tuple[int, ...]], _Term]:
    """The domains of one decision variable's slots, the first at ``start``,
    and the term that reads them."""
    universe = range(iv.lower, iv.upper + 1)
    count = 1 if iv.length is None else iv.length
    if iv.kind == "int":
        items = tuple(_cell(start + i, iv.lower, iv.upper) for i in range(count))
        domains = [tuple(universe)] * count
        kind, cells = "num", (range(start, start + count), iv.lower, iv.upper)
    else:
        width = len(universe)
        items = tuple(_set_cell(start + i * width, universe) for i in range(count))
        domains = [(0, 1)] * (width * count)
        kind, cells = "set", None
    if iv.length is None:
        return domains, _Term(kind, items[0])
    return domains, _Term(kind + "[]", items=items, cells=cells)


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

    terms = {name: _constant(v) for name, v in config.assignment.items()}
    slots: dict[str, range] = {}
    domains: list[tuple[int, ...]] = []
    cells = 0
    for iv in instantiated:
        check_deadline()
        width = max(iv.upper - iv.lower + 1, 0)
        cells += (width if iv.kind == "int" else 2 * width) * (1 if iv.length is None else iv.length)
        if cells > MAX_CSP_CELLS:  # checked before this variable's domains are built
            raise TranslateTimeout
        declared, terms[iv.name] = _declare(iv, len(domains))
        slots[iv.name] = range(len(domains), len(domains) + len(declared))
        domains += declared

    checks: list[list[Refuter]] = [[] for _ in domains]
    refuted = False
    for cexpr in model.constraints:
        check_deadline()
        scope = sorted(i for name in names_in(cexpr) if name in slots for i in slots[name])
        refutes = _refuter(cexpr, terms.__getitem__, scope[-1] if scope else None)
        for i in scope:
            checks[i].append(refutes)
        refuted = refuted or (not scope and refutes([None] * len(domains)))

    decisions = [(iv, terms[iv.name]) for iv in instantiated]

    def decode(x: Sequence[int | None]) -> dict[str, Any]:
        def value(read: Reader, kind: str) -> Any:
            bounds = read(x)
            return bounds[0] if kind == "int" else set(bounds[1])

        return {
            iv.name: value(term.read, iv.kind)
            if iv.length is None
            else [value(r, iv.kind) for r in term.items]
            for iv, term in decisions
        }

    def encode(values: Mapping[str, Any]) -> list:
        x = []
        for iv in instantiated:
            cells = [values[iv.name]] if iv.length is None else values[iv.name]
            x += cells if iv.kind == "int" else [int(u in c) for c in cells for u in range(iv.lower, iv.upper + 1)]
        if decode(x) != {iv.name: values[iv.name] for iv in instantiated}:
            raise ValueError("the values do not fit the shapes of the decision variables")
        return x

    return GroundedCsp(domains, checks, refuted, decode, encode)
