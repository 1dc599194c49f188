"""Built-in toy problems used for desk-scale campaigns and tests.

The family is bounded knapsack: instances carry ``weight``, ``value`` and
``capacity`` (optionally per-item ``copies``, default one). The
optimisation variant maximises total value; the decision variant asks for
a selection of value at least ``target`` and can therefore be infeasible.
"""

from __future__ import annotations

from typing import Any, Mapping

from .errors import CheckError
from .records import Record
from .valuetext import is_int, quoted

MAX_ITEMS = 20


class CheckOutcome(Record, frozen=True):
    feasible: bool
    objective: int | None


class KnapsackData(Record, frozen=True):
    weight: list[int]
    value: list[int]
    copies: list[int]
    capacity: int

    @property
    def n_items(self) -> int:
        return len(self.weight)


def _as_int_list(v: Any, name: str) -> list[int]:
    if not isinstance(v, list) or not all(is_int(e) for e in v):
        raise CheckError(f"{name} must be an integer array")
    return v


def parse_knapsack(instance: Mapping[str, Any]) -> KnapsackData:
    try:
        weight = _as_int_list(instance["weight"], "weight")
        value = _as_int_list(instance["value"], "value")
        capacity = instance["capacity"]
    except KeyError as err:
        raise CheckError(f"instance missing field {err.args[0]!r}") from err
    if not is_int(capacity):
        raise CheckError("capacity must be an integer")
    if len(weight) != len(value):
        raise CheckError("weight and value arrays differ in length")
    if "n_items" in instance and instance["n_items"] != len(weight):
        raise CheckError("n_items does not match array length")
    if len(weight) > MAX_ITEMS:
        raise CheckError(f"toy knapsack supports at most {MAX_ITEMS} items")
    if any(w < 0 for w in weight) or any(v < 0 for v in value) or capacity < 0:
        raise CheckError("weights, values and capacity must be non-negative")
    copies = instance.get("copies", [1] * len(weight))
    copies = _as_int_list(copies, "copies")
    if len(copies) != len(weight) or any(c < 0 for c in copies):
        raise CheckError("copies must be a non-negative array matching the items")
    return KnapsackData(weight=weight, value=value, copies=copies, capacity=capacity)


class Problem:
    """Base interface for a checkable problem model."""

    name: str = ""
    kind: str = "maximise"  # "minimise" | "maximise" | "decision"

    def check(self, instance: Mapping[str, Any], solution: Mapping[str, Any]) -> CheckOutcome:
        raise NotImplementedError

    def trivial_solution(
        self, instance: Mapping[str, Any]
    ) -> tuple[dict[str, Any], int | None] | None:
        """A cheaply constructed feasible payload, if one is guaranteed."""
        return None

    def describe(self) -> str:
        return f"problem = {self.name}\nkind = {self.kind}\n"


def _take_of(data: KnapsackData, solution: Mapping[str, Any]) -> list[int]:
    try:
        take = _as_int_list(solution["take"], "take")
    except KeyError as err:
        raise CheckError("solution missing field 'take'") from err
    if len(take) != data.n_items:
        raise CheckError("take array does not match item count")
    return take


class KnapsackProblem(Problem):
    """Kind ``maximise`` maximises total value; kind ``decision`` asks for a
    selection of value at least the instance's ``target``."""

    def __init__(self, name: str, kind: str):
        self.name = name
        self.kind = kind

    def check(self, instance: Mapping[str, Any], solution: Mapping[str, Any]) -> CheckOutcome:
        data = parse_knapsack(instance)
        decision = self.kind == "decision"
        target = instance.get("target")
        if decision and not is_int(target):
            raise CheckError("decision instance needs an integer 'target'")
        take = _take_of(data, solution)
        if any(t < 0 or t > c for t, c in zip(take, data.copies)):
            return CheckOutcome(False, None)
        total_weight = sum(t * w for t, w in zip(take, data.weight))
        total_value = sum(t * v for t, v in zip(take, data.value))
        if total_weight > data.capacity or (decision and total_value < target):
            return CheckOutcome(False, None)
        return CheckOutcome(True, None if decision else total_value)

    def trivial_solution(self, instance: Mapping[str, Any]):
        if self.kind == "decision":
            return None  # taking nothing may fall short of the target
        data = parse_knapsack(instance)
        return {"take": [0] * data.n_items}, 0


PROBLEMS: dict[str, Problem] = {
    p.name: p
    for p in (KnapsackProblem("knapsack", "maximise"), KnapsackProblem("knapsack_decision", "decision"))
}


def get_problem(name: str) -> Problem:
    try:
        return PROBLEMS[name]
    except KeyError:
        raise CheckError(f"unknown problem {quoted(name)}; known: {sorted(PROBLEMS)}") from None
