"""Tunable parameter spaces of instance generators and their sampling models.

A generator exposes a set of bounded integer parameters. The tuner explores
assignments to those parameters: uniformly at first, then from a sampling
model built around the surviving (elite) configurations of earlier races.
"""

from __future__ import annotations

import hashlib
import math
import re
from random import Random
from typing import Iterable, Mapping, Sequence

from .errors import ParseError, ValidationError
from .records import Record, field

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")
_ENTRY_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*:\s*(-?\d+)\s*\.\.\s*(-?\d+)\s*$")

# Spread schedule for the sampling model: multiplied in once per tuning
# iteration, never below one parameter unit.
SPREAD_DECAY = 0.8
SPREAD_FLOOR = 1.0


class ParameterSpec(Record, frozen=True):
    """One bounded integer parameter: ``lower`` and ``upper`` are inclusive."""

    name: str
    lower: int
    upper: int

    def __post_init__(self) -> None:
        if not _IDENT_RE.match(self.name):
            raise ValidationError(f"invalid parameter name: {self.name!r}")
        if self.lower > self.upper:
            raise ValidationError(
                f"parameter {self.name}: lower bound {self.lower} exceeds upper {self.upper}"
            )

    @property
    def width(self) -> int:
        return self.upper - self.lower + 1


class ParameterSpace(Record, frozen=True):
    """Ordered, non-empty collection of parameter specs with unique names."""

    params: tuple[ParameterSpec, ...]

    def __post_init__(self) -> None:
        if not self.params:
            raise ValidationError("parameter space must declare at least one parameter")
        seen: set[str] = set()
        for spec in self.params:
            if spec.name in seen:
                raise ValidationError(f"duplicate parameter name: {spec.name}")
            seen.add(spec.name)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params)

    def spec(self, name: str) -> ParameterSpec:
        for p in self.params:
            if p.name == name:
                return p
        raise KeyError(name)

    def __contains__(self, name: str) -> bool:
        return any(p.name == name for p in self.params)

    def to_text(self) -> str:
        return "\n".join(f"{p.name}: {p.lower}..{p.upper}" for p in self.params)


class GeneratorConfiguration(Record, frozen=True):
    """One concrete assignment to every parameter of a space.

    The id is a digest of the assignment, so configurations with identical
    parameter values share an identity (and therefore a solution history).
    """

    assignment: Mapping[str, int]
    id: str = ""

    def __post_init__(self) -> None:
        if not self.id:
            object.__setattr__(self, "id", config_id(self.assignment))

    def __getitem__(self, name: str) -> int:
        return self.assignment[name]


def config_id(assignment: Mapping[str, int]) -> str:
    body = ";".join(f"{k}={assignment[k]}" for k in sorted(assignment))
    return "g" + hashlib.sha1(body.encode()).hexdigest()[:10]


def make_configuration(space: ParameterSpace, assignment: Mapping[str, int]) -> GeneratorConfiguration:
    """Validate an assignment against the space and wrap it."""
    missing = [n for n in space.names if n not in assignment]
    if missing:
        raise ValidationError(f"assignment missing parameters: {missing}")
    extra = [n for n in assignment if n not in space]
    if extra:
        raise ValidationError(f"assignment has unknown parameters: {extra}")
    for spec in space.params:
        v = assignment[spec.name]
        if not (spec.lower <= v <= spec.upper):
            raise ValidationError(
                f"parameter {spec.name}={v} outside [{spec.lower}, {spec.upper}]"
            )
    return GeneratorConfiguration(assignment=dict(assignment))


class SamplingModel(Record, frozen=True):
    """Distribution used to sample configurations after the first race.

    ``centers`` holds the parameter vectors of the elites; each sampled
    configuration first picks one center uniformly, then draws every
    parameter from a clamped, discretised normal around that center with
    the per-parameter ``spread``.
    """

    centers: tuple[dict[str, int], ...]
    spread: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.centers:
            raise ValidationError("sampling model needs at least one center")
        for name, s in self.spread.items():
            if s <= 0:
                raise ValidationError(f"spread for {name} must be positive, got {s}")

    @classmethod
    def single(cls, center: Mapping[str, float], spread: Mapping[str, float]) -> "SamplingModel":
        """Convenience constructor for a one-center model (tests, probes)."""
        return cls(centers=({k: v for k, v in center.items()},), spread=dict(spread))


def parse_space(text: str) -> ParameterSpace:
    """Parse ``name: lower..upper`` entries separated by newlines or ``;``.

    Blank entries and ``#`` comments are ignored. Raises ParseError for
    malformed entries and ValidationError for duplicates or inverted bounds.
    """
    entries: list[ParameterSpec] = []
    for raw_line in text.splitlines() or [text]:
        line = raw_line.split("#", 1)[0]
        for chunk in line.split(";"):
            if not chunk.strip():
                continue
            m = _ENTRY_RE.match(chunk)
            if not m:
                raise ParseError(f"malformed parameter entry: {chunk.strip()!r}")
            name, lo, hi = m.group(1), int(m.group(2)), int(m.group(3))
            entries.append(ParameterSpec(name, lo, hi))
    if not entries:
        raise ParseError("parameter space text declares no parameters")
    return ParameterSpace(params=tuple(entries))


def sample_uniform(space: ParameterSpace, rng: Random) -> GeneratorConfiguration:
    """Sample each parameter independently and uniformly over its range."""
    assignment = {p.name: rng.randint(p.lower, p.upper) for p in space.params}
    return GeneratorConfiguration(assignment=assignment)


def _round_toward_center(x: float, center: float) -> int:
    lower = math.floor(x)
    frac = x - lower
    if frac > 0.5:
        return lower + 1
    if frac < 0.5:
        return lower
    # Tie: prefer the candidate nearer the center; below that, the lower one.
    return lower if abs(lower - center) <= abs(lower + 1 - center) else lower + 1


def sample_from_model(
    space: ParameterSpace, model: SamplingModel, rng: Random
) -> GeneratorConfiguration:
    """Sample a configuration from the model.

    One center (elite) is chosen uniformly per configuration; every parameter
    is then drawn from a normal around that center, clamped to the parameter
    range and rounded to the nearest integer (ties toward the center).
    """
    center = model.centers[rng.randrange(len(model.centers))]
    assignment: dict[str, int] = {}
    for spec in space.params:
        if spec.name not in center:
            raise ValidationError(f"sampling model has no center for parameter {spec.name}")
        mu = float(center[spec.name])
        sigma = model.spread.get(spec.name, SPREAD_FLOOR)
        draw = rng.gauss(mu, sigma)
        clamped = min(max(draw, float(spec.lower)), float(spec.upper))
        assignment[spec.name] = _round_toward_center(clamped, mu)
    return GeneratorConfiguration(assignment=assignment)


def initial_spread(space: ParameterSpace) -> dict[str, float]:
    """Starting spread per parameter: half the range, floored at one unit."""
    return {p.name: max((p.upper - p.lower) / 2.0, SPREAD_FLOOR) for p in space.params}


def update_sampling_model(
    model: SamplingModel | None,
    elites: Sequence[GeneratorConfiguration],
    *,
    space: ParameterSpace,
) -> SamplingModel:
    """Rebuild the model around the elites and decay the spread once.

    With no prior model the spread starts at half the parameter range (the
    decay is applied to it as this counts as one update).
    """
    if not elites:
        raise ValidationError("cannot update a sampling model from zero elites")
    spread = initial_spread(space) if model is None else model.spread
    new_spread = {name: max(s * SPREAD_DECAY, SPREAD_FLOOR) for name, s in spread.items()}
    centers = tuple(dict(e.assignment) for e in elites)
    return SamplingModel(centers=centers, spread=new_spread)


def dedupe_configurations(
    configs: Iterable[GeneratorConfiguration],
) -> list[GeneratorConfiguration]:
    seen: set[str] = set()
    out: list[GeneratorConfiguration] = []
    for c in configs:
        if c.id not in seen:
            seen.add(c.id)
            out.append(c)
    return out
