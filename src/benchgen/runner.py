"""Running solvers on candidate instances, and the statuses of a run.

A SolverAdapter names either a builtin toy solver or an external command
template. Every run, the oracle's included, takes its memory cap, run
directory and limiter prefix from one ``EvaluationLimits``. An external
run keeps its files in a fresh ``run_*`` directory under
``EvaluationLimits.workdir``, or in a temporary directory removed when the
run ends. ``run_solver`` returns the ``SolverRecord`` that the builtin
solver or the external runner built, and that record is what is verified,
scored and archived. It never raises; every failure becomes a record with
an error status so campaign loops stay total.

Records, statuses and checks are needed by every command, solvers only by
those that run one. So the builtin solvers (``solvers``, with the
expression language) load when a builtin adapter is first validated or
run, and the external runner (``external``, with ``subprocess``) when a
command adapter is. ``run_builtin`` and ``run_external_command`` resolve
as attributes of this module on first access, and ``run_solver`` calls
them through the module, so a wrapper set on ``benchgen.runner`` sees
every run.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from typing import Annotated, Any, Mapping

from .errors import CheckError, ParseError, ValidationError
from .problems import Problem
from .records import Record, field, replace, to_jsonable
from .valuetext import format_values, quoted, values_from_jsonable, values_to_jsonable


def __getattr__(name: str):
    if name == "run_builtin":
        from .solvers import run_builtin as value
    elif name == "run_external_command":
        from .external import run_external_command as value
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


_runner = sys.modules[__name__]  # run_solver calls the back ends through this


class Status(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    TIMEOUT = "timeout"
    ERROR = "error"


class RunStatus(Enum):
    """Per-evaluation classification used in campaign reports."""

    GENERATOR_UNSOLVED = "generator-unsolved"
    GRADED = "graded"
    TOO_DIFFICULT = "too-difficult"
    TOO_EASY_SAT = "too-easy-SAT"
    TOO_EASY_UNSAT = "too-easy-UNSAT"
    OTHERS = "others"
    DIS_FOUND = "dis-found"
    WRONG_TYPE = "wrong-type"
    BASE_TOO_EASY = "base-too-easy"
    FAVOURED_TIMEOUT = "favoured-timeout"
    ZERO_SCORES = "zero-scores"


class GenOutcome(Enum):
    SOLUTION = "solution"
    UNSAT = "unsat"
    TRANSLATE_TIMEOUT = "translate_timeout"
    SOLVE_TIMEOUT = "solve_timeout"
    ILL_DEFINED = "ill_defined"  # a shape or bound undefined for the configuration


class EvaluationLimits(Record, frozen=True):
    """Resource limits shared by every solver run of a campaign or evaluation.

    ``mem_limit`` caps every run in bytes (None: no cap). ``workdir`` is
    where external runs keep their files (None: a temporary directory per
    run). ``limiter_prefix`` replaces ``external.MEM_LIMITER`` as the
    command prefix that applies the cap to external runs.
    """

    translate_limit: float = 300.0
    solve_limit: float = 600.0
    mem_limit: int | None = 8 * 1024**3
    workdir: str | None = None
    limiter_prefix: str | None = None

    def __post_init__(self) -> None:
        for name in ("translate_limit", "solve_limit"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValidationError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if self.mem_limit is not None and self.mem_limit <= 0:
            raise ValidationError(f"memory limit must be positive, got {self.mem_limit}")


class SolverAdapter(Record, frozen=True):
    """A named solver: builtin toy solver id or external command template."""

    name: str
    kind: str = "complete"  # "complete" | "local_search"
    builtin: str | None = None
    command: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("complete", "local_search"):
            raise ValidationError(f"unknown solver kind {self.kind!r}")
        if (self.builtin is None) == (self.command is None):
            raise ValidationError("adapter needs exactly one of builtin id or command template")
        if self.builtin is not None:
            from .solvers import builtin_exists

            try:
                known = builtin_exists(self.builtin)
            except ParseError as err:
                raise ValidationError(
                    f"builtin solver {quoted(self.builtin)}: latency expression: {err}"
                ) from None
            if not known:
                raise ValidationError(f"unknown builtin solver {quoted(self.builtin)}")
        if self.command is not None:
            from .external import validate_command_template

            validate_command_template(self.command)


class SolverRecord(Record):
    """Outcome of one solver run on one instance.

    The builtin solvers and the external runner build it; ``verify_record``
    sets ``solution_ok``. It does not name its solver: its holders key it by
    that name, and ``to_jsonable`` writes the name into the archive form as
    its first key, which ``records.from_jsonable`` ignores.
    """

    status: Status
    time: float
    objective: int | None = None
    optimal_claimed: bool = False
    solution: Annotated[dict[str, Any], values_from_jsonable] | None = None
    time_to_best: float | None = None
    trace: list[tuple[float, int]] = field(default_factory=list)
    solution_ok: bool | None = None  # set by the checking step; None = unchecked
    note: str = ""
    _may_be_absent = ("note",)  # archives written before there was a note

    def to_jsonable(self, solver: str) -> dict[str, Any]:
        fields = {"solver": solver, **vars(self)}  # its vars are its fields, in order
        return {k: values_to_jsonable(v) if k == "solution" else to_jsonable(v) for k, v in fields.items()}


class OracleResult(Record, frozen=True):
    """Optimum established by a long-budget complete solver run."""

    optimum: int | None
    proved: bool
    time: float
    infeasible: bool = False


def derive_seed(*parts: Any) -> int:
    """Stable 63-bit seed from arbitrary labelled parts."""
    import hashlib  # here, so commands that never derive a seed skip OpenSSL's set-up

    text = "|".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1


def run_solver(
    adapter: SolverAdapter,
    problem: Problem,
    instance_values: Mapping[str, Any],
    time_limit: float,
    limits: EvaluationLimits = EvaluationLimits(),
    seed: int = 0,
) -> SolverRecord:
    """Run one solver on one instance under a wall-clock limit and ``limits``."""
    if time_limit <= 0:
        return SolverRecord(Status.TIMEOUT, 0.0, note="non-positive time limit")
    if adapter.builtin is not None:
        return _runner.run_builtin(
            adapter.builtin, problem, instance_values, time_limit, seed, limits.mem_limit
        )
    assert adapter.command is not None
    from .external import run_dir

    try:
        with run_dir(limits.workdir) as directory:
            model_path = directory / "problem.model"
            instance_path = directory / "instance.inst"
            model_path.write_text(problem.describe())
            instance_path.write_text(format_values(dict(instance_values)))
            return _runner.run_external_command(
                adapter.command,
                str(model_path),
                str(instance_path),
                time_limit,
                seed=seed,
                mem_limit=limits.mem_limit,
                limiter_prefix=limits.limiter_prefix,
                log_path=directory / "run.log",
            )
    except OSError as err:
        # run_external_command reports its own OSErrors, so this one came
        # from making the directory or writing its two files; it names the path.
        return SolverRecord(Status.ERROR, 0.0, note=f"run directory: {err}")


def verify_record(
    problem: Problem, instance_values: Mapping[str, Any], record: SolverRecord
) -> SolverRecord:
    """Fill in ``solution_ok`` for a record that carries a payload."""
    if record.solution is None:
        return record
    try:
        outcome = problem.check(instance_values, record.solution)
    except CheckError as err:
        return replace(record, solution_ok=False, note=f"check failed: {err}")
    if not outcome.feasible:
        return replace(record, solution_ok=False, note="infeasible solution returned")
    if (
        problem.kind != "decision"
        and record.objective is not None
        and outcome.objective != record.objective
    ):
        return replace(
            record,
            solution_ok=False,
            note=f"objective mismatch: reported {record.objective}, recomputed {outcome.objective}",
        )
    objective = outcome.objective if problem.kind != "decision" else None
    return replace(record, solution_ok=True, objective=objective)

