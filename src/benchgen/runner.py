"""Running solvers on candidate instances and classifying the outcome.

A SolverAdapter names either a builtin toy solver or an external command
template. Every run, the oracle's included, takes its memory cap, run
directory and limiter prefix from one ``EvaluationLimits``. An external
run keeps its files in a fresh ``run_*`` directory under
``EvaluationLimits.workdir``, or in a temporary directory removed when the
run ends. ``run_solver`` never raises; every failure becomes a record with
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

import sys
import time
from enum import Enum
from typing import Any, Mapping, Sequence

from .errors import CheckError, ParseError, ValidationError
from .problems import Problem
from .records import Record, field, replace
from .valuetext import format_values, values_from_jsonable, values_to_jsonable


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
                raise ValidationError(f"builtin solver {self.builtin!r}: latency expression: {err}") from None
            if not known:
                raise ValidationError(f"unknown builtin solver {self.builtin!r}")
        if self.command is not None:
            from .external import validate_command_template

            validate_command_template(self.command)


class SolverRecord(Record):
    """Outcome of one solver run on one instance."""

    solver: str
    status: Status
    time: float
    objective: int | None = None
    optimal_claimed: bool = False
    solution: dict[str, Any] | None = None
    time_to_best: float | None = None
    trace: list[tuple[float, int]] = field(default_factory=list)
    solution_ok: bool | None = None  # set by the checking step; None = unchecked
    note: str = ""

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "solver": self.solver,
            "status": self.status.value,
            "time": self.time,
            "objective": self.objective,
            "optimal_claimed": self.optimal_claimed,
            "solution": values_to_jsonable(self.solution),
            "time_to_best": self.time_to_best,
            "trace": [[t, o] for t, o in self.trace],
            "solution_ok": self.solution_ok,
            "note": self.note,
        }

    @classmethod
    def from_jsonable(cls, data: Mapping[str, Any]) -> "SolverRecord":
        return cls(
            solver=data["solver"],
            status=Status(data["status"]),
            time=data["time"],
            objective=data["objective"],
            optimal_claimed=data["optimal_claimed"],
            solution=values_from_jsonable(data["solution"]),
            time_to_best=data["time_to_best"],
            trace=[(t, o) for t, o in data["trace"]],
            solution_ok=data["solution_ok"],
            note=data.get("note", ""),
        )


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
        return SolverRecord(adapter.name, Status.TIMEOUT, 0.0, note="non-positive time limit")
    if adapter.builtin is not None:
        outcome = _runner.run_builtin(
            adapter.builtin, problem, instance_values, time_limit, seed, limits.mem_limit
        )
    else:
        assert adapter.command is not None
        from .external import run_dir

        try:
            with run_dir(limits.workdir) as directory:
                model_path = directory / "problem.model"
                instance_path = directory / "instance.inst"
                model_path.write_text(problem.describe())
                instance_path.write_text(format_values(dict(instance_values)))
                outcome = _runner.run_external_command(
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
            return SolverRecord(adapter.name, Status.ERROR, 0.0, note=f"run directory: {err}")
    return SolverRecord(
        solver=adapter.name,
        status=Status(outcome.status),
        time=outcome.time,
        objective=outcome.objective,
        optimal_claimed=outcome.optimal,
        solution=outcome.solution,
        trace=list(outcome.trace),
        note=outcome.note,
    )


def check_solution(
    problem: Problem, instance_values: Mapping[str, Any], solution: Mapping[str, Any]
) -> tuple[bool, int | None]:
    """Re-check a payload against the problem; returns (feasible, objective).

    The objective is recomputed independently of whatever the solver
    reported; callers compare the two and flag mismatches.
    """
    outcome = problem.check(instance_values, solution)
    return outcome.feasible, outcome.objective


def verify_record(
    problem: Problem, instance_values: Mapping[str, Any], record: SolverRecord
) -> SolverRecord:
    """Fill in ``solution_ok`` for a record that carries a payload."""
    if record.solution is None:
        return record
    try:
        feasible, objective = check_solution(problem, instance_values, record.solution)
    except CheckError as err:
        return replace(record, solution_ok=False, note=f"check failed: {err}")
    if not feasible:
        return replace(record, solution_ok=False, note="infeasible solution returned")
    if (
        problem.kind != "decision"
        and record.objective is not None
        and objective != record.objective
    ):
        return replace(
            record,
            solution_ok=False,
            note=f"objective mismatch: reported {record.objective}, recomputed {objective}",
        )
    return replace(record, solution_ok=True, objective=objective if problem.kind != "decision" else None)


def oracle_optimum(
    problem: Problem,
    instance_values: Mapping[str, Any],
    oracle: SolverAdapter,
    budget: float,
    limits: EvaluationLimits = EvaluationLimits(),
    seed: int = 0,
) -> OracleResult:
    """Establish the true optimum with a long-budget complete solver run."""
    if budget <= 0:
        return OracleResult(None, False, 0.0)
    start = time.monotonic()
    record = run_solver(oracle, problem, instance_values, budget, limits, seed)
    elapsed = time.monotonic() - start
    if record.status is Status.UNSAT:
        return OracleResult(None, True, elapsed, infeasible=True)
    if record.status is Status.SAT and record.optimal_claimed:
        record = verify_record(problem, instance_values, record)
        if record.solution_ok is False:
            return OracleResult(None, False, elapsed)
        return OracleResult(record.objective, True, elapsed)
    return OracleResult(record.objective, False, elapsed)


def measure_time_to_best(
    trace: Sequence[tuple[float, int]], optimum: int | None
) -> float | None:
    """Earliest trace timestamp whose objective equals the oracle optimum."""
    if optimum is None:
        return None
    for stamp, objective in trace:
        if objective == optimum:
            return stamp
    return None


def instance_type(record: SolverRecord) -> str | None:
    """SAT / UNSAT as witnessed by a record, None when undetermined."""
    if record.status is Status.SAT or (
        record.status is Status.TIMEOUT and record.solution is not None
    ):
        return "SAT"
    if record.status is Status.UNSAT:
        return "UNSAT"
    return None


def classify_run(
    generator_outcome: str,
    records: Sequence[SolverRecord],
    *,
    campaign: str,
    t_min: float,
    t_max: float,
    types: frozenset[str] | set[str] = frozenset(("SAT", "UNSAT")),
    scores: tuple[float, float] | None = None,
) -> RunStatus:
    """Total, deterministic mapping of one evaluation to a RunStatus.

    ``generator_outcome`` is the GenOutcome value string ("solution",
    "unsat", "translate_timeout", "solve_timeout"). For graded campaigns
    ``records`` holds the single solver record (already adjusted to its
    effective time for local search); for discriminating campaigns it is
    (favoured, base) and ``scores`` the already-computed pair scores.
    """
    del t_max
    if generator_outcome != "solution":
        return RunStatus.GENERATOR_UNSOLVED

    if campaign == "graded":
        (record,) = records
        kind = instance_type(record)
        if record.status is Status.ERROR or record.solution_ok is False:
            return RunStatus.OTHERS
        if record.status is Status.TIMEOUT:
            return RunStatus.TOO_DIFFICULT
        if record.time < t_min:
            return RunStatus.TOO_EASY_UNSAT if kind == "UNSAT" else RunStatus.TOO_EASY_SAT
        if kind is None or kind not in types:
            return RunStatus.OTHERS
        return RunStatus.GRADED

    favoured, base = records
    if favoured.status in (Status.TIMEOUT, Status.ERROR) or favoured.solution_ok is False:
        return RunStatus.FAVOURED_TIMEOUT
    kind = instance_type(favoured)
    if kind is None or kind not in types:
        return RunStatus.WRONG_TYPE
    if base.time < t_min:
        return RunStatus.BASE_TOO_EASY
    assert scores is not None, "discriminating classification needs the pair scores"
    score_f, score_b = scores
    if score_f > 0:
        return RunStatus.DIS_FOUND
    return RunStatus.ZERO_SCORES
