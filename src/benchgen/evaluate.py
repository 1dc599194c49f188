"""Penalty computation for one configuration evaluation.

Each evaluation is classified once, by ``runner.classify_run``; the
penalty the tuner minimises is a function of that status alone (plus the
pair scores and the generator outcome it names). Infeasible or
untranslatable generator configurations score plus infinity (immediate
discard), a generator search timeout scores 1, a graded instance -1, a
discriminating instance the negated ratio of the pair scores (a fixed
large-negative sentinel when the base solver scored zero), and every
other status 0.
"""

from __future__ import annotations

import math
from .errors import ValidationError
from .gensolve import (
    CandidateInstance,
    GenOutcome,
    SolutionHistory,
    record_solution,
    solve_generator,
)
from .model import GeneratorModel
from .problems import Problem
from .records import Record, field, replace
from .runner import (
    EvaluationLimits,
    OracleResult,
    RunStatus,
    SolverAdapter,
    SolverRecord,
    Status,
    classify_run,
    derive_seed,
    measure_time_to_best,
    oracle_optimum,
    run_solver,
    verify_record,
)
from .scoring import comparable_from_record, minizinc_score
from .space import GeneratorConfiguration

PLUS_INFINITY = math.inf
GENERATOR_TIMEOUT_PENALTY = 1.0
GRADED_PENALTY = -1.0
# Rank-based tuning only needs this to sit below every finite ratio.
LARGE_NEGATIVE = -1e6


def _check_band(t_min: float, t_max: float) -> None:
    if not (0 < t_min < t_max):
        raise ValidationError(f"need 0 < t_min < t_max, got {t_min}, {t_max}")


class GradedPolicy(Record, frozen=True):
    """Band-of-difficulty acceptance for a single solver."""

    problem: Problem
    solver: SolverAdapter
    t_min: float
    t_max: float
    types: frozenset[str] = frozenset({"SAT", "UNSAT"})
    oracle: SolverAdapter | None = None
    oracle_budget: float | None = None  # defaults to 3 * t_max

    def __post_init__(self) -> None:
        _check_band(self.t_min, self.t_max)
        if not self.types:
            raise ValidationError("types must be non-empty")
        if (
            self.solver.kind == "local_search"
            and self.problem.kind != "decision"
            and self.oracle is None
        ):
            raise ValidationError(
                "a local-search solver on an optimisation problem needs an oracle adapter"
            )
        if self.oracle is not None and self.oracle.kind != "complete":
            raise ValidationError("the oracle must be a complete solver")

    @property
    def effective_oracle_budget(self) -> float:
        return self.oracle_budget if self.oracle_budget is not None else 3 * self.t_max


class DiscriminatingPolicy(Record, frozen=True):
    """Favoured solver should excel where the base solver struggles."""

    problem: Problem
    favoured: SolverAdapter
    base: SolverAdapter
    t_min: float  # applies to the base solver only
    t_max: float
    types: frozenset[str] = frozenset({"SAT", "UNSAT"})

    def __post_init__(self) -> None:
        _check_band(self.t_min, self.t_max)
        if not self.types:
            raise ValidationError("types must be non-empty")
        if self.favoured.name == self.base.name:
            raise ValidationError("favoured and base solvers must differ")


Policy = GradedPolicy | DiscriminatingPolicy


class EvaluationResult(Record):
    penalty: float
    status: RunStatus
    generator_outcome: GenOutcome
    instance: CandidateInstance | None = None
    records: dict[str, SolverRecord] = field(default_factory=dict)
    scores: tuple[float, float] | None = None
    oracle: OracleResult | None = None

    @property
    def instance_id(self) -> str | None:
        return self.instance.id if self.instance is not None else None


def generator_penalty(outcome: GenOutcome) -> float | None:
    """Penalty owed to the tuner by the generator outcome alone.

    Infeasible or untranslatable configurations are discarded immediately
    (plus infinity), a search timeout scores 1, and a solution defers to
    the policy (None).
    """
    if outcome in (GenOutcome.UNSAT, GenOutcome.TRANSLATE_TIMEOUT):
        return PLUS_INFINITY
    if outcome is GenOutcome.SOLVE_TIMEOUT:
        return GENERATOR_TIMEOUT_PENALTY
    return None


def effective_graded_record(record: SolverRecord, oracle: OracleResult) -> SolverRecord:
    """Rewrite a local-search record so its time is the time-to-optimum.

    Without a proven optimum (or when it was never reached) the run counts
    as a timeout: gradedness cannot be established for a solver that
    cannot prove completion.
    """
    if record.status in (Status.ERROR,) or record.solution_ok is False:
        return record
    if not oracle.proved or oracle.infeasible:
        return replace(record, status=Status.TIMEOUT)
    ttb = measure_time_to_best(record.trace, oracle.optimum)
    if ttb is None:
        return replace(record, status=Status.TIMEOUT)
    return replace(
        record,
        status=Status.SAT,
        time=ttb,
        time_to_best=ttb,
        objective=oracle.optimum,
    )


def status_penalty(
    status: RunStatus,
    scores: tuple[float, float] | None = None,
    outcome: GenOutcome = GenOutcome.SOLUTION,
) -> float:
    """The penalty owed for a classified evaluation.

    ``scores`` are the discriminating pair scores (needed for ``dis-found``)
    and ``outcome`` the generator outcome (needed for ``generator-unsolved``).
    """
    if status is RunStatus.GENERATOR_UNSOLVED:
        penalty = generator_penalty(outcome)
        assert penalty is not None, "generator-unsolved needs a failed generator outcome"
        return penalty
    if status is RunStatus.GRADED:
        return GRADED_PENALTY
    if status is RunStatus.DIS_FOUND:
        assert scores is not None, "dis-found needs the pair scores"
        score_f, score_b = scores
        return LARGE_NEGATIVE if score_b == 0.0 else -score_f / score_b
    return 0.0


def _classify(
    policy: Policy, records: list[SolverRecord], scores: tuple[float, float] | None = None
) -> RunStatus:
    """Status of a generated instance from the policy's solver records."""
    return classify_run(
        GenOutcome.SOLUTION.value,
        records,
        campaign="graded" if isinstance(policy, GradedPolicy) else "discriminating",
        t_min=policy.t_min,
        t_max=policy.t_max,
        types=policy.types,
        scores=scores,
    )


def graded_penalty(record: SolverRecord, policy: GradedPolicy) -> float:
    """Penalty of the (effective) record: -1 when graded, else 0."""
    return status_penalty(_classify(policy, [record]))


def discriminating_scores(
    favoured: SolverRecord, base: SolverRecord, problem_kind: str
) -> tuple[float, float]:
    pair = minizinc_score(
        comparable_from_record(favoured, problem_kind),
        comparable_from_record(base, problem_kind),
    )
    return pair.score_a, pair.score_b


def discriminating_penalty(
    favoured: SolverRecord, base: SolverRecord, policy: DiscriminatingPolicy
) -> float:
    """Penalty of the pair: the negated score ratio when dis-found, else 0."""
    scores = discriminating_scores(favoured, base, policy.problem.kind)
    return status_penalty(_classify(policy, [favoured, base], scores), scores)


def evaluate_configuration(
    model: GeneratorModel,
    config: GeneratorConfiguration,
    history: SolutionHistory,
    policy: Policy,
    limits: EvaluationLimits = EvaluationLimits(),
    seed: int = 0,
) -> EvaluationResult:
    """One full evaluation: generate an instance, run the policy, score it.

    All failures map to penalties and statuses; nothing raises. The fresh
    instance (when one exists) is recorded into the history before any
    solver runs, so a later evaluation of the same configuration cannot
    regenerate it.
    """
    gen = solve_generator(model, config, history, limits.translate_limit, limits.solve_limit)
    if gen.outcome is not GenOutcome.SOLUTION:
        unsolved = RunStatus.GENERATOR_UNSOLVED
        return EvaluationResult(status_penalty(unsolved, outcome=gen.outcome), unsolved, gen.outcome)
    instance = gen.instance
    assert instance is not None
    record_solution(history, config.id, instance)

    if isinstance(policy, GradedPolicy):
        return _evaluate_graded(instance, policy, limits, seed, gen.outcome)
    return _evaluate_discriminating(instance, policy, limits, seed, gen.outcome)


def _run_and_verify(
    adapter: SolverAdapter,
    problem: Problem,
    instance: CandidateInstance,
    time_limit: float,
    limits: EvaluationLimits,
    seed: int,
) -> SolverRecord:
    record = run_solver(adapter, problem, instance.values, time_limit, limits, seed)
    return verify_record(problem, instance.values, record)


def _evaluate_graded(
    instance: CandidateInstance,
    policy: GradedPolicy,
    limits: EvaluationLimits,
    seed: int,
    outcome: GenOutcome,
) -> EvaluationResult:
    run_seed = derive_seed(seed, instance.id, policy.solver.name)
    record = _run_and_verify(
        policy.solver, policy.problem, instance, policy.t_max, limits, run_seed
    )
    oracle_result: OracleResult | None = None
    effective = record
    if policy.solver.kind == "local_search" and policy.problem.kind != "decision":
        assert policy.oracle is not None
        oracle_result = oracle_optimum(
            policy.problem,
            instance.values,
            policy.oracle,
            policy.effective_oracle_budget,
            limits,
            derive_seed(seed, instance.id, "oracle"),
        )
        effective = effective_graded_record(record, oracle_result)
    status = _classify(policy, [effective])
    return EvaluationResult(
        status_penalty(status),
        status,
        outcome,
        instance=instance,
        records={policy.solver.name: effective},
        oracle=oracle_result,
    )


def _evaluate_discriminating(
    instance: CandidateInstance,
    policy: DiscriminatingPolicy,
    limits: EvaluationLimits,
    seed: int,
    outcome: GenOutcome,
) -> EvaluationResult:
    favoured = _run_and_verify(
        policy.favoured,
        policy.problem,
        instance,
        policy.t_max,
        limits,
        derive_seed(seed, instance.id, policy.favoured.name),
    )
    base = _run_and_verify(
        policy.base,
        policy.problem,
        instance,
        policy.t_max,
        limits,
        derive_seed(seed, instance.id, policy.base.name),
    )
    scores = discriminating_scores(favoured, base, policy.problem.kind)
    status = _classify(policy, [favoured, base], scores)
    return EvaluationResult(
        status_penalty(status, scores),
        status,
        outcome,
        instance=instance,
        records={policy.favoured.name: favoured, policy.base.name: base},
        scores=scores,
    )
