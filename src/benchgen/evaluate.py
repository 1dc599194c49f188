"""Classification and penalty of one configuration evaluation.

An evaluation whose generator yields no instance is ``generator-unsolved``;
otherwise its policy's ``evaluate`` runs the policy's solvers on the
instance and its ``classify`` gives the status. ``status_penalty``
derives the penalty the tuner minimises from that status alone (plus the
pair scores and the generator outcome): infeasible or untranslatable
generator configurations, and those whose shapes or bounds the model
leaves ill-defined, score plus infinity (immediate discard), a
generator search timeout 1, a graded instance -1, a discriminating instance
the negated ratio of the pair scores (a fixed large-negative sentinel when
the base solver scored zero), and every other status 0.

On an optimisation problem a local-search run's time is its time to reach
the optimum that a complete solver, the oracle, proved.
"""

from __future__ import annotations

import math
from typing import Any, Mapping

from .errors import ValidationError
from .gensolve import CandidateInstance, SolutionHistory, solve_generator
from .model import GeneratorModel
from .problems import Problem
from .records import Record, field, replace
from .runner import (
    EvaluationLimits,
    GenOutcome,
    OracleResult,
    RunStatus,
    SolverAdapter,
    SolverRecord,
    Status,
    derive_seed,
    run_solver,
    verify_record,
)
from .scoring import pair_score
from .space import GeneratorConfiguration

PLUS_INFINITY = math.inf
GENERATOR_TIMEOUT_PENALTY = 1.0
GRADED_PENALTY = -1.0
# Rank-based tuning only needs this to sit below every finite ratio.
LARGE_NEGATIVE = -1e6


def _check_policy(policy: Policy) -> None:
    if not (0 < policy.t_min < policy.t_max < math.inf):
        raise ValidationError(f"need 0 < t_min < t_max < inf, got {policy.t_min}, {policy.t_max}")
    if not policy.types:
        raise ValidationError("types must be non-empty")


class GradedPolicy(Record, frozen=True):
    """Band-of-difficulty acceptance for a single solver."""

    campaign = "graded"  # a class constant, not a field

    problem: Problem
    solver: SolverAdapter
    t_min: float
    t_max: float
    types: frozenset[str] = frozenset({"SAT", "UNSAT"})
    oracle: SolverAdapter | None = None
    oracle_budget: float | None = None  # defaults to 3 * t_max

    def __post_init__(self) -> None:
        _check_policy(self)
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
        if self.oracle_budget is not None and not 0 < self.oracle_budget < math.inf:
            raise ValidationError(f"oracle_budget must be positive and finite, got {self.oracle_budget}")

    @property
    def solvers(self) -> tuple[SolverAdapter, ...]:
        """The adapters that this policy's evaluations may run."""
        return (self.solver,) if self.oracle is None else (self.solver, self.oracle)

    def evaluate(self, instance: CandidateInstance, limits: EvaluationLimits, seed: int) -> EvaluationResult:
        """Run the solver on ``instance``, and for local search on an
        optimisation problem the oracle too, then classify the instance."""
        record = _run_and_verify(self, self.solver, instance, limits, seed)
        oracle: OracleResult | None = None
        if self.solver.kind == "local_search" and self.problem.kind != "decision":
            assert self.oracle is not None
            oracle = oracle_optimum(
                self.problem, instance.values, self.oracle,
                3 * self.t_max if self.oracle_budget is None else self.oracle_budget,
                limits, derive_seed(seed, instance.id, "oracle"),
            )
            record = effective_graded_record(record, oracle)
        status = self.classify(record)
        return EvaluationResult(
            status_penalty(status), status, GenOutcome.SOLUTION, instance,
            records={self.solver.name: record}, oracle=oracle,
        )

    def classify(self, record: SolverRecord) -> RunStatus:
        """Status of an instance from its solver's record (for local search,
        the effective record). The band needs only ``t_min``: a run that
        reaches ``t_max`` is a timeout."""
        if record.status is Status.ERROR or record.solution_ok is False:
            return RunStatus.OTHERS
        if record.status is Status.TIMEOUT:
            return RunStatus.TOO_DIFFICULT
        kind = record.status.name  # SAT or UNSAT: errors and timeouts returned above
        if record.time < self.t_min:
            return RunStatus.TOO_EASY_UNSAT if kind == "UNSAT" else RunStatus.TOO_EASY_SAT
        if kind not in self.types:
            return RunStatus.OTHERS
        return RunStatus.GRADED


class DiscriminatingPolicy(Record, frozen=True):
    """Favoured solver should excel where the base solver struggles."""

    campaign = "discriminating"  # a class constant, not a field

    problem: Problem
    favoured: SolverAdapter
    base: SolverAdapter
    t_min: float  # applies to the base solver only
    t_max: float
    types: frozenset[str] = frozenset({"SAT", "UNSAT"})

    def __post_init__(self) -> None:
        _check_policy(self)
        if self.favoured.name == self.base.name:
            raise ValidationError("favoured and base solvers must differ")

    @property
    def solvers(self) -> tuple[SolverAdapter, ...]:
        """The adapters that this policy's evaluations run: favoured, then base."""
        return (self.favoured, self.base)

    def evaluate(self, instance: CandidateInstance, limits: EvaluationLimits, seed: int) -> EvaluationResult:
        """Run the favoured and the base solver on ``instance``, score the
        pair and classify the instance."""
        favoured, base = (_run_and_verify(self, s, instance, limits, seed) for s in self.solvers)
        scores = pair_score(favoured, base, self.problem.kind)
        status = self.classify(favoured, base, scores)
        return EvaluationResult(
            status_penalty(status, scores), status, GenOutcome.SOLUTION, instance,
            records={self.favoured.name: favoured, self.base.name: base}, scores=scores,
        )

    def classify(
        self, favoured: SolverRecord, base: SolverRecord, scores: tuple[float, float]
    ) -> RunStatus:
        """Status of an instance from the pair's records and their scores."""
        if favoured.status in (Status.TIMEOUT, Status.ERROR) or favoured.solution_ok is False:
            return RunStatus.FAVOURED_TIMEOUT
        if favoured.status.name not in self.types:
            return RunStatus.WRONG_TYPE
        if base.time < self.t_min:
            return RunStatus.BASE_TOO_EASY
        return RunStatus.DIS_FOUND if scores[0] > 0 else RunStatus.ZERO_SCORES


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


def oracle_optimum(
    problem: Problem,
    instance_values: Mapping[str, Any],
    oracle: SolverAdapter,
    budget: float,
    limits: EvaluationLimits = EvaluationLimits(),
    seed: int = 0,
) -> OracleResult:
    """Establish the true optimum with a long-budget complete solver run,
    whose recorded time is the result's time."""
    if budget <= 0:
        return OracleResult(None, False, 0.0)
    record = run_solver(oracle, problem, instance_values, budget, limits, seed)
    if record.status is Status.UNSAT:
        return OracleResult(None, True, record.time, infeasible=True)
    if record.status is Status.SAT and record.optimal_claimed:
        record = verify_record(problem, instance_values, record)
        if record.solution_ok is False:
            return OracleResult(None, False, record.time)
        return OracleResult(record.objective, True, record.time)
    return OracleResult(record.objective, False, record.time)


def effective_graded_record(record: SolverRecord, oracle: OracleResult) -> SolverRecord:
    """Rewrite a local-search record so its time is the time-to-optimum:
    the first trace stamp whose objective equals the proven optimum.

    Without a proven optimum (or when it was never reached) the run counts
    as a timeout: gradedness cannot be established for a solver that
    cannot prove completion.
    """
    if record.status is Status.ERROR or record.solution_ok is False:
        return record
    if not oracle.proved or oracle.infeasible:
        return replace(record, status=Status.TIMEOUT)
    ttb = next((stamp for stamp, objective in record.trace if objective == oracle.optimum), None)
    if ttb is None:
        return replace(record, status=Status.TIMEOUT)
    return replace(record, status=Status.SAT, time=ttb, time_to_best=ttb, objective=oracle.optimum)


def status_penalty(
    status: RunStatus,
    scores: tuple[float, float] | None = None,
    outcome: GenOutcome = GenOutcome.SOLUTION,
) -> float:
    """The penalty owed for a classified evaluation.

    ``scores`` are the discriminating pair scores (needed for ``dis-found``)
    and ``outcome`` the generator outcome (needed for ``generator-unsolved``):
    an infeasible, untranslatable or ill-defined configuration is discarded,
    a search timeout scores 1.
    """
    if status is RunStatus.GENERATOR_UNSOLVED:
        assert outcome is not GenOutcome.SOLUTION, "generator-unsolved needs a failed generator outcome"
        return GENERATOR_TIMEOUT_PENALTY if outcome is GenOutcome.SOLVE_TIMEOUT else PLUS_INFINITY
    if status is RunStatus.GRADED:
        return GRADED_PENALTY
    if status is RunStatus.DIS_FOUND:
        assert scores is not None, "dis-found needs the pair scores"
        score_f, score_b = scores
        return LARGE_NEGATIVE if score_b == 0.0 else -score_f / score_b
    return 0.0


def evaluate_configuration(
    model: GeneratorModel,
    config: GeneratorConfiguration,
    history: SolutionHistory,
    policy: Policy,
    limits: EvaluationLimits = EvaluationLimits(),
    seed: int = 0,
) -> EvaluationResult:
    """One full evaluation: generate an instance, run the policy, score it.

    All failures map to penalties and statuses; nothing raises. A
    configuration for which ``solve_generator`` yields no instance (say one
    whose shapes or bounds the model leaves ill-defined) is
    ``generator-unsolved`` with its outcome. The fresh instance (when one
    exists) is in the history once ``solve_generator`` returns, before any
    solver runs, so a later evaluation of the same configuration cannot
    regenerate it.
    """
    gen = solve_generator(model, config, history, limits.translate_limit, limits.solve_limit)
    if gen.outcome is not GenOutcome.SOLUTION:
        unsolved = RunStatus.GENERATOR_UNSOLVED
        return EvaluationResult(status_penalty(unsolved, outcome=gen.outcome), unsolved, gen.outcome)
    assert gen.instance is not None
    return policy.evaluate(gen.instance, limits, seed)


def _run_and_verify(
    policy: Policy, adapter: SolverAdapter, instance: CandidateInstance, limits: EvaluationLimits, seed: int
) -> SolverRecord:
    """One of ``policy``'s runs on ``instance``, under ``t_max`` and a seed of
    its own drawn from ``seed``, verified."""
    run_seed = derive_seed(seed, instance.id, adapter.name)
    record = run_solver(adapter, policy.problem, instance.values, policy.t_max, limits, run_seed)
    return verify_record(policy.problem, instance.values, record)
