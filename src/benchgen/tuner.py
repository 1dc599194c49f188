"""Iterated racing over generator configurations.

Each iteration races a candidate set: every alive configuration is
evaluated once per block (a fresh instance each time, thanks to the
solution history), a +inf penalty drops a configuration immediately,
and from ``FIRST_TEST_AFTER`` blocks onward a Friedman test at the fixed
level ``ELIMINATION_ALPHA`` eliminates configurations whose rank sums fall
a critical difference behind the best. Survivors seed the sampling model
for the next iteration. The racing settings are constants, not options.
"""

from __future__ import annotations

import math
from collections import Counter
from random import Random
from typing import Callable, Protocol, Sequence

from .errors import DegenerateInput, ValidationError
from .records import Record, field
from .runner import RunStatus
from .space import (
    GeneratorConfiguration,
    ParameterSpace,
    SamplingModel,
    sample_from_model,
    sample_uniform,
    update_sampling_model,
)


# Fixed racing settings: survivors kept per race (and elites passed on),
# the Friedman test level, the number of races the budget is split into,
# and the blocks a race runs before its first test (irace's firstTest).
MIN_SURVIVORS = 2
ELIMINATION_ALPHA = 0.05
RACE_SLICES = 5  # per-race budget = total_budget / RACE_SLICES
FIRST_TEST_AFTER = 5


class TunerConfig(Record, frozen=True):
    total_budget: int = 2000
    seed: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        if self.total_budget < 0:
            raise ValidationError("total_budget must be non-negative")
        if self.workers < 1:
            raise ValidationError("workers must be positive")

    @property
    def race_size(self) -> int:
        return max(6, math.ceil(self.total_budget / 40))


class EvaluationLike(Protocol):
    penalty: float
    status: RunStatus


class Evaluator(Protocol):
    def __call__(self, config: GeneratorConfiguration, block: int) -> EvaluationLike: ...


class FriedmanResult(Record, frozen=True):
    statistic: float
    p_value: float
    significant: bool
    rank_sums: list[float]
    critical_difference: float | None
    eliminated: set[int]  # column indices


def _block_ranks(row: Sequence[float]) -> list[float]:
    """Within-block ranks, 1 = best (lowest penalty), ties averaged."""
    k = len(row)
    order = sorted(range(k), key=lambda j: row[j])
    ranks = [0.0] * k
    i = 0
    while i < k:
        j = i
        while j + 1 < k and row[order[j + 1]] == row[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1
        for t in range(i, j + 1):
            ranks[order[t]] = avg
        i = j + 1
    return ranks


def _rank_sums(matrix: Sequence[Sequence[float]]) -> tuple[list[list[float]], list[float]]:
    """Within-block ranks of every row, and the rank sum of every column."""
    rank_rows = [_block_ranks(row) for row in matrix]
    return rank_rows, [sum(r[j] for r in rank_rows) for j in range(len(matrix[0]))]


def _chi2_sf(x: float, df: int) -> float:
    """Upper tail Q(x | df) of the chi-square distribution, integer df >= 1.

    Abramowitz & Stegun 26.4.4/26.4.5: for even df a finite Poisson sum,
    exp(-x/2) * sum_{i < df/2} (x/2)^i / i!; for odd df
    erfc(sqrt(x/2)) + sqrt(2/pi) exp(-x/2) * sum_{r=1}^{(df-1)/2} x^(r-1/2) / (2r-1)!!.
    Every term is positive, so there is no cancellation. exp(-x/2) is
    folded into the first term, so a huge x underflows to 0, never to nan.
    """
    if x <= 0:
        return 1.0
    half = x / 2
    if df % 2 == 0:
        term = tail = math.exp(-half)
        for i in range(1, df // 2):
            term *= half / i
            tail += term
    else:
        term = math.sqrt(2 / math.pi) * math.exp(-half) * math.sqrt(x)
        tail = math.erfc(math.sqrt(half))
        for r in range(1, (df + 1) // 2):
            tail += term
            term *= x / (2 * r + 1)
    return min(tail, 1.0)


def _t_tail(t: float, df: int) -> float:
    """P(|T| > t) = 1 - A(t | df) of Student's t, for t >= 0 and integer df >= 1.

    Abramowitz & Stegun 26.7.3 (odd df) and 26.7.4 (even df): with
    c = cos^2(theta), theta = atan(t / sqrt(df)), A = sin(theta) S for even
    df and (2/pi) (theta + sin(theta) cos(theta) S) for odd df, where S holds
    the first df // 2 terms of a series in c whose full sum makes A = 1.
    Subtracting A from 1 loses at most 10 bits while the tail is at least
    2^-10, which covers every level the tuner tests at; smaller tails are
    only known to be small. sin and cos come from t and sqrt(df), not from
    theta, which rounds near pi/2.
    """
    root = math.sqrt(df)
    r = math.hypot(t, root)
    sin, cos = t / r, root / r
    c = cos * cos
    odd = df % 2
    term, head = 1.0, 0.0
    for a in range(1 + odd, 2 * (df // 2) + 1 + odd, 2):
        head += term
        term *= c * a / (a + 1)
    if odd:
        return 1 - 2 / math.pi * math.atan(t / root) - 2 / math.pi * sin * cos * head
    return 1 - sin * head


def _t_two_sided(alpha: float, df: int) -> float:
    """The t with P(|T| > t) = alpha for Student's t with integer df >= 1.

    Bisects on ``_t_tail`` until the midpoint equals one of the two ends.
    """
    lo, hi = 0.0, 1.0
    while _t_tail(hi, df) > alpha:
        lo, hi = hi, 2 * hi
    while True:
        mid = (lo + hi) / 2
        if mid == lo or mid == hi:
            return mid
        if _t_tail(mid, df) > alpha:
            lo = mid
        else:
            hi = mid


def friedman_eliminate(matrix: Sequence[Sequence[float]]) -> FriedmanResult:
    """Friedman test over blocks x configurations, plus post-hoc elimination.

    The tie-corrected chi-square statistic is tested at ``ELIMINATION_ALPHA``
    with k-1 degrees of freedom; when significant, any column whose rank sum
    exceeds the best by more than the Conover critical difference
    t(1 - ELIMINATION_ALPHA/2, (n-1)(k-1)) * sqrt(2 (n*A - sum R^2) / ((n-1)(k-1)))
    is eliminated (A being the sum of all squared ranks).
    """
    n = len(matrix)
    if n < 2:
        raise DegenerateInput("need at least 2 blocks")
    k = len(matrix[0])
    if k < 2:
        raise DegenerateInput("need at least 2 configurations")
    if any(len(row) != k for row in matrix):
        raise DegenerateInput("ragged penalty matrix")

    rank_rows, rank_sums = _rank_sums(matrix)
    a_sq = sum(v * v for r in rank_rows for v in r)

    tie_term = sum(t**3 - t for row in matrix for t in Counter(row).values())

    center = n * (k + 1) / 2
    numerator = 12.0 * sum((rs - center) ** 2 for rs in rank_sums)
    denominator = n * k * (k + 1) - tie_term / (k - 1)
    if denominator <= 0:
        statistic = 0.0
    else:
        statistic = numerator / denominator
    p_value = _chi2_sf(statistic, k - 1) if statistic > 0 else 1.0
    significant = p_value < ELIMINATION_ALPHA

    eliminated: set[int] = set()
    critical_difference: float | None = None
    if significant:
        df = (n - 1) * (k - 1)
        spread = max(n * a_sq - sum(rs * rs for rs in rank_sums), 0.0)
        critical_difference = _t_two_sided(ELIMINATION_ALPHA, df) * math.sqrt(2.0 * spread / df)
        best = min(rank_sums)
        eliminated = {
            j for j, rs in enumerate(rank_sums) if rs - best > critical_difference
        }
    return FriedmanResult(
        statistic, p_value, significant, rank_sums, critical_difference, eliminated
    )


class RaceState(Record):
    alive: list[GeneratorConfiguration]
    penalties: dict[str, list[float]] = field(default_factory=dict)
    blocks: int = 0
    status_counts: Counter[str] = field(default_factory=Counter)  # evaluations, by status

    def penalty_matrix(self) -> list[list[float]]:
        """Penalties of the alive configurations, one row per block."""
        return [[self.penalties[c.id][b] for c in self.alive] for b in range(self.blocks)]


class TunerReport(Record):
    elites: list[GeneratorConfiguration]
    status_counts: dict[str, int]
    iterations: int

    @property
    def evaluations_used(self) -> int:
        return sum(self.status_counts.values())


def _best_first(rank_sums: Sequence[float]) -> list[int]:
    """Positions of the alive configurations by rank sum, ties by position."""
    return sorted(range(len(rank_sums)), key=lambda j: (rank_sums[j], j))


def race(
    configs: Sequence[GeneratorConfiguration],
    evaluator: Evaluator,
    race_budget: int,
    *,
    config: TunerConfig = TunerConfig(),
    iteration: int = 1,
    log: Callable[[int, int, GeneratorConfiguration, EvaluationLike], None] | None = None,
) -> tuple[list[GeneratorConfiguration], RaceState]:
    """Race a candidate set until few survive or the race budget is spent.

    Returns the survivors ranked best-first together with the final state.
    A +inf penalty removes a configuration before any statistical test;
    Friedman elimination never cuts below ``MIN_SURVIVORS``. ``log`` is
    called with ``(iteration, block, config, result)`` of each evaluation,
    in evaluation order.
    """
    state = RaceState(alive=list(configs), penalties={c.id: [] for c in configs})

    while state.alive:
        if state.status_counts.total() + len(state.alive) > race_budget:
            break
        block_index = state.blocks
        if config.workers > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=config.workers) as pool:
                results = list(pool.map(lambda c: evaluator(c, block_index), state.alive))
        else:
            results = [evaluator(c, block_index) for c in state.alive]
        for cfg, result in zip(state.alive, results):
            if log is not None:
                log(iteration, block_index, cfg, result)
            state.penalties[cfg.id].append(result.penalty)
            state.status_counts[result.status.value] += 1
        # A +inf penalty discards its configuration at once, before any test; -inf does not.
        state.alive = [cfg for cfg, result in zip(state.alive, results) if result.penalty != math.inf]
        state.blocks += 1

        if len(state.alive) > MIN_SURVIVORS and state.blocks >= FIRST_TEST_AFTER:
            result = friedman_eliminate(state.penalty_matrix())
            if result.eliminated:
                keep = set(_best_first(result.rank_sums)[:MIN_SURVIVORS])
                state.alive = [
                    c
                    for j, c in enumerate(state.alive)
                    if j not in result.eliminated or j in keep
                ]
        if len(state.alive) <= MIN_SURVIVORS:
            break

    if state.blocks == 0:
        return list(state.alive), state
    _, sums = _rank_sums(state.penalty_matrix())
    return [state.alive[j] for j in _best_first(sums)], state


def run_tuning(
    space: ParameterSpace,
    evaluator: Evaluator,
    config: TunerConfig,
    log: Callable[[int, int, GeneratorConfiguration, EvaluationLike], None] | None = None,
) -> TunerReport:
    """Iterate sample -> race -> model update until the budget is spent.

    The first iteration samples uniformly; later ones draw from the elite
    sampling model. Elites re-enter the next race unchanged. Deterministic
    given the seed and a deterministic evaluator. ``log`` is passed to
    every race.
    """
    rng = Random(config.seed)
    status_counts: Counter[str] = Counter()
    per_race = max(config.total_budget // RACE_SLICES, 1)
    iteration = 0
    elites: list[GeneratorConfiguration] = []
    model: SamplingModel | None = None

    while status_counts.total() < config.total_budget:
        iteration += 1
        budget_left = config.total_budget - status_counts.total()

        candidates = list(elites)  # distinct: they survived one race
        ids = {c.id for c in candidates}
        attempts = 0
        while len(candidates) < config.race_size and attempts < config.race_size * 20:
            attempts += 1
            if model is None:
                candidate = sample_uniform(space, rng)
            else:
                candidate = sample_from_model(space, model, rng)
            if candidate.id not in ids:
                ids.add(candidate.id)
                candidates.append(candidate)
        race_budget = min(max(per_race, len(candidates)), budget_left)
        if race_budget < len(candidates):
            # Not enough budget left for even one complete block.
            break

        survivors, state = race(
            candidates, evaluator, race_budget, config=config, iteration=iteration, log=log
        )
        status_counts += state.status_counts
        if survivors:
            elites = survivors[:MIN_SURVIVORS]
            model = update_sampling_model(model, elites, space=space)
        else:
            elites = []
            model = None

    return TunerReport(elites=elites, status_counts=dict(status_counts), iterations=iteration)
