"""Friedman elimination, racing behaviour, and the tuning loop."""

import hashlib
from collections import Counter
from dataclasses import dataclass
from random import Random

import pytest
from scipy import stats

from benchgen.errors import DegenerateInput
from benchgen.runner import RunStatus
from benchgen.space import parse_space
from benchgen.tuner import (
    ELIMINATION_ALPHA,
    TunerConfig,
    _chi2_sf,
    _t_two_sided,
    friedman_eliminate,
    race,
    run_tuning,
)


# -- Friedman test -------------------------------------------------------------


def reference_statistic(matrix):
    """Tie-corrected Friedman statistic computed the long way (test oracle)."""
    n, k = len(matrix), len(matrix[0])
    rank_rows = []
    tie_term = 0.0
    for row in matrix:
        ordered = sorted(row)
        ranks = []
        for v in row:
            first = ordered.index(v) + 1
            count = ordered.count(v)
            ranks.append(first + (count - 1) / 2)
        rank_rows.append(ranks)
        groups = {v: ordered.count(v) for v in set(row)}
        tie_term += sum(t**3 - t for t in groups.values())
    sums = [sum(r[j] for r in rank_rows) for j in range(k)]
    numerator = 12.0 * sum((rs - n * (k + 1) / 2) ** 2 for rs in sums)
    denominator = n * k * (k + 1) - tie_term / (k - 1)
    return numerator / denominator if denominator > 0 else 0.0


def test_statistic_matches_reference_and_scipy():
    rng = Random(555)
    for _ in range(100):
        n, k = rng.randint(2, 12), rng.randint(3, 6)
        tie_prone = rng.random() < 0.4
        matrix = [
            [rng.randint(0, 4) if tie_prone else rng.random() for _ in range(k)]
            for _ in range(n)
        ]
        result = friedman_eliminate(matrix)
        assert result.statistic == pytest.approx(reference_statistic(matrix), abs=1e-9)
        columns = [[matrix[i][j] for i in range(n)] for j in range(k)]
        try:
            scipy_stat, scipy_p = stats.friedmanchisquare(*columns)
        except ZeroDivisionError:
            continue  # scipy rejects fully tied data; our statistic is 0 there
        assert result.statistic == pytest.approx(float(scipy_stat), abs=1e-9)
        assert result.p_value == pytest.approx(float(scipy_p), abs=1e-9)


def test_dominant_column_eliminates_worst():
    # Column 0 ranks first in all 10 blocks over 4 columns.
    matrix = [[0.0, 1.0 + i % 2, 2.0, 3.0] for i in range(10)]
    result = friedman_eliminate(matrix)
    assert result.significant
    assert 3 in result.eliminated
    assert 0 not in result.eliminated


def test_all_equal_matrix_statistic_zero():
    matrix = [[1.0, 1.0, 1.0]] * 5
    result = friedman_eliminate(matrix)
    assert result.statistic == 0.0
    assert not result.significant
    assert result.eliminated == set()


def test_two_by_two_alternating_not_significant():
    matrix = [[1.0, 2.0], [2.0, 1.0]]
    result = friedman_eliminate(matrix)
    assert result.statistic == 0.0
    assert result.eliminated == set()


def test_degenerate_inputs_rejected():
    with pytest.raises(DegenerateInput):
        friedman_eliminate([[1.0, 2.0]])
    with pytest.raises(DegenerateInput):
        friedman_eliminate([[1.0], [2.0]])
    with pytest.raises(DegenerateInput):
        friedman_eliminate([[1.0, 2.0], [1.0]])


def test_rank_invariance_under_monotone_transforms():
    rng = Random(808)
    for _ in range(200):
        n, k = rng.randint(3, 10), rng.randint(3, 5)
        matrix = [[rng.uniform(-5, 5) for _ in range(k)] for _ in range(n)]
        result = friedman_eliminate(matrix)
        transformed = []
        for row in matrix:
            scale = rng.uniform(0.1, 4.0)
            offset = rng.uniform(-10, 10)
            transformed.append([offset + scale * (v**3 + 2 * v) for v in row])
        result_t = friedman_eliminate(transformed)
        assert result_t.statistic == pytest.approx(result.statistic, abs=1e-9)
        assert result_t.eliminated == result.eliminated


def test_duplicating_blocks_never_uneliminates():
    rng = Random(4242)
    for _ in range(50):
        n, k = rng.randint(5, 8), rng.randint(3, 5)
        matrix = [[rng.random() for _ in range(k)] for _ in range(n)]
        once = friedman_eliminate(matrix)
        twice = friedman_eliminate(matrix * 2)
        assert once.eliminated <= twice.eliminated


# -- chi-square tail and Student-t quantile against scipy ---------------------


def test_chi2_sf_matches_scipy_over_a_grid():
    # x from 0 to 150 in steps of 1/4, then far into the tail (p near 0);
    # df 1 is the k = 2 case.
    xs = [i / 4 for i in range(601)] + [1e-9, 300.0, 600.0, 1000.0]
    for df in range(1, 61):
        for x, ref in zip(xs, stats.chi2.sf(xs, df)):
            if ref > 1e-300:
                assert _chi2_sf(x, df) == pytest.approx(float(ref), rel=1e-12, abs=0), (x, df)


def test_t_ppf_matches_scipy_over_a_grid():
    # Every df up to 100 (df 1 is k = 2 with two blocks), then both parities
    # up to 2000; the series has df/2 terms, so a dense top end is slow.
    dfs = list(range(1, 101)) + list(range(101, 2001, 49)) + [1999, 2000]
    for alpha in (0.01, 0.05, 0.1, 0.2):
        for df, ref in zip(dfs, stats.t.ppf(1 - alpha / 2, dfs)):
            got = _t_two_sided(alpha, df)
            assert got == pytest.approx(float(ref), rel=1e-12, abs=0), (alpha, df)


def test_elimination_threshold_is_pinned():
    # Digest of repr(_t_two_sided(ELIMINATION_ALPHA, df)) for df 1..4000, one
    # per line, as computed when _t_tail still summed the far tail below
    # 2^-10; the tuner's level never reaches that tail, so nothing moves.
    digest = hashlib.sha256()
    for df in range(1, 4001):
        digest.update(repr(_t_two_sided(ELIMINATION_ALPHA, df)).encode() + b"\n")
    assert digest.hexdigest() == (
        "46db88338554da0f4ae0d6ed92785a437a66f8cdb2cf13e427d7f00bca6bf4ee"
    )


# -- racing --------------------------------------------------------------------


@dataclass
class StubResult:
    penalty: float
    status: RunStatus = RunStatus.GRADED
    instance_id: str | None = None


def make_configs(space_text, n, seed=0):
    from benchgen.space import sample_uniform

    space = parse_space(space_text)
    rng = Random(seed)
    configs = []
    while len(configs) < n:
        c = sample_uniform(space, rng)
        if all(c.id != o.id for o in configs):
            configs.append(c)
    return space, configs


def test_race_dominant_config_survives_and_ranks_first():
    space, configs = make_configs("p: 1..1000", 5, seed=3)
    winner = configs[2].id

    def evaluator(config, block):
        return StubResult(-1.0 if config.id == winner else 0.0)

    survivors, state = race(
        configs, evaluator, race_budget=25,
        config=TunerConfig(total_budget=25),
    )
    assert survivors[0].id == winner
    assert any(c.id == winner for c in state.alive)


def test_race_identical_penalties_no_elimination():
    space, configs = make_configs("p: 1..1000", 4, seed=9)

    def evaluator(config, block):
        return StubResult(0.5)

    survivors, state = race(
        configs, evaluator, race_budget=40,
        config=TunerConfig(total_budget=40),
    )
    assert len(survivors) == 4  # statistic 0, nothing eliminated


def test_race_plus_infinity_discards_immediately():
    space, configs = make_configs("p: 1..1000", 4, seed=1)
    doomed, blessed = configs[0].id, configs[-1].id  # blessed scores -inf, last by position

    def evaluator(config, block):
        if config.id == blessed:
            return StubResult(float("-inf"), RunStatus.GRADED)
        return StubResult(float("inf") if config.id == doomed else 0.0,
                          RunStatus.GENERATOR_UNSOLVED if config.id == doomed else RunStatus.GRADED)

    survivors, state = race(
        configs, evaluator, race_budget=12,
        config=TunerConfig(total_budget=12),
    )
    assert all(c.id != doomed for c in survivors)
    assert len(state.penalties[doomed]) == 1  # evaluated once, then dropped
    assert survivors[0].id == blessed  # -inf is not discarded: it ranks first
    assert len(state.penalties[blessed]) == state.blocks == 3


def test_race_keeps_at_least_min_survivors():
    space, configs = make_configs("p: 1..1000", 6, seed=5)
    ranking = {c.id: i for i, c in enumerate(configs)}

    def evaluator(config, block):
        return StubResult(float(ranking[config.id]))

    survivors, state = race(
        configs, evaluator, race_budget=120,
        config=TunerConfig(total_budget=120),
    )
    assert len(survivors) >= 2
    assert survivors[0].id == configs[0].id


# -- tuning loop ---------------------------------------------------------------


def landscape_evaluator(p_star):
    def evaluator(config, block):
        distance = abs(config["p"] - p_star)
        return StubResult(float(distance), RunStatus.GRADED if distance < 10 else RunStatus.OTHERS)

    return evaluator


def tune_logged(space, evaluator, config):
    """A tuning run's report, and the (iteration, block, config, result) of
    each evaluation as its ``log`` callback received them."""
    logged = []
    report = run_tuning(space, evaluator, config, log=lambda *evaluation: logged.append(evaluation))
    return report, logged


def test_run_tuning_zero_budget_empty_report():
    space = parse_space("p: 1..100")
    report, logged = tune_logged(space, landscape_evaluator(40), TunerConfig(total_budget=0, seed=1))
    assert report.evaluations_used == 0
    assert logged == []
    assert report.elites == []


def test_run_tuning_budget_respected():
    space = parse_space("p: 1..100")
    for budget in (7, 30, 61):
        report, logged = tune_logged(
            space, landscape_evaluator(40),
            TunerConfig(total_budget=budget, seed=2),
        )
        assert 0 < report.evaluations_used <= budget
        assert len(logged) == report.evaluations_used


def test_run_tuning_concentrates_near_optimum():
    space = parse_space("p: 1..1000")
    p_star = 321
    report, logged = tune_logged(
        space, landscape_evaluator(p_star),
        TunerConfig(total_budget=30, seed=7),
    )
    per_iteration: dict[int, list[int]] = {}
    for iteration, _, config, _ in logged:
        per_iteration.setdefault(iteration, []).append(abs(config["p"] - p_star))
    iterations = sorted(per_iteration)
    assert len(iterations) >= 3
    means = [sum(per_iteration[i]) / len(per_iteration[i]) for i in iterations]
    assert means[-1] < means[0], f"no concentration: {means}"
    assert all(abs(e["p"] - p_star) <= means[0] for e in report.elites)


def test_run_tuning_deterministic_logs():
    space = parse_space("p: 1..500")

    def run():
        _, logged = tune_logged(
            space, landscape_evaluator(100),
            TunerConfig(total_budget=40, seed=99),
        )
        return [(iteration, block, config.id, result) for iteration, block, config, result in logged]

    assert run() == run()


def test_run_tuning_counts_statuses():
    space = parse_space("p: 1..100")
    report, logged = tune_logged(
        space, landscape_evaluator(50),
        TunerConfig(total_budget=24, seed=3),
    )
    assert report.status_counts == Counter(result.status.value for *_, result in logged)
    assert sum(report.status_counts.values()) == report.evaluations_used
