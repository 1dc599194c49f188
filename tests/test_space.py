"""Parameter-space parsing and sampling."""

import math
from collections import Counter
from random import Random

import pytest
from scipy import stats

from benchgen.errors import ParseError, ValidationError
from benchgen.records import replace
from benchgen.space import (
    GeneratorConfiguration,
    ParameterSpec,
    SamplingModel,
    initial_spread,
    parse_space,
    sample_from_model,
    sample_uniform,
    update_sampling_model,
)
from conftest import make_configuration


def test_parse_space_two_params():
    space = parse_space("n_tasks_t: 1..60; s_density: 1..5")
    assert space.names == ("n_tasks_t", "s_density")
    assert (space.params[0].lower, space.params[0].upper) == (1, 60)
    assert (space.params[1].lower, space.params[1].upper) == (1, 5)


def test_parse_space_newlines_and_comments():
    space = parse_space("a: 1..10\n# comment\nb: -5..5\n")
    assert space.names == ("a", "b")
    assert space.spec("b").lower == -5


def test_parse_space_degenerate_range_samples_fixed_value():
    space = parse_space("p: 3..3")
    rng = Random(1)
    for _ in range(20):
        assert sample_uniform(space, rng)["p"] == 3


def test_parse_space_inverted_bounds_rejected():
    with pytest.raises(ValidationError):
        parse_space("p: 5..2")


def test_parse_space_duplicate_rejected():
    with pytest.raises(ValidationError):
        parse_space("p: 1..2; p: 1..3")


@pytest.mark.parametrize(
    "text", ["", "p 1..2", "p: 1...2", "p: x..2", pytest.param("p: 1.." + "1" * 5000, id="p: 1..<5000 digits>")]
)
def test_parse_space_malformed(text):
    with pytest.raises(ParseError):
        parse_space(text)


def test_space_roundtrip_preserves_order():
    space = parse_space("zz: 1..2; aa: 3..4; mm: 5..6")
    text = "\n".join(f"{p.name}: {p.lower}..{p.upper}" for p in space.params)
    assert parse_space(text) == space
    assert space.names == ("zz", "aa", "mm")


def test_sample_uniform_singleton_domain():
    space = parse_space("p: 1..1")
    assert sample_uniform(space, Random(7))["p"] == 1


def test_sample_uniform_frequencies_chi_square():
    space = parse_space("p: 1..6")
    rng = Random(123)
    n = 60_000
    counts = Counter(sample_uniform(space, rng)["p"] for _ in range(n))
    for v in range(1, 7):
        assert abs(counts[v] / n - 1 / 6) < 0.01
    observed = [counts[v] for v in range(1, 7)]
    chi2, p = stats.chisquare(observed)
    assert p > 0.001, f"uniformity rejected: chi2={chi2}, p={p}"


def test_sample_uniform_deterministic():
    space = parse_space("a: 1..100; b: -3..9")
    first = [sample_uniform(space, Random(42)) for _ in range(10)]
    second = [sample_uniform(space, Random(42)) for _ in range(10)]
    assert [dict(c.assignment) for c in first] == [dict(c.assignment) for c in second]
    assert [c.id for c in first] == [c.id for c in second]


def test_sample_from_model_vanishing_spread_collapses_to_center():
    space = parse_space("p: 1..5")
    model = SamplingModel(centers=({"p": 3},), spread={"p": 1e-12})
    rng = Random(5)
    values = [sample_from_model(space, model, rng)["p"] for _ in range(200)]
    assert set(values) == {3}


def test_sample_from_model_wide_spread_covers_domain():
    space = parse_space("p: 1..5")
    model = SamplingModel(centers=({"p": 1},), spread={"p": 100.0})
    rng = Random(11)
    values = {sample_from_model(space, model, rng)["p"] for _ in range(10_000)}
    assert values == {1, 2, 3, 4, 5}


def test_sample_from_model_clamps_to_bounds():
    space = parse_space("p: 1..5")
    model = SamplingModel(centers=({"p": 5.4},), spread={"p": 2.0})
    rng = Random(3)
    for _ in range(500):
        assert 1 <= sample_from_model(space, model, rng)["p"] <= 5


def test_update_model_unanimous_elites():
    space = parse_space("p: 1..9")
    elites = [make_configuration(space, {"p": 4}) for _ in range(3)]
    model = update_sampling_model(None, elites, space=space)
    assert all(c["p"] == 4 for c in model.centers)


def test_update_model_spread_decay_closed_form():
    space = parse_space("p: 0..20")  # initial spread (20 - 0) / 2 = 10
    assert initial_spread(space)["p"] == 10.0
    elites = [make_configuration(space, {"p": 10})]
    model = None
    for i in range(3):
        model = update_sampling_model(model, elites, space=space)
    assert math.isclose(model.spread["p"], 10 * 0.8**3)


def test_update_model_spread_floor():
    space = parse_space("p: 1..3")  # initial spread already at the floor of 1
    elites = [make_configuration(space, {"p": 2})]
    model = update_sampling_model(None, elites, space=space)
    for i in range(10):
        model = update_sampling_model(model, elites, space=space)
        assert model.spread["p"] == 1.0


def test_update_model_never_increases_spread():
    space = parse_space("a: 1..50; b: 1..7")
    rng = Random(0)
    model = None
    previous = initial_spread(space)
    for i in range(8):
        elites = [sample_uniform(space, rng) for _ in range(3)]
        model = update_sampling_model(model, elites, space=space)
        for name in space.names:
            assert model.spread[name] <= previous[name]
        previous = dict(model.spread)


def test_config_id_is_value_identity():
    space = parse_space("a: 1..9; b: 1..9")
    c1 = make_configuration(space, {"a": 3, "b": 4})
    c2 = make_configuration(space, {"b": 4, "a": 3})
    c3 = make_configuration(space, {"a": 3, "b": 5})
    assert c1.id == c2.id
    assert c1.id != c3.id


def test_make_configuration_validates_bounds():
    space = parse_space("a: 1..9")
    with pytest.raises(ValidationError):
        make_configuration(space, {"a": 10})
    with pytest.raises(ValidationError):
        make_configuration(space, {})
    with pytest.raises(ValidationError):
        make_configuration(space, {"a": 1, "zz": 2})


def test_sampling_respects_bounds_fuzz():
    rng = Random(2024)
    for _ in range(50):
        n_params = rng.randint(1, 4)
        parts = []
        for i in range(n_params):
            lo = rng.randint(-20, 20)
            hi = lo + rng.randint(0, 40)
            parts.append(f"p{i}: {lo}..{hi}")
        space = parse_space("; ".join(parts))
        draw_rng = Random(rng.randint(0, 10**9))
        configs = [sample_uniform(space, draw_rng) for _ in range(5)]
        model = update_sampling_model(None, configs[:2], space=space)
        configs += [sample_from_model(space, model, draw_rng) for _ in range(5)]
        for config in configs:
            for spec in space.params:
                assert spec.lower <= config[spec.name] <= spec.upper


def test_parameter_spec_invariants():
    with pytest.raises(ValidationError):
        ParameterSpec("bad name", 1, 2)
    with pytest.raises(ValidationError):  # format_values would write a line parse_values refuses
        ParameterSpec("x\n", 1, 3)
    with pytest.raises(ValidationError):
        ParameterSpec("x", 2, 1)


def test_configuration_id_autofilled():
    config = GeneratorConfiguration(assignment={"a": 1})
    assert config.id.startswith("g") and len(config.id) == 11


def test_replaced_assignment_gets_its_own_id():
    moved = replace(GeneratorConfiguration({"n": 2}), assignment={"n": 3})
    assert moved.id == GeneratorConfiguration({"n": 3}).id
    with pytest.raises(TypeError):
        GeneratorConfiguration({"n": 3}, id=moved.id)  # derived, never passed
