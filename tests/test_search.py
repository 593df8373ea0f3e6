"""Hyper-parameter search: space parsing, grid and random candidates."""

import math

import pytest

from stkit.exceptions import ContinuousDomainInGrid
from stkit.search import (
    grid_candidates,
    parse_space,
    random_candidates,
    run_search,
)


def test_parse_space_choice_and_ranges():
    space = parse_space(
        {
            "a": {"values": [1, 2]},
            "b": {"low": 0, "high": 3, "kind": "int"},
            "c": {"low": 0.1, "high": 10.0, "log": True},
        }
    )
    assert space["a"].kind == "choice" and space["a"].values == (1, 2)
    assert space["b"].kind == "int"
    assert space["c"].kind == "float" and space["c"].log


def test_parse_space_validation():
    with pytest.raises(ValueError):
        parse_space({})
    with pytest.raises(ValueError):
        parse_space({"a": {"values": []}})
    with pytest.raises(ValueError):
        parse_space({"a": {"low": 2, "high": 1}})
    with pytest.raises(ValueError):
        parse_space({"a": {"low": 1}})
    with pytest.raises(ValueError):
        parse_space({"a": {"low": 0, "high": 1, "kind": "complex"}})
    with pytest.raises(ValueError):
        parse_space({"a": {"low": 0.0, "high": 1.0, "log": True}})
    with pytest.raises(ValueError):
        parse_space({"a": [1, 2]})


@pytest.mark.parametrize(
    "domain, fault",
    [
        ({"values": 5}, "values must be a non-empty list, got 5"),
        ({"values": "ab"}, "values must be a non-empty list, got 'ab'"),
        ({"values": {"x": 1}}, "values must be a non-empty list"),
        ({"low": "a", "high": 5}, "low and high must be numbers, got 'a' and 5"),
        ({"low": 0.1, "high": [1]}, "low and high must be numbers, got 0.1 and [1]"),
        ({"low": True, "high": 3}, "low and high must be numbers, got True and 3"),
        ({"low": 1, "high": 3, "kind": "int", "log": "yes"}, "log must be true or false"),
        ({"low": 1, "high": 3, "log": 1}, "log must be true or false, got 1"),
        ({"low": 1, "high": 3, "kind": None}, "unknown kind None"),
    ],
)
def test_parse_space_names_the_parameter_of_a_wrong_kind(domain, fault):
    with pytest.raises(ValueError) as info:
        parse_space({"good": {"values": [1]}, "p": domain})
    assert str(info.value).startswith("domain of 'p'")
    assert fault in str(info.value)


def test_grid_cross_product():
    space = parse_space({"a": {"values": [1, 2]}, "b": {"values": ["x", "y", "z"]}})
    combos = grid_candidates(space)
    assert len(combos) == 6
    assert combos[0] == {"a": 1, "b": "x"}
    assert combos[-1] == {"a": 2, "b": "z"}
    assert len({tuple(sorted(c.items())) for c in combos}) == 6


def test_grid_expands_int_ranges_inclusive():
    space = parse_space({"k": {"low": 2, "high": 5, "kind": "int"}})
    combos = grid_candidates(space)
    assert [c["k"] for c in combos] == [2, 3, 4, 5]


def test_grid_rejects_continuous():
    space = parse_space({"lr": {"low": 0.001, "high": 0.1}})
    with pytest.raises(ContinuousDomainInGrid):
        grid_candidates(space)


def test_random_deterministic_and_bounded():
    space = parse_space(
        {
            "a": {"values": ["p", "q"]},
            "b": {"low": 1, "high": 6, "kind": "int"},
            "c": {"low": 0.5, "high": 2.0},
            "d": {"low": 1e-4, "high": 1.0, "log": True},
        }
    )
    draws = random_candidates(space, 100, seed=13)
    again = random_candidates(space, 100, seed=13)
    other = random_candidates(space, 100, seed=14)
    assert draws == again
    assert draws != other
    for combo in draws:
        assert combo["a"] in ("p", "q")
        assert 1 <= combo["b"] <= 6 and isinstance(combo["b"], int)
        assert 0.5 <= combo["c"] <= 2.0
        assert 1e-4 <= combo["d"] <= 1.0
    # Log sampling actually spreads over decades.
    exponents = {math.floor(math.log10(c["d"])) for c in draws}
    assert len(exponents) >= 3


def test_random_n_trials_validation():
    space = parse_space({"a": {"values": [1]}})
    with pytest.raises(ValueError):
        random_candidates(space, 0, seed=0)


def test_run_search_best_and_ties():
    candidates = [{"x": 3}, {"x": 1}, {"x": 2}, {"x": 1}]
    result = run_search(candidates, lambda p: (f"rec{p['x']}", float(p["x"])))
    assert len(result.trials) == 4
    best = result.best
    assert best.objective == 1.0
    assert best.index == 1  # tie at x=1 goes to the earlier trial
    assert best.record == "rec1"
    assert result.trials[0].params == {"x": 3}


def test_run_search_nan_sorts_last():
    candidates = [{"x": 0}, {"x": 1}]
    result = run_search(
        candidates, lambda p: (None, float("nan") if p["x"] == 0 else 5.0)
    )
    assert result.best.objective == 5.0
    assert result.trials[0].objective == math.inf


def test_run_search_empty():
    with pytest.raises(ValueError):
        run_search([], lambda p: (None, 0.0))
