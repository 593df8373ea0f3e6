"""Hyper-parameter search: exhaustive grid and seeded random sampling.

A search space is a JSON object mapping parameter names to domains:

- ``{"values": [...]}``: explicit choices (usable by both algorithms)
- ``{"low": a, "high": b, "kind": "int"}``: integer range, inclusive
- ``{"low": a, "high": b}`` or ``"kind": "float"``: real range, optionally
  ``"log": true`` to sample the exponent uniformly

Grid search enumerates the full cross product and therefore rejects
continuous domains; random search draws each parameter independently with a
seeded generator, so a (space, n_trials, seed) triple always produces the
same trial list.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .config import is_number
from .exceptions import ContinuousDomainInGrid

__all__ = [
    "SearchDomain",
    "parse_space",
    "grid_candidates",
    "random_candidates",
    "TrialResult",
    "SearchResult",
    "run_search",
]


@dataclass(frozen=True)
class SearchDomain:
    """One parameter's domain."""

    kind: str  # "choice" | "int" | "float"
    values: tuple = ()
    low: float = 0.0
    high: float = 0.0
    log: bool = False


def parse_space(payload: Mapping) -> dict[str, SearchDomain]:
    """Validate and normalize a JSON search-space object; a ValueError names
    the parameter whose domain is malformed or holds a value of the wrong
    kind: ``values`` must be a non-empty list, ``low`` and ``high`` numbers
    (not booleans), whole numbers for ``kind`` "int", ``log`` a boolean and
    ``kind`` "int" or "float"."""
    space = {}
    for name, raw in payload.items():
        if not isinstance(raw, Mapping):
            raise ValueError(f"domain of {name!r} must be an object")
        if "values" in raw:
            values = raw["values"]
            if not (isinstance(values, list) and values):
                raise ValueError(f"domain of {name!r}: values must be a non-empty list, "
                                 f"got {values!r}")
            space[name] = SearchDomain("choice", values=tuple(values))
            continue
        if "low" not in raw or "high" not in raw:
            raise ValueError(f"domain of {name!r} needs values or low/high")
        low, high = raw["low"], raw["high"]
        if not (is_number(low) and is_number(high)):
            raise ValueError(f"domain of {name!r}: low and high must be numbers, "
                             f"got {low!r} and {high!r}")
        if not low < high:
            raise ValueError(f"domain of {name!r} needs low < high")
        kind = raw.get("kind", "float")
        log = raw.get("log", False)
        if not isinstance(log, bool):
            raise ValueError(f"domain of {name!r}: log must be true or false, got {log!r}")
        if kind not in ("int", "float"):
            raise ValueError(f"domain of {name!r} has unknown kind {kind!r}")
        if kind == "int" and not all(isinstance(v, int) or v.is_integer() for v in (low, high)):
            raise ValueError(f"domain of {name!r}: int bounds must be whole numbers, "
                             f"got {low!r} and {high!r}")
        if log and low <= 0:
            raise ValueError(f"log domain of {name!r} needs low > 0")
        space[name] = SearchDomain(kind, low=low, high=high, log=log)
    if not space:
        raise ValueError("search space is empty")
    return space


def grid_candidates(space: Mapping[str, SearchDomain]) -> list[dict]:
    """Full cross product of all choice domains, in stable key order."""
    names = list(space)
    pools = []
    for name in names:
        domain = space[name]
        if domain.kind == "float":
            raise ContinuousDomainInGrid(
                f"parameter {name!r} has a continuous domain; grid search "
                "needs explicit values (or use RandomSearch)"
            )
        if domain.kind == "int":
            pools.append(list(range(int(domain.low), int(domain.high) + 1)))
        else:
            pools.append(list(domain.values))
    return [dict(zip(names, combo)) for combo in itertools.product(*pools)]


def random_candidates(
    space: Mapping[str, SearchDomain], n_trials: int, seed: int
) -> list[dict]:
    """Draw n_trials independent configurations, deterministic in seed."""
    if n_trials <= 0:
        raise ValueError("n_trials must be positive")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_trials):
        combo = {}
        for name, domain in space.items():
            if domain.kind == "choice":
                combo[name] = domain.values[int(rng.integers(len(domain.values)))]
            elif domain.kind == "int":
                combo[name] = int(rng.integers(int(domain.low), int(domain.high) + 1))
            elif domain.log:
                combo[name] = float(
                    math.exp(rng.uniform(math.log(domain.low), math.log(domain.high)))
                )
            else:
                combo[name] = float(rng.uniform(domain.low, domain.high))
        out.append(combo)
    return out


@dataclass
class TrialResult:
    """One executed trial: its parameters, run record, and objective value."""

    index: int
    params: dict
    record: object
    objective: float


@dataclass
class SearchResult:
    """All trials plus the argmin-objective winner."""

    trials: list[TrialResult] = field(default_factory=list)

    @property
    def best(self) -> TrialResult:
        return min(self.trials, key=lambda t: (t.objective, t.index))


def run_search(
    candidates: Sequence[Mapping],
    runner: Callable[[Mapping], tuple[object, float]],
) -> SearchResult:
    """Execute every candidate; the runner returns (record, objective).

    The best trial minimizes the objective; ties go to the earlier trial.
    NaN objectives sort last.
    """
    result = SearchResult()
    for i, params in enumerate(candidates):
        record, objective = runner(dict(params))
        if isinstance(objective, float) and math.isnan(objective):
            objective = math.inf
        result.trials.append(TrialResult(i, dict(params), record, float(objective)))
    if not result.trials:
        raise ValueError("no candidates to run")
    return result
