"""Layered run configuration: command line over user file over defaults.

Only a small whitelist of keys may come from command-line flags; everything
else (model knobs, pipeline thresholds) must come through the JSON config
file. The file may set any key that has a default, plus the few in
``FILE_ONLY_KEYS``; any other key is a typo and raises ``BadConfigFile``
naming it. Every value is checked against its key's kind in ``KINDS`` when
a ``Config`` is built. Each resolved key remembers where its value came from.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Union

from .exceptions import BadConfigFile, UnknownCliKey

__all__ = [
    "CLI_KEYS", "DEFAULTS", "KINDS", "Config", "check_keys", "is_number", "load_config",
    "read_json_object", "write_json",
]

# Keys settable directly as command-line flags; all others are file-only.
CLI_KEYS = (
    "task",
    "model",
    "dataset",
    "config_file",
    "seed",
    "output_dir",
    "batch_size",
    "space_file",
    "search_alg",
)

DEFAULTS: dict = {
    "task": None,
    "model": None,
    "dataset": None,
    "config_file": None,
    "seed": 0,
    "output_dir": "runs",
    "batch_size": 32,
    "space_file": None,
    "search_alg": "GridSearch",
    # pipeline
    "input_window": 12,
    "output_window": 12,
    "train_ratio": 0.7,
    "val_ratio": 0.1,
    "test_ratio": 0.2,
    "scaler": "none",
    "horizons": None,  # None: every horizon in {3, 6, 12} within the window
    "mape_floor": None,  # None: 5 for grid-layout runs, 0 otherwise
    # models
    "ha_period": None,  # None: one day of slots
    "var_order": 1,
    "var_max_dim": 400,
    "var_ridge": 1e-8,
    # map matching
    "match_sigma": 10.0,
    "match_beta": 5.0,
    "match_radius": 200.0,
    "match_max_candidates": 10,
    # ranking
    "min_checkins": 4,
    "min_trajs_per_user": 2,
    "min_visits_per_location": 0,
    "traj_window_mode": "time",
    "traj_window_size": 259200,
    "ranking_k": 5,
    "ranking_train_ratio": 0.6,
    "ranking_val_ratio": 0.2,
    "ranking_test_ratio": 0.2,
    # tuning
    "n_trials": 10,
    "objective": None,  # None: the task's primary validation metric
}


# Keys a config file may set that have no default: the raw-CSV mapping that
# only ``stkit convert`` reads.
FILE_ONLY_KEYS = ("conversion",)

# The kinds of the keys whose default is None; these alone may be None.
# ``(list, int)`` is a list of whole numbers.
_NONE_KINDS = {
    **dict.fromkeys(("task", "model", "dataset", "config_file", "space_file", "objective"), str),
    "ha_period": int, "mape_floor": float, "horizons": (list, int), "conversion": dict,
}
# Each key's kind: the type of its default, or the kind above.
KINDS = {**{k: type(v) for k, v in DEFAULTS.items() if v is not None}, **_NONE_KINDS}
_KIND_NAMES = {int: "a whole number", float: "a finite number", str: "a string",
               dict: "an object", (list, int): "a list of whole numbers"}


def is_number(value) -> bool:
    """Whether ``value`` is a JSON number: an int or a float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_kind(value, kind):
    """``value`` as ``kind``, or None when it is not of that kind. A number
    kind takes a JSON number only: an int kind a whole one (3.0 reads as 3),
    a float kind a finite one (3 reads as 3.0)."""
    if isinstance(kind, tuple):  # (list, item kind)
        items = [_as_kind(v, kind[1]) for v in value] if isinstance(value, list) else [None]
        return None if None in items else items
    if kind not in (int, float):
        return value if isinstance(value, kind) else None
    if not is_number(value):
        return None
    try:
        number = kind(value)
    except (OverflowError, ValueError):  # int() of inf or NaN, float() of a huge int
        return None
    return number if (number == value if kind is int else math.isfinite(number)) else None


def _checked(key: str, value):
    """``value`` of config key ``key`` as the key's kind; BadConfigFile
    naming the key when it is not of that kind. A key without a kind passes."""
    kind = KINDS.get(key)
    if kind is None or (value is None and key in _NONE_KINDS):
        return value
    checked = _as_kind(value, kind)
    if checked is None:
        raise BadConfigFile(f"config key {key}: expected {_KIND_NAMES[kind]}, got {value!r}")
    return checked


def _non_finite(value):
    """The first NaN or infinity in a JSON value, or None."""
    if isinstance(value, float) and not math.isfinite(value):
        return value
    if isinstance(value, Mapping):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return next((bad for bad in map(_non_finite, value) if bad is not None), None)
    return None


def check_keys(payload: Mapping, known, where: str) -> None:
    """Raise BadConfigFile naming the first key of ``payload`` that is neither
    in ``known`` nor in FILE_ONLY_KEYS, or whose value holds a NaN or an
    infinity, which no JSON artifact could record; ``where`` says where the
    keys came from."""
    for key, value in payload.items():
        if key not in known and key not in FILE_ONLY_KEYS:
            raise BadConfigFile(f"unknown {where} key {key!r}")
        bad = _non_finite(value)
        if bad is not None:
            raise BadConfigFile(f"config key {key}: {bad} is not a finite number")


@dataclass
class Config:
    """Resolved key-value view plus per-key provenance.

    ``provenance[key]`` is one of ``"cli"``, ``"user_file"``, ``"default"``,
    ``"search"``. Building one checks every value's kind, read or not; reads
    return the checked value, ``values`` and ``as_dict()`` the value as given.
    """

    values: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self._checked = {key: _checked(key, value) for key, value in self.values.items()}

    def __getitem__(self, key):
        return self._checked[key]

    def get(self, key, default=None):
        return self._checked.get(key, default)

    def as_dict(self) -> dict:
        return dict(self.values)


def read_json_object(path: Union[str, Path], label: str) -> dict:
    """The JSON object in the file at ``path``; BadConfigFile, whose message
    starts with ``label`` and the path, when the file is missing, unreadable,
    not JSON or not an object."""
    p = Path(path)
    if not p.is_file():
        raise BadConfigFile(f"{label} {p} does not exist")
    try:
        payload = json.loads(p.read_text("utf-8"))
    except (OSError, ValueError) as exc:  # JSON and UTF-8 errors are ValueErrors
        raise BadConfigFile(f"{label} {p}: {exc}") from None
    if not isinstance(payload, dict):
        raise BadConfigFile(f"{label} {p} must hold a JSON object")
    return payload


def write_json(path: Union[str, Path], payload) -> None:
    """Write ``payload`` to ``path`` as UTF-8 JSON with sorted keys, indented
    by two spaces and ending in a newline; every JSON artifact is written so.
    A NaN or infinity raises ValueError: standard JSON has no such number."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n", "utf-8")


def load_config(
    cli_args: Mapping | None = None,
    file_values: Union[Mapping, str, Path, None] = None,
    defaults: Mapping | None = None,
) -> Config:
    """Merge the three layers; later layers win: defaults < file < cli.

    ``cli_args`` may only use whitelisted keys (UnknownCliKey otherwise) and
    None values there mean "not given". ``file_values`` is either a mapping
    or a path to a JSON object file whose keys must be in the defaults or
    in FILE_ONLY_KEYS (BadConfigFile names the first that is not). When the
    cli layer names a config_file and no explicit ``file_values`` is passed,
    that file is loaded as the middle layer.
    """
    cli_args = dict(cli_args or {})
    for key in cli_args:
        if key not in CLI_KEYS:
            raise UnknownCliKey(
                f"{key!r} cannot be set from the command line; "
                f"allowed flags: {', '.join(CLI_KEYS)}"
            )
    cli_args = {k: v for k, v in cli_args.items() if v is not None}

    if file_values is None and cli_args.get("config_file"):
        file_values = cli_args["config_file"]
    if isinstance(file_values, (str, Path)):
        file_values = read_json_object(file_values, "config file")
    file_values = dict(file_values or {})
    defaults = dict(defaults if defaults is not None else DEFAULTS)
    check_keys(file_values, defaults, "config file")

    layers = {"default": defaults, "user_file": file_values, "cli": cli_args}
    values, provenance = {}, {}
    for source, layer in layers.items():
        values.update(layer)
        provenance.update(dict.fromkeys(layer, source))
    return Config(values, provenance)
