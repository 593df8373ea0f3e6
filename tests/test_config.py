"""Layered configuration: precedence, whitelist, provenance."""

import json

import pytest

from stkit.config import (
    CLI_KEYS, DEFAULTS, KINDS, Config, load_config, read_json_object, write_json,
)
from stkit.exceptions import BadConfigFile, UnknownCliKey


def test_defaults_alone():
    cfg = load_config()
    assert cfg["seed"] == 0
    assert cfg["output_dir"] == "runs"
    assert cfg["batch_size"] == 32
    assert cfg["scaler"] == "none"
    assert all(p == "default" for p in cfg.provenance.values())
    assert set(cfg.values) == set(DEFAULTS)


def test_file_overrides_defaults():
    cfg = load_config(file_values={"seed": 5, "var_order": 3})
    assert cfg["seed"] == 5
    assert cfg["var_order"] == 3
    assert cfg.provenance["seed"] == "user_file"
    assert cfg.provenance["var_order"] == "user_file"
    assert cfg.provenance["batch_size"] == "default"


def test_cli_overrides_file_and_defaults():
    cfg = load_config(
        cli_args={"seed": 9, "model": "HA"},
        file_values={"seed": 5, "var_order": 3},
    )
    assert cfg["seed"] == 9
    assert cfg.provenance["seed"] == "cli"
    assert cfg["var_order"] == 3
    assert cfg.provenance["var_order"] == "user_file"
    assert cfg["model"] == "HA"


def test_precedence_for_every_cli_key():
    # Each key gets a CLI and a file value of its kind, both unlike the default.
    cli_file = {"seed": (7, 8), "batch_size": (7, 8)}
    for key in CLI_KEYS:
        x, y = cli_file.get(key, ("x", "y"))
        cfg = load_config(cli_args={key: x}, file_values={key: y})
        assert cfg[key] == x, key
        assert cfg.provenance[key] == "cli"
        cfg2 = load_config(file_values={key: y})
        assert cfg2[key] == y, key
        assert cfg2.provenance[key] == "user_file"
        assert load_config()[key] not in (x, y), key


def test_none_cli_values_do_not_mask_lower_layers():
    cfg = load_config(
        cli_args={"seed": None, "model": "VAR"}, file_values={"seed": 4}
    )
    assert cfg["seed"] == 4
    assert cfg.provenance["seed"] == "user_file"


def test_unknown_cli_key_rejected():
    with pytest.raises(UnknownCliKey):
        load_config(cli_args={"var_order": 2})
    with pytest.raises(UnknownCliKey):
        load_config(cli_args={"bogus": 1})


def test_unknown_file_keys_rejected(tmp_path):
    with pytest.raises(BadConfigFile, match="unknown config file key 'custom_knob'"):
        load_config(file_values={"seed": 1, "custom_knob": [1, 2]})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"var_ordr": 3}), "utf-8")
    with pytest.raises(BadConfigFile, match="unknown config file key 'var_ordr'"):
        load_config(file_values=path)
    # Keys with a default, and the file-only ones, pass.
    cfg = load_config(file_values={"objective": "val.rmse", "conversion": {}})
    assert cfg["conversion"] == {}
    assert cfg.provenance["conversion"] == "user_file"
    # Explicit defaults name the known keys.
    cfg = load_config(file_values={"custom_knob": [1, 2]}, defaults={"custom_knob": []})
    assert cfg["custom_knob"] == [1, 2]


def test_config_file_path_loading(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 11, "scaler": "zscore"}), "utf-8")
    cfg = load_config(file_values=path)
    assert cfg["seed"] == 11
    # The cli layer can name the file too, and still wins over its contents.
    cfg2 = load_config(cli_args={"config_file": str(path), "seed": 12})
    assert cfg2["seed"] == 12
    assert cfg2["scaler"] == "zscore"
    assert cfg2.provenance["scaler"] == "user_file"


def test_bad_config_files(tmp_path):
    with pytest.raises(BadConfigFile):
        load_config(file_values=tmp_path / "missing.json")
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", "utf-8")
    with pytest.raises(BadConfigFile):
        load_config(file_values=broken)
    array = tmp_path / "array.json"
    array.write_text("[1, 2]", "utf-8")
    with pytest.raises(BadConfigFile):
        load_config(file_values=array)


@pytest.mark.parametrize("label", ["config file", "space file", "truth routes file"])
def test_json_object_reader_names_the_file(tmp_path, label):
    cases = {
        "missing.json": (None, " does not exist"),
        "broken.json": (b"{not json", ": Expecting property name"),
        "array.json": (b"[1, 2]", " must hold a JSON object"),
        "latin1.json": (b'{"a": "\xe9"}', ": 'utf-8' codec can't decode"),
    }
    for name, (content, rest) in cases.items():
        path = tmp_path / name
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(BadConfigFile) as info:
            read_json_object(path, label)
        assert str(info.value).startswith(f"{label} {path}{rest}")
    path.write_bytes(b'{"a": [1]}')
    assert read_json_object(path, label) == {"a": [1]}


def test_merge_equals_dict_union_oracle():
    cli = {"seed": 1, "model": "HA", "task": "traffic_state_pred"}
    file_values = {"seed": 2, "var_order": 5, "scaler": "minmax"}
    cfg = load_config(cli_args=cli, file_values=file_values)
    want = {**DEFAULTS, **file_values, **cli}
    assert cfg.as_dict() == want


def test_custom_defaults_layer():
    cfg = load_config(defaults={"only_key": 1})
    assert cfg.as_dict() == {"only_key": 1}
    assert cfg.provenance == {"only_key": "default"}


def test_config_mapping_interface():
    cfg = load_config()
    assert cfg.get("seed") == 0
    assert cfg.get("nope", 42) == 42
    with pytest.raises(KeyError):
        cfg["nope"]


@pytest.mark.parametrize(
    "values, message",
    [
        ({"ranking_k": float("inf")}, "config key ranking_k: inf is not a finite number"),
        ({"horizons": [1, float("nan")]}, "config key horizons: nan is not a finite number"),
        ({"conversion": {"bounds": [0, {"x": float("-inf")}]}},
         "config key conversion: -inf is not a finite number"),
    ],
)
def test_non_finite_file_values_rejected_naming_the_key(tmp_path, values, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(values), "utf-8")  # NaN and Infinity literals
    with pytest.raises(BadConfigFile, match=f"^{message}$"):
        load_config(file_values=str(path))


def test_write_json_refuses_non_finite_numbers(tmp_path):
    with pytest.raises(ValueError):
        write_json(tmp_path / "out.json", {"a": [1.0, float("nan")]})
    write_json(tmp_path / "out.json", {"b": 1.5, "a": None})
    assert (tmp_path / "out.json").read_text("utf-8") == '{\n  "a": null,\n  "b": 1.5\n}\n'


def test_every_key_with_a_default_has_a_kind():
    assert set(KINDS) == set(DEFAULTS) | {"conversion"}
    assert KINDS["seed"] is int and KINDS["var_ridge"] is float and KINDS["scaler"] is str
    assert KINDS["horizons"] == (list, int) and KINDS["conversion"] is dict


@pytest.mark.parametrize(
    "key, given, read",
    [
        ("var_order", 3.0, 3),
        ("train_ratio", 1, 1.0),
        ("seed", 10**30, 10**30),
        ("horizons", [3, 6.0], [3, 6]),
        ("horizons", None, None),
        ("mape_floor", 2, 2.0),
        ("task", None, None),
        ("conversion", {"target": "state"}, {"target": "state"}),
        ("custom_knob", "anything", "anything"),  # a key without a kind passes
    ],
)
def test_reads_return_the_checked_value_and_values_keep_it_as_given(key, given, read):
    cfg = load_config(file_values={key: given}, defaults={**DEFAULTS, "custom_knob": 0})
    assert cfg[key] == read and type(cfg[key]) is type(read)
    assert cfg.get(key) == read
    assert cfg.values[key] == given and type(cfg.values[key]) is type(given)
    assert cfg.as_dict()[key] == given


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("seed", True, "expected a whole number, got True"),
        ("seed", "3", "expected a whole number, got '3'"),
        ("seed", 2.5, "expected a whole number, got 2.5"),
        ("seed", None, "expected a whole number, got None"),
        ("var_ridge", "1e-3", "expected a finite number, got '1e-3'"),
        ("var_ridge", False, "expected a finite number, got False"),
        ("var_ridge", 10**400, "expected a finite number, got 1000"),
        ("scaler", 5, "expected a string, got 5"),
        ("scaler", None, "expected a string, got None"),
        ("horizons", 2, "expected a list of whole numbers, got 2"),
        ("horizons", [1, True], "expected a list of whole numbers, got [1, True]"),
        ("conversion", [], "expected an object, got []"),
        ("objective", 5, "expected a string, got 5"),
    ],
)
def test_wrong_kinds_raise_naming_the_key(key, value, message):
    with pytest.raises(BadConfigFile) as info:
        load_config(file_values={key: value})
    assert str(info.value).startswith(f"config key {key}: {message}")
    with pytest.raises(BadConfigFile, match=f"^config key {key}: "):
        Config({**DEFAULTS, key: value}, {})
