"""Configuration loading: defaults, strict keys, named diagnostics."""

from __future__ import annotations

import dataclasses

import pytest

from council.config import (
    ROUTING_STRATEGIES,
    VALUE_MODES,
    LLMParams,
    config_from_dict,
    council_params,
    load_config,
)


def test_defaults_are_sensible():
    config = config_from_dict({"seed": 7})
    assert config.seed == 7
    assert config.env.name == "game24"
    assert config.planner.budget.iterations == 10
    assert config.planner.budget.expansion_width == 4
    assert config.planner.budget.max_depth == 12
    assert config.planner.routing_strategy == "task-aware"
    assert config.planner.value_mode == "full"
    assert config.memory.capacity == 512
    assert config.memory.shared is True
    assert config.workers == 1
    assert config.embedding_dim == 256
    assert config.council == []


def test_seed_is_required():
    with pytest.raises(ValueError) as excinfo:
        config_from_dict({})
    assert "'seed'" in str(excinfo.value)


def test_unknown_top_level_key_is_named():
    with pytest.raises(ValueError) as excinfo:
        config_from_dict({"seed": 1, "iterations": 5})
    assert "'iterations'" in str(excinfo.value)
    assert "unknown key" in str(excinfo.value)


def llm_entry(expert_id: str, **params) -> dict:
    required = {"endpoint": "http://localhost:9", "model": "m", "credential_env": "NO_SUCH_KEY"}
    return {"expert_id": expert_id, "params": {"role": "llm-backed", **required, **params}}


def test_llm_backed_entries_read_into_llm_params():
    config = config_from_dict({"seed": 1, "council": [llm_entry("a"), llm_entry("b", model="n")]})
    assert council_params(config) == [
        LLMParams(endpoint="http://localhost:9", model=model, credential_env="NO_SUCH_KEY")
        for model in ("m", "n")
    ]


def test_unknown_nested_keys_carry_their_path():
    with pytest.raises(ValueError) as excinfo:
        config_from_dict({"seed": 1, "planner": {"budget": {"iters": 5}}})
    assert "planner.budget.iters" in str(excinfo.value)
    with pytest.raises(ValueError) as excinfo:
        config_from_dict({"seed": 1, "memory": {"capaciy": 10}})
    assert "memory.capaciy" in str(excinfo.value)
    with pytest.raises(ValueError) as excinfo:
        config_from_dict({"seed": 1, "council": [{"expert_id": "a", "model": "x"}]})
    assert "council[0].model" in str(excinfo.value)


@pytest.mark.parametrize(
    "overrides,key",
    [
        ({"planner": {"budget": {"iterations": 0}}}, "planner.budget.iterations"),
        ({"planner": {"budget": {"expansion_width": 0}}}, "planner.budget.expansion_width"),
        ({"planner": {"budget": {"max_depth": 0}}}, "planner.budget.max_depth"),
        ({"planner": {"exploration": -0.5}}, "planner.exploration"),
        ({"planner": {"routing_strategy": "psychic"}}, "planner.routing_strategy"),
        ({"planner": {"routing_temperature": 0.0}}, "planner.routing_temperature"),
        ({"planner": {"value_mode": "vibes"}}, "planner.value_mode"),
        ({"memory": {"capacity": 0}}, "memory.capacity"),
        ({"memory": {"cold_start": 1.5}}, "memory.cold_start"),
        ({"warmup_tasks": -1}, "warmup_tasks"),
        ({"workers": 0}, "workers"),
        ({"embedding_dim": 0}, "embedding_dim"),
        ({"council": [{"expert_id": ""}]}, "council[0].expert_id"),
        ({"council": [llm_entry("a", concurrency=0)]}, "council[0].params.concurrency"),
        ({"memory": {"shared": False, "save_path": "m.jsonl"}}, "memory.save_path"),
    ],
)
def test_out_of_range_values_name_the_offending_key(overrides, key):
    data = {"seed": 1, **overrides}
    with pytest.raises(ValueError) as excinfo:
        config_from_dict(data)
    assert f"'{key}'" in str(excinfo.value)


@pytest.mark.parametrize(
    "overrides,key",
    [
        ({"seed": True}, "seed"),
        ({"workers": 1.0}, "workers"),
        ({"planner": {"exploration": "1"}}, "planner.exploration"),
        ({"planner": {"exploration": float("nan")}}, "planner.exploration"),
        ({"planner": {"routing_temperature": float("inf")}}, "planner.routing_temperature"),
        ({"memory": {"shared": 1}}, "memory.shared"),
        ({"memory": {"save_path": 3}}, "memory.save_path"),
        ({"council": {"expert_id": "a"}}, "council"),
        ({"council": [{"expert_id": "a", "params": {"role": "synth-specialist", "family": 1}}]},
         "council[0].params.family"),
        ({"council": [{"expert_id": "a", "params": {"role": "synth-specialist", "family": "amber",
                                                     "eval_noise": "0.1"}}]},
         "council[0].params.eval_noise"),
        ({"council": [{"expert_id": "a", "params": {"role": ["table"]}}]}, "council[0].params.role"),
        ({"council": [{"expert_id": "a", "params": {"role": "llm-backed", "model": "m"}}]},
         "council[0].params.endpoint"),
    ],
)
def test_values_of_the_wrong_type_name_the_offending_key(overrides, key):
    with pytest.raises(ValueError) as excinfo:
        config_from_dict({"seed": 1, **overrides})
    assert str(excinfo.value).startswith(f"config key '{key}': ")


def test_integers_stand_for_floats_as_given_and_null_fills_an_optional():
    config = config_from_dict(
        {"seed": 1, "planner": {"exploration": 2}, "memory": {"load_path": None, "save_path": None}}
    )
    assert config.planner.exploration == 2 and type(config.planner.exploration) is int
    assert config.memory.load_path is None and config.memory.save_path is None


def test_strategy_and_mode_vocabularies_are_accepted():
    for strategy in ROUTING_STRATEGIES:
        config_from_dict({"seed": 1, "planner": {"routing_strategy": strategy}})
    for mode in VALUE_MODES:
        config_from_dict({"seed": 1, "planner": {"value_mode": mode}})


def test_parallel_workers_require_unshared_memory():
    with pytest.raises(ValueError) as excinfo:
        config_from_dict({"seed": 1, "workers": 2})
    assert "memory.shared" in str(excinfo.value)
    config = config_from_dict({"seed": 1, "workers": 2, "memory": {"shared": False}})
    assert config.workers == 2


def test_round_trip_through_asdict():
    config = config_from_dict(
        {
            "seed": 9,
            "env": {"name": "synth", "params": {"depth": 4}},
            "council": [
                {"expert_id": "a", "params": {"role": "synth-specialist", "family": "amber"}}
            ],
            "planner": {"budget": {"iterations": 3}},
        }
    )
    again = config_from_dict(dataclasses.asdict(config))
    assert again == config


def test_load_config_reads_json(tmp_path):
    path = tmp_path / "run.json"
    path.write_text('{"seed": 4, "out_dir": "results"}', encoding="utf-8")
    config = load_config(path)
    assert config.seed == 4
    assert config.out_dir == "results"


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"seed": 4,', encoding="utf-8")
    with pytest.raises(ValueError) as excinfo:
        load_config(path)
    assert "not valid JSON" in str(excinfo.value)


def test_load_config_rejects_non_objects(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]", encoding="utf-8")
    with pytest.raises(ValueError) as excinfo:
        load_config(path)
    assert "JSON object" in str(excinfo.value)
