"""Run configuration.

Everything an experiment needs is a plain dataclass, buildable in code or
loaded from a JSON file. File loading is strict: unknown keys and
out-of-range values are rejected with the offending key named, because a
silently ignored typo in an experiment config is a wasted run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

VALUE_MODES = ("full", "llm-only", "sms-only", "env-only")
ROUTING_STRATEGIES = ("task-aware", "random", "round-robin", "voting", "collaborative")


@dataclass
class SearchBudget:
    iterations: int = 10
    expansion_width: int = 4
    max_depth: int = 12


@dataclass
class PlannerConfig:
    budget: SearchBudget = field(default_factory=SearchBudget)
    exploration: float = 1.0
    routing_strategy: str = "task-aware"
    routing_temperature: float = 0.5
    value_mode: str = "full"
    success_threshold: float = 1.0
    aggregator: str | None = None


@dataclass
class MemoryConfig:
    capacity: int = 512
    cold_start: float = 0.5
    shared: bool = True
    load_path: str | None = None
    save_path: str | None = None


@dataclass
class EnvSpec:
    name: str = "game24"
    params: dict = field(default_factory=dict)


@dataclass
class ExpertSpec:
    expert_id: str
    kind: str = "scripted"  # or "llm-backed"
    params: dict = field(default_factory=dict)


@dataclass
class RunConfig:
    seed: int
    env: EnvSpec = field(default_factory=EnvSpec)
    council: list[ExpertSpec] = field(default_factory=list)
    tasks_path: str | None = None
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    out_dir: str = "out"
    warmup_tasks: int = 0
    workers: int = 1
    embedding_dim: int = 256


def _require(condition: bool, key: str, message: str) -> None:
    if not condition:
        raise ValueError(f"config key '{key}': {message}")


def validate_config(config: RunConfig) -> RunConfig:
    """Range and vocabulary checks; returns the config it was given."""
    _require(isinstance(config.seed, int), "seed", "must be an integer")
    budget = config.planner.budget
    _require(budget.iterations >= 1, "planner.budget.iterations", "must be at least 1")
    _require(budget.expansion_width >= 1, "planner.budget.expansion_width", "must be at least 1")
    _require(budget.max_depth >= 1, "planner.budget.max_depth", "must be at least 1")
    _require(config.planner.exploration >= 0.0, "planner.exploration", "must be non-negative")
    _require(
        config.planner.routing_strategy in ROUTING_STRATEGIES,
        "planner.routing_strategy",
        f"must be one of {ROUTING_STRATEGIES}",
    )
    _require(
        config.planner.routing_temperature > 0.0,
        "planner.routing_temperature",
        "must be positive",
    )
    _require(
        config.planner.value_mode in VALUE_MODES,
        "planner.value_mode",
        f"must be one of {VALUE_MODES}",
    )
    _require(config.memory.capacity >= 1, "memory.capacity", "must be at least 1")
    _require(
        0.0 <= config.memory.cold_start <= 1.0, "memory.cold_start", "must lie in [0, 1]"
    )
    _require(config.warmup_tasks >= 0, "warmup_tasks", "must be non-negative")
    _require(config.workers >= 1, "workers", "must be at least 1")
    _require(config.embedding_dim >= 1, "embedding_dim", "must be at least 1")
    _require(
        config.workers == 1 or not config.memory.shared,
        "workers",
        "parallel task execution requires memory.shared = false",
    )
    _require(
        config.memory.save_path is None or config.memory.shared,
        "memory.save_path",
        "requires memory.shared = true; unshared memory is never written",
    )
    for i, spec in enumerate(config.council):
        _require(bool(spec.expert_id), f"council[{i}].expert_id", "must be non-empty")
        _require(
            spec.kind in ("scripted", "llm-backed"),
            f"council[{i}].kind",
            "must be 'scripted' or 'llm-backed'",
        )
    return config


def _build(cls, data: dict, path: str):
    """Construct a config dataclass from a dict, rejecting unknown keys."""
    fields = {f for f in cls.__dataclass_fields__}
    for key in data:
        if key not in fields:
            raise ValueError(f"config key '{path}{key}': unknown key")
    return data


def config_from_dict(data: dict) -> RunConfig:
    data = dict(_build(RunConfig, data, ""))
    if "seed" not in data:
        raise ValueError("config key 'seed': required")
    if "planner" in data:
        planner = dict(_build(PlannerConfig, data["planner"], "planner."))
        if "budget" in planner:
            planner["budget"] = SearchBudget(
                **_build(SearchBudget, planner["budget"], "planner.budget.")
            )
        data["planner"] = PlannerConfig(**planner)
    if "memory" in data:
        data["memory"] = MemoryConfig(**_build(MemoryConfig, data["memory"], "memory."))
    if "env" in data:
        data["env"] = EnvSpec(**_build(EnvSpec, data["env"], "env."))
    if "council" in data:
        data["council"] = [
            ExpertSpec(**_build(ExpertSpec, item, f"council[{i}]."))
            for i, item in enumerate(data["council"])
        ]
    return validate_config(RunConfig(**data))


def read_config_file(path: str | Path) -> dict:
    """The raw JSON object in a config file, before any validation."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must contain a JSON object")
    return data


def load_config(path: str | Path) -> RunConfig:
    return config_from_dict(read_config_file(path))
