"""Run configuration.

Everything an experiment needs is a plain dataclass, buildable in code or
loaded from a JSON file. File loading is strict: every value is checked
against its field's type, and unknown keys, missing keys and out-of-range
values are rejected with the offending key named, because a silently
ignored typo in an experiment config is a wasted run. Each council entry's
``params`` are checked the same way, against the params type its ``role``
names in :data:`ROLES`; the role is the one field that says what an entry is.
"""

from __future__ import annotations

import json
import sys
import types
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .errors import ConfigKeyError
from .memory import DEFAULT_CAPACITY, DEFAULT_COLD_START

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


@dataclass
class MemoryConfig:
    capacity: int = DEFAULT_CAPACITY
    cold_start: float = DEFAULT_COLD_START
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
    params: dict = field(default_factory=dict)


@dataclass
class OracleParams:
    """The game24 oracle takes no params."""


@dataclass
class SynthSpecialistParams:
    family: str
    eval_noise: float = 0.0


@dataclass
class LLMParams:
    endpoint: str
    model: str
    credential_env: str
    concurrency: int = 4
    act_temperature: float = 0.7
    eval_temperature: float = 0.0
    max_tokens: int = 256
    timeout: float = 60.0


# A council entry's ``params.role`` names its params type.
ROLES = {
    "game24-oracle": OracleParams,
    "synth-specialist": SynthSpecialistParams,
    "llm-backed": LLMParams,
}


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
        raise ConfigKeyError(key, message)


def _join(key: str, name: str) -> str:
    return f"{key}.{name}" if key else name


_SCALARS = {bool: "true or false", int: "an integer", float: "a finite number", str: "a string"}


def _checked(kind, value, key: str):
    """``value`` checked against the annotation ``kind``: a dataclass, ``X |
    None``, ``list[X]``, ``tuple[X, ...]`` (read from a list), a bare
    ``dict`` (any JSON object, its values unchecked), or a scalar. A bool is
    no integer; an integer is accepted, and kept, for a float."""
    if is_dataclass(kind):
        return read_fields(kind, value, key)
    origin, args = get_origin(kind), get_args(kind)
    if origin is types.UnionType:
        return None if value is None else _checked(args[0], value, key)
    if origin in (list, tuple):
        _require(isinstance(value, list), key, "must be a list")
        items = [_checked(args[0], item, f"{key}[{i}]") for i, item in enumerate(value)]
        return items if origin is list else tuple(items)
    if kind is dict:
        _require(isinstance(value, dict), key, "must be an object")
        return value
    ok = type(value) is kind or (kind is float and type(value) is int)
    if kind is float and ok:
        ok = abs(value) <= sys.float_info.max
    _require(ok, key, f"must be {_SCALARS[kind]}, got {value!r}")
    return value


def read_fields(cls, data, key: str = ""):
    """Build the dataclass ``cls`` from a JSON object, every value checked
    against its field's annotation. An unknown key, a missing required key
    or a wrong type raises ValueError naming the key under ``key``."""
    _require(isinstance(data, dict), key, "must be an object")
    names = {f.name: f for f in fields(cls)}
    for name in data:
        _require(name in names, _join(key, name), "unknown key")
    for name, f in names.items():
        required = f.default is MISSING and f.default_factory is MISSING
        _require(name in data or not required, _join(key, name), "required")
    hints = get_type_hints(cls)
    return cls(**{name: _checked(hints[name], data[name], _join(key, name)) for name in data})


def expert_params(spec: ExpertSpec, key: str):
    """A council entry's ``params`` read into the type :data:`ROLES` gives
    their ``role``, errors naming keys under ``key``; :func:`council_params`
    adds ranges."""
    params = dict(spec.params)
    role = params.pop("role", None)
    roles = tuple(ROLES)
    _require(role in roles, _join(key, "role"), f"must be one of {roles}, got {role!r}")
    return read_fields(ROLES[role], params, key)


def council_params(config: RunConfig) -> list:
    """Make every range and vocabulary check a config can fail, and return
    each council entry's checked params in council order, for
    :func:`~council.harness.build_expert`. An empty council passes: the
    command line fills in the environment's default, and a run refuses it."""
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
    ids = [spec.expert_id for spec in config.council]
    checked = []
    for i, spec in enumerate(config.council):
        _require(bool(spec.expert_id), f"council[{i}].expert_id", "must be non-empty")
        _require(
            spec.expert_id not in ids[:i],
            f"council[{i}].expert_id",
            f"repeats the expert id {spec.expert_id!r}",
        )
        key = f"council[{i}].params"
        params = expert_params(spec, key)
        if isinstance(params, LLMParams):
            _require(params.concurrency >= 1, f"{key}.concurrency", "must be at least 1")
            _require(params.max_tokens >= 1, f"{key}.max_tokens", "must be at least 1")
            _require(params.timeout > 0.0, f"{key}.timeout", "must be positive")
            for name in ("act_temperature", "eval_temperature"):
                _require(getattr(params, name) >= 0.0, f"{key}.{name}", "must be non-negative")
        elif isinstance(params, SynthSpecialistParams):
            from .envs.synth import SynthConfig  # here, as envs.synth imports this module

            families = list(SynthConfig.from_params(config.env.params).families)
            message = f"must be one of {families}, got {params.family!r}"
            _require(params.family in families, f"{key}.family", message)
            _require(params.eval_noise >= 0.0, f"{key}.eval_noise", "must be non-negative")
        checked.append(params)
    return checked


def config_from_dict(data: dict) -> RunConfig:
    config = read_fields(RunConfig, data)
    council_params(config)
    return config


def read_config_file(path: str | Path) -> dict:
    """The raw JSON object in a config file, before any validation."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except UnicodeDecodeError as exc:
            raise ValueError(f"config file {path} is not valid UTF-8: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must contain a JSON object")
    return data


def load_config(path: str | Path) -> RunConfig:
    return config_from_dict(read_config_file(path))
