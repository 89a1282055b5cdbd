"""Bundled environments and the replay contract."""

from ..errors import ConfigKeyError
from .base import Environment
from .game24 import Game24Env
from .synth import SynthConfig, SynthEnv, make_synth_tasks

__all__ = ["Environment", "Game24Env", "SynthConfig", "SynthEnv", "build_environment", "make_synth_tasks"]


def build_environment(name: str, params: dict | None = None) -> Environment:
    """Construct a bundled environment by name from its ``env.params``;
    game24 takes none."""
    if name == "game24":
        if params:
            raise ConfigKeyError(f"env.params.{next(iter(params))}", "unknown key")
        return Game24Env()
    if name == "synth":
        return SynthEnv(SynthConfig.from_params(params or {}))
    raise ConfigKeyError("env.name", f"unknown environment {name!r}")
