"""Synthetic specialization environment.

Each task hides a short token sequence drawn from one family's private
vocabulary. The agent must emit the hidden tokens in order; a wrong token at
the current position burns one attempt, and the attempt budget running out
ends the episode with reward 0. Completing the sequence pays 1.

Families exist to create genuine specialization: their vocabularies are
disjoint down to the character level, the opening observation lists the
task's vocabulary, and every numeral in an observation is written in the
family's own letter alphabet. Trajectory text therefore shares almost no
character n-grams across families, so profile similarities separate sharply.
An expert scripted around one family's oracle is competent exactly there and
nowhere else, and the environment is sized so that picking the right
specialist measurably beats picking one at random under a tight search
budget.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from ..config import read_fields
from ..errors import ConfigKeyError
from ..seeding import derived_rng, derived_seed
from ..trajectory import Observation
from .base import Environment, StepOutcome, TaskSpec

DEFAULT_FAMILIES = ("amber", "basalt", "cedar")

_SUFFIX_LETTERS = "abcdefghijklmnopqrstuvwx"
_LETTERS_PER_FAMILY = 8
# parse_view keeps this many recent views, more than one search tree holds
# distinct observations.
_VIEWS_KEPT = 256


@dataclass(frozen=True)
class SynthConfig:
    families: tuple[str, ...] = DEFAULT_FAMILIES
    depth: int = 3
    budget: int = 2
    vocab_size: int = 16

    def __post_init__(self) -> None:
        """A bad value raises ConfigKeyError naming ``env.params.<field>``,
        the key a config file gives it under."""
        most, vocab = len(_SUFFIX_LETTERS) // _LETTERS_PER_FAMILY, _LETTERS_PER_FAMILY**2
        distinct = 0 < len(set(self.families)) == len(self.families) <= most
        for key, ok, message in (
            ("depth", self.depth >= 1, "must be at least 1"),
            ("budget", self.budget >= 1, "must be at least 1"),
            ("vocab_size", 2 <= self.vocab_size <= vocab, f"must lie in [2, {vocab}]"),
            ("families", distinct, f"must be 1 to {most} distinct names"),
        ):
            if not ok:
                raise ConfigKeyError(f"env.params.{key}", message)

    @classmethod
    def from_params(cls, params: dict) -> SynthConfig:
        """Build from a config file's ``env.params``; an unknown key or a
        value of the wrong type raises ValueError naming the key."""
        return read_fields(cls, params, "env.params")


def family_letters(family: str, config: SynthConfig) -> str:
    """The alphabet slice reserved for the family."""
    index = config.families.index(family) if family in config.families else -1
    if index < 0:
        raise ValueError(f"unknown family: {family}")
    return _SUFFIX_LETTERS[index * _LETTERS_PER_FAMILY : (index + 1) * _LETTERS_PER_FAMILY]


@lru_cache(maxsize=None)
def _vocab(family: str, config: SynthConfig) -> tuple[str, ...]:
    letters = family_letters(family, config)
    pairs = ("".join(pair) for pair in product(letters, repeat=2))
    return tuple(f"{family}{suffix}" for suffix, _ in zip(pairs, range(config.vocab_size)))


def family_vocab(family: str, config: SynthConfig) -> list[str]:
    """The family's private tokens, as a fresh list the caller may change.

    Suffixes are letter pairs drawn from an alphabet slice reserved for the
    family, so different families share no trigrams even in their suffixes.
    """
    return list(_vocab(family, config))


def encode_count(value: int, letters: str) -> str:
    """Write a non-negative integer as base-8 numerals in family letters."""
    if value < 0:
        raise ValueError("counts cannot be negative")
    digits = []
    while True:
        digits.append(letters[value % _LETTERS_PER_FAMILY])
        value //= _LETTERS_PER_FAMILY
        if value == 0:
            return "".join(reversed(digits))


def decode_count(text: str, letters: str) -> int | None:
    """Inverse of encode_count; None when a character is outside the alphabet."""
    value = 0
    for ch in text:
        digit = letters.find(ch)
        if digit < 0:
            return None
        value = value * _LETTERS_PER_FAMILY + digit
    return value if text else None


@lru_cache(maxsize=4096)
def hidden_sequence(family: str, seed: int, config: SynthConfig) -> tuple[str, ...]:
    """The task's answer key, a pure function of (family, seed, config).
    Every step reads it, so the most recent keys are cached."""
    vocab = _vocab(family, config)
    rng = derived_rng("synth-hidden", family, seed, config.depth, config.vocab_size)
    return tuple(rng.choice(vocab) for _ in range(config.depth))


@dataclass(frozen=True)
class SynthView:
    """Parsed form of a synth observation, for scripted experts."""

    family: str
    seed: int
    done: int
    depth: int
    missed: int
    budget: int
    solved: bool
    failed: bool


@lru_cache(maxsize=_VIEWS_KEPT)
def parse_view(observation_text: str, config: SynthConfig | None = None) -> SynthView | None:
    """The view an observation text shows, or None for a text no synth
    observation of ``config``'s families has. A scripted expert parses a
    child's text once to judge it and again to expand it, so recent views
    are kept; a view is frozen, so callers may share it."""
    cfg = config if config is not None else SynthConfig()
    m = re.match(
        r"^\[([a-z]+)#([a-z]+)\] (go|ok|no|bad|win|lose)"
        r" \+([a-z]+)/([a-z]+)(?: ~([a-z]+)/([a-z]+))?(?:; .+)?$",
        observation_text,
    )
    if m is None or m.group(1) not in cfg.families:
        return None
    letters = family_letters(m.group(1), cfg)
    numerals = [decode_count(g, letters) if g else 0 for g in m.groups()[1:2] + m.groups()[3:]]
    if any(n is None for n in numerals):
        return None
    seed, done, depth, missed, budget = numerals
    status = m.group(3)
    return SynthView(
        family=m.group(1),
        seed=seed,
        done=done,
        depth=depth,
        missed=missed,
        budget=budget,
        solved=status == "win",
        failed=status == "lose",
    )


@dataclass(frozen=True)
class _State:
    done: int
    missed: int


class SynthEnv(Environment):
    name = "synth"

    def __init__(self, config: SynthConfig | None = None):
        self.config = config if config is not None else SynthConfig()

    def _letters(self, task: TaskSpec) -> str:
        return family_letters(task.payload["family"], self.config)

    def _tag(self, task: TaskSpec) -> str:
        seed = encode_count(task.payload["seed"], self._letters(task))
        return f"[{task.payload['family']}#{seed}]"

    def _status(self, task: TaskSpec, word: str, state: _State, counters: bool = True) -> str:
        # Numerals ride in the family's own letters; only the status word and
        # the punctuation are common text, keeping cross-family n-grams rare.
        cfg = self.config
        letters = self._letters(task)
        done = f"+{encode_count(state.done, letters)}/{encode_count(cfg.depth, letters)}"
        if not counters:
            return f"{self._tag(task)} {word} {done}"
        missed = f"~{encode_count(state.missed, letters)}/{encode_count(cfg.budget, letters)}"
        return f"{self._tag(task)} {word} {done} {missed}"

    def hidden(self, task: TaskSpec) -> tuple[str, ...]:
        return hidden_sequence(task.payload["family"], task.payload["seed"], self.config)

    def check_task(self, task: TaskSpec) -> None:
        payload, where = task.payload, f"task {task.task_id!r}: key 'payload"
        if not isinstance(payload, dict):
            raise ValueError(f"{where}': expected an object with 'family' and 'seed'")
        unknown = payload.keys() - {"family", "seed"}
        if unknown:
            raise ValueError(f"{where}.{min(unknown)}': unknown key")
        if payload.get("family") not in self.config.families:
            raise ValueError(f"{where}.family': expected one of {list(self.config.families)}")
        if type(payload.get("seed")) is not int or payload["seed"] < 0:
            raise ValueError(f"{where}.seed': expected an integer >= 0")

    def initial(self, task: TaskSpec) -> tuple[_State, Observation]:
        family = task.payload["family"]
        # The vocabulary doubles as the task's family signature for routing.
        vocab = " ".join(_vocab(family, self.config))
        state = _State(done=0, missed=0)
        return state, Observation(f"{self._status(task, 'go', state)}; {vocab}")

    def apply(self, task: TaskSpec, state: _State, action: str) -> tuple[_State, StepOutcome]:
        cfg = self.config
        if not action.strip():
            return state, StepOutcome(
                observation=Observation(self._status(task, "bad", state)),
                terminal=False,
                invalid=True,
            )
        if action == self.hidden(task)[state.done]:
            new = _State(done=state.done + 1, missed=0)
            word, reward = ("win", 1.0) if new.done == cfg.depth else ("ok", None)
        else:
            new = _State(done=state.done, missed=state.missed + 1)
            word, reward = ("lose", 0.0) if new.missed >= cfg.budget else ("no", None)
        terminal = reward is not None
        return new, StepOutcome(
            observation=Observation(self._status(task, word, new, counters=not terminal)),
            terminal=terminal,
            reward=reward,
        )


def make_synth_tasks(
    count: int, seed: int, config: SynthConfig | None = None
) -> list[TaskSpec]:
    """Balanced task list cycling through families, deterministic in ``seed``."""
    cfg = config if config is not None else SynthConfig()
    tasks: list[TaskSpec] = []
    for i in range(count):
        family = cfg.families[i % len(cfg.families)]
        task_seed = derived_seed("synth-task", seed, i) % 1_000_000
        tasks.append(
            TaskSpec(
                task_id=f"synth-{family}-{i:04d}",
                environment="synth",
                payload={"family": family, "seed": task_seed},
            )
        )
    return tasks
