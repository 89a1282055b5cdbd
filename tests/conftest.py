from __future__ import annotations

import math
import re
from itertools import permutations, product
from typing import Sequence

import numpy as np
import pytest

from council.experts import Expert
from council.memory import EpisodeContext, ExpertProfile, finalize_episode
from council.trajectory import Action, EpisodeRecord, Observation, Step, Trajectory


def make_trajectory(pairs: list[tuple[str, str]], pending: str | None = None) -> Trajectory:
    steps = tuple(Step(Observation(o), Action(a)) for o, a in pairs)
    return Trajectory(steps=steps, pending=Observation(pending) if pending is not None else None)


class FixedExpert(Expert):
    """A test double: proposes the same actions and gives the same score
    whatever the trajectory."""

    def __init__(self, expert_id: str, score: float = 0.5, actions: Sequence[str] = ()):
        super().__init__(expert_id)
        self.score = score
        self.actions = list(actions)

    def propose(self, prefix: Trajectory, exemplar: str | None, k: int) -> list[str]:
        return list(self.actions)

    def plausibility(self, prefix: Trajectory) -> float:
        return self.score


def similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity, with the all-zero vector defined to score 0: the
    oracle that retrieval scans are checked against."""
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return float(np.dot(a, b) / (norm_a * norm_b))


def solvable_by_expressions(numbers: Sequence[float]) -> bool:
    """Whether some expression over exactly four numbers comes within 1e-6
    of 24, trying every operand order, operator triple and way of
    bracketing four operands. The independent check of ``game24_oracle``:
    its arithmetic is its own, so the two share no code path. A division by
    (near) zero or a result that overflows gives no value, as it is no move
    in the game."""
    if len(numbers) != 4:
        raise ValueError("expression enumeration is defined for exactly four numbers")

    def combine(x: float | None, op: str, y: float | None) -> float | None:
        if x is None or y is None:
            return None
        if op == "+":
            value = x + y
        elif op == "-":
            value = x - y
        elif op == "*":
            value = x * y
        elif abs(y) < 1e-9:
            return None
        else:
            value = x / y
        return value if math.isfinite(value) else None

    for a, b, c, d in set(permutations(numbers)):
        for o1, o2, o3 in product("+-*/", repeat=3):
            candidates = (
                combine(combine(combine(a, o1, b), o2, c), o3, d),
                combine(combine(a, o1, combine(b, o2, c)), o3, d),
                combine(combine(a, o1, b), o2, combine(c, o3, d)),
                combine(a, o1, combine(combine(b, o2, c), o3, d)),
                combine(a, o1, combine(b, o2, combine(c, o3, d))),
            )
            if any(value is not None and abs(value - 24.0) <= 1e-6 for value in candidates):
                return True
    return False


def sample_index(prompt: str) -> int:
    """The sample number an act prompt's tag carries."""
    return int(re.search(r"\(sample (\d+) of \d+\)$", prompt).group(1))


@pytest.fixture
def traj():
    return make_trajectory


def record_history(
    profile: ExpertProfile, segment_id: str, history: list[tuple[bool | None, int]]
) -> None:
    """Give a segment a retrieval history through the episode API.

    Each ``(outcome, usage)`` is one episode that looks the segment up
    ``usage`` times and is then finalized with that outcome; a None outcome
    stands for an episode that is never finalized.
    """
    for index, (outcome, usage) in enumerate(history):
        episode = EpisodeContext(f"history-{segment_id}-{index}")
        for _ in range(usage):
            episode.record(profile, segment_id)
        if outcome is None:
            continue
        record = EpisodeRecord(
            episode_id=episode.episode_id,
            task_id="history",
            final_trajectory=Trajectory(),
            reward=1.0 if outcome else 0.0,
            success=outcome,
            retrievals=episode.retrievals(),
        )
        finalize_episode({profile.expert_id: profile}, record)
