"""Trajectories: the interaction record shared by memory, routing, and search.

A trajectory is an ordered list of completed (observation, action) steps,
optionally followed by one pending observation that no action has answered
yet. The pending slot is how a decision point is represented: the planner
routes and proposes on "everything seen so far", which at the very first
decision is just the task instruction rendered as an observation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Observation:
    text: str


@dataclass(frozen=True)
class Action:
    text: str


@dataclass(frozen=True)
class Step:
    """One completed interaction: the observation seen and the action taken."""

    observation: Observation
    action: Action


@dataclass(frozen=True)
class Trajectory:
    """Immutable sequence of completed steps plus an optional pending observation.

    Depth counts completed steps only; a depth-0 trajectory (empty, possibly
    with a pending observation) is legal and describes the pre-first-action
    state.
    """

    steps: tuple[Step, ...] = ()
    pending: Observation | None = None

    @property
    def depth(self) -> int:
        return len(self.steps)

    def extend(self, action: Action, next_observation: Observation | None) -> "Trajectory":
        """Answer the pending observation with ``action`` and append the result."""
        if self.pending is None:
            raise ValueError("cannot extend a trajectory with no pending observation")
        new_step = Step(observation=self.pending, action=action)
        return Trajectory(steps=self.steps + (new_step,), pending=next_observation)

    def completed(self) -> "Trajectory":
        """The same trajectory with the pending observation dropped."""
        if self.pending is None:
            return self
        return Trajectory(steps=self.steps)


def decompose_prefixes(trajectory: Trajectory) -> list[Trajectory]:
    """Every leading sub-trajectory of the completed steps, shortest first.

    A depth-d input yields exactly d prefixes; the last one equals the input
    with its pending observation removed. A depth-0 input yields an empty
    list. Prefixes never carry a pending observation: they are the stored,
    finished form.
    """
    steps = trajectory.steps
    return [Trajectory(steps=steps[:t]) for t in range(1, len(steps) + 1)]


# ---------------------------------------------------------------------------
# Text form
# ---------------------------------------------------------------------------
#
# One line per field, "OBS: " or "ACT: " prefixed. Backslashes and newlines
# inside field text are escaped so the line structure is unambiguous and the
# mapping stays injective.

_OBS_TAG = "OBS: "
_ACT_TAG = "ACT: "
# An escape, read left to right; any other backslash stands for itself.
_ESCAPE_RE = re.compile(r"\\([\\n])")


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _unescape(text: str) -> str:
    return _ESCAPE_RE.sub(lambda m: "\n" if m.group(1) == "n" else "\\", text)


def serialize_step(observation: str, action: str) -> str:
    """The text form of one completed step, "OBS: <o>\\nACT: <a>\\n". The
    text of a trajectory without a pending observation, such as a stored
    prefix, is the concatenation of its steps' forms."""
    return f"{_OBS_TAG}{_escape(observation)}\n{_ACT_TAG}{_escape(action)}\n"


def serialize_trajectory(trajectory: Trajectory) -> str:
    """Render a trajectory to its canonical text form.

    Each completed step contributes its :func:`serialize_step` form; a
    pending observation contributes a trailing "OBS: <o>\\n" with no action
    line. The result is deterministic and injective up to the field texts.
    """
    parts = [serialize_step(step.observation.text, step.action.text) for step in trajectory.steps]
    if trajectory.pending is not None:
        parts.append(f"{_OBS_TAG}{_escape(trajectory.pending.text)}\n")
    return "".join(parts)


def parse_trajectory(text: str) -> Trajectory:
    """Inverse of :func:`serialize_trajectory`."""
    if text == "":
        return Trajectory()
    lines = text.split("\n")
    if lines[-1] != "":
        raise ValueError("serialized trajectory must end with a newline")
    lines = lines[:-1]
    steps: list[Step] = []
    pending: Observation | None = None
    i = 0
    while i < len(lines):
        line = lines[i]
        if not line.startswith(_OBS_TAG):
            raise ValueError(f"expected observation line at position {i}")
        obs = Observation(_unescape(line[len(_OBS_TAG):]))
        if i + 1 < len(lines):
            act_line = lines[i + 1]
            if not act_line.startswith(_ACT_TAG):
                raise ValueError(f"expected action line at position {i + 1}")
            steps.append(Step(observation=obs, action=Action(_unescape(act_line[len(_ACT_TAG):]))))
            i += 2
        else:
            pending = obs
            i += 1
    return Trajectory(steps=tuple(steps), pending=pending)


# ---------------------------------------------------------------------------
# Episode outcome record
# ---------------------------------------------------------------------------


@dataclass
class EpisodeRecord:
    """Everything memory maintenance needs to know about one finished episode.

    ``per_step_expert`` names the expert whose proposal became each step of
    ``final_trajectory``, index-aligned with the steps. ``retrievals`` lists
    every memory lookup the episode performed as (expert_id, segment_id,
    count) tuples.
    """

    episode_id: str
    task_id: str
    final_trajectory: Trajectory
    reward: float
    success: bool
    per_step_expert: list[str] = field(default_factory=list)
    retrievals: list[tuple[str, str, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.per_step_expert) != self.final_trajectory.depth:
            raise ValueError(
                "per_step_expert must align with trajectory steps: "
                f"{len(self.per_step_expert)} labels for depth {self.final_trajectory.depth}"
            )
