"""Environment contract.

An environment is a pure step function: :meth:`Environment.apply` takes a
state and one action and returns a new state without touching the old one.
The planner threads states through its search tree, each child one ``apply``
from its parent. :meth:`Environment.replay` recomputes everything from the
task and the full action list; it builds the search root and is the oracle a
node's state must agree with, so every node stays a pure function of (task,
actions) and traces stay reproducible.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any

from ..errors import InvalidStateError
from ..trajectory import Observation


@dataclass(frozen=True)
class TaskSpec:
    """One task instance: which environment, plus its env-specific payload."""

    task_id: str
    environment: str
    payload: Any


@dataclass
class StepOutcome:
    """The environment's response to one action.

    ``reward`` is present exactly when ``terminal`` is true. An invalid
    action never terminates anything: it leaves the underlying state where it
    was and reports a rejection observation.
    """

    observation: Observation
    terminal: bool
    reward: float | None = None
    invalid: bool = False

    def __post_init__(self) -> None:
        if self.terminal and self.reward is None:
            raise ValueError("terminal outcomes must carry a reward")
        if not self.terminal and self.reward is not None:
            raise ValueError("non-terminal outcomes must not carry a reward")


@dataclass
class ReplayResult:
    """Everything replay reconstructs: final state, the outcome of every
    action in order, and the current observation."""

    state: Any
    observation: Observation
    outcomes: list[StepOutcome] = field(default_factory=list)
    terminal: bool = False
    reward: float | None = None


class Environment(ABC):
    name: str = ""

    @abstractmethod
    def initial(self, task: TaskSpec) -> tuple[Any, Observation]:
        """Fresh state and the observation presenting the task."""

    @abstractmethod
    def apply(self, task: TaskSpec, state: Any, action: str) -> tuple[Any, StepOutcome]:
        """Apply one action. Must not mutate ``state``; returns the new one."""

    @abstractmethod
    def check_task(self, task: TaskSpec) -> None:
        """Raise ValueError, naming the task id and key, on a payload this
        environment cannot run."""

    def replay(self, task: TaskSpec, actions: list[str]) -> ReplayResult:
        """Reconstruct the state after ``actions``, validating along the way.

        An empty action list reproduces the initial observation. Replaying an
        action after a terminal outcome is a caller bug and raises
        InvalidStateError.
        """
        state, observation = self.initial(task)
        result = ReplayResult(state=state, observation=observation)
        for position, action in enumerate(actions):
            if result.terminal:
                raise InvalidStateError(
                    f"action at position {position} follows a terminal outcome"
                )
            state, outcome = self.apply(task, result.state, action)
            result.state = state
            result.observation = outcome.observation
            result.outcomes.append(outcome)
            result.terminal = outcome.terminal
            result.reward = outcome.reward
        return result
