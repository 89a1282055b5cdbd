"""The 24 game: combine four numbers with +, -, *, / to reach exactly 24.

Actions are single binary operations written as "a op b = c", for example
"10*10=100". Both operands must be present in the current number multiset
(matched within 1e-6); they are consumed and the result is added, so each
action shrinks the multiset by one. The episode is terminal when one number
remains, rewarded 1.0 when that number is 24 within 1e-6.

``game24_oracle`` decides solvability by searching the same move space as
the environment (recursive pair reduction) and returns a replayable witness.
The test suite checks it against an expression enumerator whose arithmetic
is its own, so the two share no code path.
"""

from __future__ import annotations

import math
import re
import sys
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from ..errors import InvalidStateError
from ..seeding import derived_rng
from ..trajectory import Observation
from .base import Environment, StepOutcome, TaskSpec

TARGET = 24.0
MATCH_TOL = 1e-6
RESULT_TOL = 1e-4
DIV_EPS = 1e-9

_ACTION_RE = re.compile(
    r"^\s*(-?\d+(?:\.\d+)?)\s*([-+*/x×÷−])\s*(-?\d+(?:\.\d+)?)\s*=\s*(-?\d+(?:\.\d+)?)\s*$"
)

_OP_CANON = {"+": "+", "-": "-", "−": "-", "*": "*", "x": "*", "×": "*", "/": "/", "÷": "/"}


def format_number(x: float) -> str:
    if abs(x - round(x)) < 1e-9:
        return str(int(round(x)))
    return format(x, ".10g")


def format_numbers(numbers: Iterable[float]) -> str:
    return " ".join(format_number(x) for x in sorted(numbers))


def _observation(numbers: Sequence[float], note: str = "") -> Observation:
    body = f"numbers: {format_numbers(numbers)}"
    if note:
        body = f"{note}; {body}"
    return Observation(body)


def parse_numbers(observation_text: str) -> tuple[float, ...] | None:
    """Pull the current multiset back out of an observation's text."""
    match = re.search(r"numbers: ([-\d. ]*)", observation_text)
    if match is None:
        return None
    fields = match.group(1).split()
    try:
        return tuple(float(f) for f in fields)
    except ValueError:
        return None


def _apply_op(a: float, op: str, b: float) -> float | None:
    """The result, or None for a division by (near) zero or an overflow."""
    if op == "+":
        value = a + b
    elif op == "-":
        value = a - b
    elif op == "*":
        value = a * b
    elif abs(b) < DIV_EPS:
        return None
    else:
        value = a / b
    return value if math.isfinite(value) else None


def _take(numbers: Sequence[float], value: float) -> list[float] | None:
    """Remove one element matching ``value`` within tolerance, or None."""
    remaining = list(numbers)
    for i, x in enumerate(remaining):
        if abs(x - value) <= MATCH_TOL:
            del remaining[i]
            return remaining
    return None


def _end(number: float) -> tuple[str, float]:
    """The note and reward of a game down to its last number: solved when
    that number is 24 within tolerance, failed otherwise."""
    return ("solved", 1.0) if abs(number - TARGET) <= MATCH_TOL else ("failed", 0.0)


def game24_step(numbers: Sequence[float], action: str) -> tuple[tuple[float, ...], StepOutcome]:
    """Apply one combining action to the current multiset.

    Malformed actions, absent operands, division by (near) zero, a result
    that overflows, and a stated result that disagrees with the actual
    arithmetic all reject the action:
    the multiset is unchanged and the outcome is flagged invalid.
    """
    numbers = tuple(numbers)
    if len(numbers) <= 1:
        raise InvalidStateError("no action is applicable to a terminal state")

    def reject(reason: str) -> tuple[tuple[float, ...], StepOutcome]:
        return numbers, StepOutcome(
            observation=_observation(numbers, f"invalid action ({reason})"),
            terminal=False,
            invalid=True,
        )

    match = _ACTION_RE.match(action)
    if match is None:
        return reject("expected 'a op b = c'")
    a = float(match.group(1))
    op = _OP_CANON[match.group(2)]
    b = float(match.group(3))
    stated = float(match.group(4))

    rest = _take(numbers, a)
    if rest is None:
        return reject(f"{format_number(a)} is not available")
    rest = _take(rest, b)
    if rest is None:
        return reject(f"{format_number(b)} is not available")
    value = _apply_op(a, op, b)
    if value is None:
        return reject("division by zero" if op == "/" and abs(b) < DIV_EPS else "overflow")
    if abs(value - stated) > RESULT_TOL:
        return reject(f"{format_number(a)}{op}{format_number(b)} is not {format_number(stated)}")

    new_numbers = tuple(rest + [value])
    if len(new_numbers) == 1:
        note, reward = _end(new_numbers[0])
        return new_numbers, StepOutcome(
            observation=_observation(new_numbers, note), terminal=True, reward=reward
        )
    return new_numbers, StepOutcome(observation=_observation(new_numbers), terminal=False)


def _moves(numbers: Sequence[float]) -> Iterator[tuple[float, str, float, float, list[float]]]:
    """Every ``(a, op, b, value, rest)`` that combines two of ``numbers`` by
    position, ``rest`` holding the others. Sums and products take their
    operands in position order only, and a division by (near) zero or a
    result that overflows is no move."""
    for i, a in enumerate(numbers):
        for j, b in enumerate(numbers):
            if i == j:
                continue
            rest = [x for t, x in enumerate(numbers) if t not in (i, j)]
            for op in "+-*/":
                if op in "+*" and j < i:
                    continue
                value = _apply_op(a, op, b)
                if value is not None:
                    yield a, op, b, value, rest


def _action(a: float, op: str, b: float, value: float) -> str:
    return f"{format_number(a)}{op}{format_number(b)}={format_number(value)}"


def legal_actions(numbers: Sequence[float]) -> list[str]:
    """Every applicable action from this multiset, in a canonical order."""
    moves = _moves(sorted(numbers))
    return list(dict.fromkeys(_action(a, op, b, value) for a, op, b, value, _ in moves))


# ---------------------------------------------------------------------------
# Solvability oracle
# ---------------------------------------------------------------------------


def _memo_key(numbers: Sequence[float]) -> tuple[float, ...]:
    return tuple(sorted(round(x, 9) for x in numbers))


@lru_cache(maxsize=200_000)
def _solve(key: tuple[float, ...]) -> tuple[str, ...] | None:
    if len(key) == 1:
        return () if abs(key[0] - TARGET) <= MATCH_TOL else None
    for a, op, b, value, rest in _moves(key):
        tail = _solve(_memo_key(rest + [value]))
        if tail is not None:
            return (_action(a, op, b, value),) + tail
    return None


def game24_oracle(numbers: Sequence[float]) -> tuple[bool, list[str] | None]:
    """Decide solvability by searching the environment's own move space.

    Returns (solvable, witness). The witness is a list of actions that
    replays through ``game24_step`` to a terminal reward of 1.0.
    """
    witness = _solve(_memo_key(numbers))
    if witness is None:
        return False, None
    return True, list(witness)


# ---------------------------------------------------------------------------
# Environment wrapper and task generation
# ---------------------------------------------------------------------------


class Game24Env(Environment):
    name = "game24"

    def check_task(self, task: TaskSpec) -> None:
        numbers = task.payload if isinstance(task.payload, list) else []
        # The bound rules out NaN too, and compares an int of any size exactly.
        finite = (type(x) in (int, float) and abs(x) <= sys.float_info.max for x in numbers)
        if not numbers or not all(finite):
            raise ValueError(
                f"task {task.task_id!r}: key 'payload': "
                "expected a non-empty list of finite numbers"
            )

    def initial(self, task: TaskSpec) -> tuple[tuple[float, ...], Observation]:
        numbers = tuple(float(x) for x in task.payload)
        if not numbers:
            raise ValueError("game24 payload must contain at least one number")
        if len(numbers) == 1:
            # Degenerate but well defined: nothing to combine.
            return numbers, _observation(numbers, _end(numbers[0])[0])
        return numbers, _observation(numbers, "make 24")

    def apply(
        self, task: TaskSpec, state: tuple[float, ...], action: str
    ) -> tuple[tuple[float, ...], StepOutcome]:
        return game24_step(state, action)

    def replay(self, task, actions):
        result = super().replay(task, actions)
        if not actions and len(result.state) == 1:
            result.terminal = True
            result.reward = _end(result.state[0])[1]
        return result


def make_game24_tasks(count: int, seed: int, low: int = 1, high: int = 13) -> list[TaskSpec]:
    """Sample ``count`` distinct solvable four-number tasks, deterministically.

    Raises ValueError once every multiset in ``[low, high]`` has been drawn
    and fewer than ``count`` of them are solvable.
    """
    rng = derived_rng("game24-tasks", seed)
    multisets = math.comb(high - low + 4, 4)
    tasks: list[TaskSpec] = []
    seen: set[tuple[int, ...]] = set()
    while len(tasks) < count:
        if len(seen) == multisets:
            raise ValueError(
                f"only {len(tasks)} of the {multisets} four-number multisets in "
                f"[{low}, {high}] are solvable, fewer than the {count} asked for"
            )
        combo = tuple(sorted(rng.randint(low, high) for _ in range(4)))
        if combo in seen:
            continue
        seen.add(combo)
        solvable, _ = game24_oracle(combo)
        if not solvable:
            continue
        name = "-".join(str(x) for x in combo)
        tasks.append(TaskSpec(task_id=f"g24-{name}", environment="game24", payload=list(combo)))
    return tasks
