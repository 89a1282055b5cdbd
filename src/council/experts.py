"""The expert council: action proposers and plausibility evaluators.

An expert does two things. Given a trajectory so far (and optionally a
retrieved exemplar of a past success, as the stored segment's serialized
text) it proposes candidate next actions, and given a trajectory it scores
how promising the state looks on [0, 1].

The scripted experts, the game24 oracle and the synth family specialists,
are pure functions of (prefix, exemplar, k, seed): every random choice is
drawn from a generator derived from the expert's seed and the call inputs,
so identical calls give identical outputs regardless of call order. That
property is what makes whole planner runs byte-reproducible. Language-model
experts share the same interface through the gateway module; the judges of
one sibling set send their evaluate requests at once, through
:func:`send_evaluations`.
"""

from __future__ import annotations

import functools
from concurrent.futures import Future
from typing import Callable, Mapping, Sequence

from .embedding import TrigramEmbedder
from .errors import ExpertUnavailableError, ProviderError, ScoreParseError
from .gateway import (
    Backend,
    ChatRequest,
    complete,
    complete_all,
    compose_prompt,
    parse_score,
    sample_prompt,
)
from .memory import DEFAULT_CAPACITY, DEFAULT_COLD_START, ExpertProfile
from .seeding import derived_rng
from .trajectory import Action, Trajectory, serialize_trajectory
from .envs.game24 import game24_oracle, legal_actions, parse_numbers
from .envs.synth import SynthConfig, family_vocab, hidden_sequence, parse_view


def current_observation_text(prefix: Trajectory) -> str:
    """The text the next action must respond to."""
    if prefix.pending is not None:
        return prefix.pending.text
    if prefix.steps:
        return prefix.steps[-1].observation.text
    return ""


def first_observation_text(prefix: Trajectory) -> str:
    """The task presentation, which by construction is the first observation."""
    if prefix.steps:
        return prefix.steps[0].observation.text
    if prefix.pending is not None:
        return prefix.pending.text
    return ""


class Expert:
    def __init__(self, expert_id: str):
        if not expert_id:
            raise ValueError("expert_id must be non-empty")
        self.expert_id = expert_id

    def propose(self, prefix: Trajectory, exemplar: str | None, k: int) -> list[str]:
        """Up to ``k`` candidate next actions for ``prefix``. ``exemplar`` is
        the serialized text of a stored segment to cite, or None."""
        raise NotImplementedError

    def plausibility(self, prefix: Trajectory) -> float:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Contract wrappers
# ---------------------------------------------------------------------------


def propose_actions(
    expert: Expert, prefix: Trajectory, exemplar: str | None, k: int
) -> list[Action]:
    """Ask an expert for up to ``k`` distinct candidate actions.

    Exact duplicates (by action text) are dropped, order preserved, and the
    list truncated to ``k``. Backend exhaustion surfaces as
    ExpertUnavailableError for the caller to re-route on.
    """
    if k < 1:
        raise ValueError("proposal count k must be at least 1")
    distinct = dict.fromkeys(expert.propose(prefix, exemplar, k))
    return [Action(text) for text in list(distinct)[:k]]


def evaluate_plausibility(
    expert: Expert, prefix: Trajectory, reply: Future[str] | None = None
) -> float:
    """Score a trajectory on [0, 1], falling back to neutral 0.5.

    The first attempt is ``expert.plausibility``, or, given ``reply``, the
    score in that completion of a language-model expert's evaluate request,
    already sent by :func:`send_evaluations`. An unavailable expert (its
    backend already retried and gave up) scores neutrally at once. A parse
    or provider hiccup earns one fresh attempt, then neutral. Any other
    error, BackendConfigError included, propagates. The returned value is
    always clamped into [0, 1].
    """
    try:
        value = expert.plausibility(prefix) if reply is None else parse_score(reply.result())
    except ExpertUnavailableError:
        return 0.5
    except (ScoreParseError, ProviderError):
        try:
            value = expert.plausibility(prefix)
        except (ScoreParseError, ProviderError, ExpertUnavailableError):
            return 0.5
    return min(1.0, max(0.0, float(value)))


def send_evaluations(
    judges: Sequence[Expert], prefixes: Sequence[Trajectory]
) -> list[Callable[[], float] | None]:
    """Send at once the evaluate request of every language-model judge, where
    ``judges[i]`` scores ``prefixes[i]``.

    The requests go through :func:`~council.gateway.complete_all`, which
    returns once every send has; a set of scripted judges sends nothing.
    Entry i is None for a scripted judge. For a language-model judge it is a
    call that reads the score from the reply under the rules of
    :func:`evaluate_plausibility`.
    """
    sent = [i for i, judge in enumerate(judges) if isinstance(judge, LLMExpert)]
    replies = complete_all(
        [(judges[i].backend, judges[i].evaluate_request(prefixes[i])) for i in sent]
    )
    scores: list[Callable[[], float] | None] = [None] * len(judges)
    for i, reply in zip(sent, replies):
        scores[i] = functools.partial(evaluate_plausibility, judges[i], prefixes[i], reply)
    return scores


# ---------------------------------------------------------------------------
# Scripted experts
# ---------------------------------------------------------------------------


class Game24OracleExpert(Expert):
    """Scripted specialist for the 24 game, backed by the exact solver.

    From a solvable position it replays the solver's solution: the single
    move it fully trusts, nothing else. From an unsolvable position it can
    only offer legal moves in canonical order. Its evaluation is solvability
    of the current multiset, which makes it a sharp value source.
    """

    def __init__(self, expert_id: str):
        super().__init__(expert_id)

    def _numbers(self, prefix: Trajectory) -> tuple[float, ...] | None:
        return parse_numbers(current_observation_text(prefix))

    def propose(self, prefix: Trajectory, exemplar: str | None, k: int) -> list[str]:
        numbers = self._numbers(prefix)
        if numbers is None or len(numbers) <= 1:
            return []
        solvable, witness = game24_oracle(numbers)
        if solvable and witness:
            return [witness[0]]
        return legal_actions(numbers)

    def plausibility(self, prefix: Trajectory) -> float:
        text = current_observation_text(prefix)
        numbers = parse_numbers(text)
        if numbers is None:
            return 0.5
        if len(numbers) == 1:
            return 1.0 if text.startswith("solved") else 0.0
        solvable, _ = game24_oracle(numbers)
        return 1.0 if solvable else 0.0


class SynthSpecialistExpert(Expert):
    """Family specialist for the synthetic environment.

    Inside its own family it wraps the environment oracle: the correct next
    token is always somewhere in its proposal list, mixed among same-family
    decoys at a seeded position. Outside its family it can only offer tokens
    from its own vocabulary, which are all wrong by construction.

    Evaluation reads the progress counters out of the observation. In-family
    states score by fraction completed with a penalty per burned attempt, plus
    clamped Gaussian noise of width ``eval_noise``, so the judge can be made
    arbitrarily unreliable without touching proposals. Foreign-family states
    and terminal states are reported without noise: a flat 0.5 for the former
    and the exact outcome for the latter.
    """

    def __init__(
        self,
        expert_id: str,
        family: str,
        config: SynthConfig | None = None,
        seed: int = 0,
        eval_noise: float = 0.0,
    ):
        super().__init__(expert_id)
        self.family = family
        self.config = config if config is not None else SynthConfig()
        self.seed = seed
        self.eval_noise = eval_noise
        self._vocab = family_vocab(family, self.config)

    def propose(self, prefix: Trajectory, exemplar: str | None, k: int) -> list[str]:
        view = parse_view(current_observation_text(prefix), self.config)
        if view is None or view.solved or view.failed:
            return []
        rng = derived_rng(
            "specialist", self.expert_id, self.seed, serialize_trajectory(prefix), k
        )
        if view.family == self.family:
            correct = hidden_sequence(view.family, view.seed, self.config)[view.done]
            decoys = [t for t in self._vocab if t != correct]
            picks = rng.sample(decoys, min(k - 1, len(decoys)))
            picks.insert(rng.randrange(len(picks) + 1), correct)
            return picks
        return rng.sample(self._vocab, min(k, len(self._vocab)))

    def plausibility(self, prefix: Trajectory) -> float:
        view = parse_view(current_observation_text(prefix), self.config)
        if view is None:
            return 0.5
        if view.solved:
            return 1.0
        if view.failed:
            return 0.0
        if view.family != self.family:
            # Confident ignorance: foreign states get the flat prior with no
            # noise, so an out-of-family judge never fakes discrimination.
            return 0.5
        penalty = 0.35 * (view.missed / view.budget) if view.budget else 0.0
        base = max(0.0, view.done / view.depth - penalty)
        if self.eval_noise > 0.0:
            rng = derived_rng(
                "specialist-eval", self.expert_id, self.seed, serialize_trajectory(prefix)
            )
            base += rng.gauss(0.0, self.eval_noise)
        return min(1.0, max(0.0, base))


# ---------------------------------------------------------------------------
# Language-model backed expert
# ---------------------------------------------------------------------------


class LLMExpert(Expert):
    """An expert whose proposals and evaluations come from a chat backend.

    Proposals sample ``k`` completions at a nonzero temperature so repeated
    draws can differ; the ``k`` requests, tagged sample 1 to ``k``, are in
    flight at once, and their replies are read in sample order. If one
    sample's backend is unavailable, ``propose`` raises
    ExpertUnavailableError once every sample's send has returned.
    Evaluations run at temperature 0 for stability; the judges of a sibling
    set send theirs at once (:func:`send_evaluations`). The task instruction
    placed in the prompt is the trajectory's first observation, which is how
    every bundled environment presents the task.
    """

    def __init__(
        self,
        expert_id: str,
        backend: Backend,
        act_temperature: float = 0.7,
        eval_temperature: float = 0.0,
        max_tokens: int = 256,
        timeout: float = 60.0,
    ):
        super().__init__(expert_id)
        self.backend = backend
        self.act_temperature = act_temperature
        self.eval_temperature = eval_temperature
        self.max_tokens = max_tokens
        self.timeout = timeout

    def propose(self, prefix: Trajectory, exemplar: str | None, k: int) -> list[str]:
        messages = compose_prompt(first_observation_text(prefix), prefix, exemplar, "act")
        settings = (self.act_temperature, self.max_tokens, self.timeout)
        requests = [ChatRequest(sample_prompt(messages, i, k), *settings) for i in range(1, k + 1)]
        actions: list[str] = []
        for sent in complete_all([(self.backend, request) for request in requests]):
            for line in sent.result().splitlines():
                line = line.strip()
                if line:
                    actions.append(line)
                    break
        return actions

    def evaluate_request(self, prefix: Trajectory) -> ChatRequest:
        messages = compose_prompt(first_observation_text(prefix), prefix, None, "evaluate")
        return ChatRequest(messages, self.eval_temperature, self.max_tokens, self.timeout)

    def plausibility(self, prefix: Trajectory) -> float:
        return parse_score(complete(self.backend, self.evaluate_request(prefix)))


# ---------------------------------------------------------------------------
# The council
# ---------------------------------------------------------------------------


class Council:
    """A non-empty roster of experts plus one memory profile per expert.

    Profiles not given are made under ``embedder``, or without one under a
    single trigram embedder that they share."""

    def __init__(
        self,
        experts: Sequence[Expert],
        profiles: Mapping[str, ExpertProfile] | None = None,
        embedder: TrigramEmbedder | None = None,
        capacity: int = DEFAULT_CAPACITY,
        cold_start: float = DEFAULT_COLD_START,
    ):
        if not experts:
            raise ValueError("a council needs at least one expert")
        ids = [e.expert_id for e in experts]
        if len(set(ids)) != len(ids):
            raise ValueError("expert ids must be unique")
        self.experts: list[Expert] = list(experts)
        self.by_id: dict[str, Expert] = {e.expert_id: e for e in experts}
        self.profiles: dict[str, ExpertProfile] = dict(profiles or {})
        embedder = embedder if embedder is not None else TrigramEmbedder()
        for expert in self.experts:
            if expert.expert_id not in self.profiles:
                self.profiles[expert.expert_id] = ExpertProfile(
                    expert.expert_id,
                    capacity=capacity,
                    embedder=embedder,
                    cold_start=cold_start,
                )

    def profile(self, expert_id: str) -> ExpertProfile:
        return self.profiles[expert_id]

    def subset(self, expert_ids: Sequence[str]) -> "Council":
        """A council view over some members, sharing the same profiles."""
        chosen = [self.by_id[eid] for eid in expert_ids]
        return Council(chosen, profiles={eid: self.profiles[eid] for eid in expert_ids})
