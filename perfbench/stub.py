"""The simulated language model behind the llm-stub workload.

``StubReplies`` is the reply callable of a ``StubBackend``. It reads the
current observation out of the prompt and answers as a specialist of one
synth family: in its own family it proposes the correct next token most of
the time and scores states by progress; outside it, it proposes one of its
own tokens and returns the flat prior. Every send first sleeps a fixed
latency. A reply is a pure function of the request text and of how many
times that text was sent before, so the k identical proposal requests of one
expansion can differ the way temperature sampling does, and reruns of a
seed are identical. The same hash fails a fixed share of sends with
``ProviderError``.
"""

from __future__ import annotations

import hashlib
import time
from collections import Counter

from council.envs.synth import SynthConfig, family_vocab, hidden_sequence, parse_view
from council.errors import ProviderError
from council.gateway import DEFAULT_TEMPLATES, ChatRequest
from council.trajectory import parse_trajectory

# Share of in-family proposal requests answered with the correct token.
IN_FAMILY_ACCURACY = 0.8


def _draw(*parts: object) -> int:
    key = "|".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


def current_observation(user_text: str) -> str:
    """The pending observation of the prompt's current-trajectory region."""
    header = DEFAULT_TEMPLATES.current_header + "\n"
    region = user_text[user_text.rindex(header) + len(header):]
    serialized = region[: region.rindex("\n") + 1]
    trajectory = parse_trajectory(serialized)
    if trajectory.pending is not None:
        return trajectory.pending.text
    return trajectory.steps[-1].observation.text if trajectory.steps else ""


class StubReplies:
    """Reply callable for one family's ``StubBackend``; counts what it sees."""

    def __init__(
        self,
        family: str,
        latency_s: float,
        failure_per_mille: int,
        config: SynthConfig | None = None,
    ):
        self.family = family
        self.latency_s = latency_s
        self.failure_per_mille = failure_per_mille
        self.config = config if config is not None else SynthConfig()
        self.vocab = family_vocab(family, self.config)
        self.sends = 0
        self.failures = 0
        self._seen: Counter[str] = Counter()

    def __call__(self, request: ChatRequest) -> str:
        text = "\n".join(message.content for message in request.messages)
        repeat = self._seen[text]
        self._seen[text] += 1
        self.sends += 1
        time.sleep(self.latency_s)
        if _draw("fail", repeat, text) % 1000 < self.failure_per_mille:
            self.failures += 1
            raise ProviderError("stub gateway: injected failure")
        view = parse_view(current_observation(request.messages[-1].content), self.config)
        if request.messages[0].content == DEFAULT_TEMPLATES.system_act:
            return self._act(view, _draw("act", repeat, text))
        return self._evaluate(view)

    def _act(self, view, draw: int) -> str:
        if view is not None and view.family == self.family and not (view.solved or view.failed):
            if draw % 1000 < IN_FAMILY_ACCURACY * 1000:
                return hidden_sequence(view.family, view.seed, self.config)[view.done]
        return self.vocab[(draw >> 10) % len(self.vocab)]

    def _evaluate(self, view) -> str:
        """A score on the 0 to 10 scale the evaluate prompt asks for."""
        if view is None or (view.family != self.family and not (view.solved or view.failed)):
            return "5"
        if view.solved:
            return "10"
        if view.failed:
            return "0"
        penalty = 0.35 * (view.missed / view.budget) if view.budget else 0.0
        return str(round(10 * max(0.0, view.done / view.depth - penalty)))
