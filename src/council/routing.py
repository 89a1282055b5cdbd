"""Routing: deciding which expert acts at a decision point.

The task-aware strategy scores each expert by how close the current
trajectory sits to anything in that expert's success memory (the maximum
cosine similarity over the profile), turns the scores into a softmax
distribution, and samples. Scores and distribution are plain dicts from
expert id to number, in council order. Whichever strategy is in play,
consulting a profile has a side effect: the top-matching segment's
retrieval is recorded against the running episode, because the retrieval
counts credited at episode end are the raw material of every later utility
estimate.

The remaining strategies are baselines for ablation: uniform random,
round-robin on a planner-owned counter, majority voting over one-shot
proposals, and a collaborative mode where the council's last member always
acts.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass

from .config import ROUTING_STRATEGIES
from .errors import ExpertUnavailableError
from .experts import Council, propose_actions
from .memory import EpisodeContext, Query
from .trajectory import Trajectory


@dataclass
class RoutingDecision:
    chosen: str
    strategy: str
    exemplar: str | None = None
    exemplar_segment_id: str | None = None
    scores: dict[str, float] | None = None
    distribution: dict[str, float] | None = None


def _routing_scores(council: Council, query: Query) -> dict[str, float]:
    """Maximum query similarity against each expert's stored segments, by
    expert id in council order. An empty profile scores 0."""
    scores: dict[str, float] = {}
    for expert in council.experts:
        profile = council.profile(expert.expert_id)
        match = profile.best_match(query)
        scores[expert.expert_id] = match[1] if match is not None else 0.0
    return scores


def routing_distribution(scores: dict[str, float], temperature: float) -> dict[str, float]:
    """Temperature softmax over the scores, stabilized by max subtraction.

    The probabilities keep the scores' keys and order; each is strictly
    positive and they sum to 1 within floating-point tolerance.
    """
    if not scores:
        raise ValueError("cannot build a distribution over zero experts")
    if not math.isfinite(temperature) or temperature <= 0.0:
        raise ValueError(f"temperature must be positive and finite, got {temperature}")
    top = max(scores.values())
    weights = [math.exp((v - top) / temperature) for v in scores.values()]
    total = sum(weights)
    return {eid: w / total for eid, w in zip(scores, weights)}


def route(
    council: Council,
    query: Query,
    strategy: str,
    rng: random.Random,
    step_index: int = 0,
    temperature: float = 0.5,
    episode: EpisodeContext | None = None,
) -> RoutingDecision:
    """Choose the acting expert for this decision point.

    Every single-expert strategy retrieves an exemplar from the chosen
    expert's profile when it has one (see ``ExpertProfile.exemplar``) and
    records the retrieval against the episode when one is supplied; the
    exemplar's serialized text accompanies the decision so proposal prompts
    can cite it. The decision point is given as a :class:`Query`, a search
    node's retrieval state, which keeps every scan made here for the node
    and its children.
    """
    if strategy not in ROUTING_STRATEGIES:
        raise ValueError(f"unknown routing strategy: {strategy}")
    ids = [e.expert_id for e in council.experts]
    scores: dict[str, float] | None = None
    distribution: dict[str, float] | None = None

    if strategy == "task-aware":
        scores = _routing_scores(council, query)
        distribution = routing_distribution(scores, temperature)
        chosen = rng.choices(ids, weights=[distribution[eid] for eid in ids])[0]
    elif strategy == "random":
        chosen = rng.choice(ids)
    elif strategy == "round-robin":
        chosen = ids[step_index % len(ids)]
    elif strategy == "voting":
        chosen = _voting_choice(council, query.trajectory)
    else:  # collaborative
        chosen = ids[-1]

    profile = council.profile(chosen)
    exemplar = profile.exemplar(query)
    if exemplar is not None and episode is not None:
        episode.record(profile, exemplar.segment_id)
    return RoutingDecision(
        chosen=chosen,
        strategy=strategy,
        exemplar=exemplar.text if exemplar is not None else None,
        exemplar_segment_id=exemplar.segment_id if exemplar is not None else None,
        scores=scores,
        distribution=distribution,
    )


def _voting_choice(council: Council, query: Trajectory) -> str:
    """Each member proposes one action; the modal action's first proposer wins.

    Ties on vote count go to the action proposed earliest in member order.
    Members whose backend is unavailable simply lose their vote.
    """
    votes: list[tuple[str, str]] = []
    for expert in council.experts:
        try:
            proposals = propose_actions(expert, query, None, 1)
        except ExpertUnavailableError:
            continue
        if proposals:
            votes.append((proposals[0].text, expert.expert_id))
    if not votes:
        raise ExpertUnavailableError("no council member could cast a voting proposal")
    counts = Counter(action for action, _ in votes)
    top = max(counts.values())
    return next(expert_id for action, expert_id in votes if counts[action] == top)
