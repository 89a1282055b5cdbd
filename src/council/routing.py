"""Routing: deciding which expert acts at a decision point.

The task-aware strategy scores each expert by how close the current
trajectory sits to anything in that expert's success memory (the maximum
cosine similarity over the profile), turns the scores into a softmax
distribution, and samples. Whichever strategy is in play, consulting a
profile has a side effect: the top-matching segment's retrieval is recorded
against the running episode, because the retrieval counts credited at
episode end are the raw material of every later utility estimate.

The remaining strategies are baselines for ablation: uniform random,
round-robin on a planner-owned counter, majority voting over one-shot
proposals, and a collaborative mode where a designated aggregator member
always acts.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .config import ROUTING_STRATEGIES
from .errors import ExpertUnavailableError
from .experts import Council, propose_actions
from .memory import EpisodeContext, ExpertProfile, SMSegment, sms_utility
from .trajectory import Trajectory


@dataclass
class RoutingScores:
    """Best-match similarity per expert, in council order. Empty profiles
    score 0."""

    per_expert: dict[str, float]


@dataclass
class RoutingDistribution:
    """Softmax over routing scores. Probabilities are strictly positive and
    sum to 1 within floating-point tolerance."""

    per_expert: dict[str, float]
    temperature: float


@dataclass
class RoutingDecision:
    chosen: str
    strategy: str
    exemplar: Trajectory | None = None
    exemplar_segment_id: str | None = None
    scores: RoutingScores | None = None
    distribution: RoutingDistribution | None = None


def _routing_scores(
    council: Council, query: Trajectory, vectors: dict[int, np.ndarray]
) -> RoutingScores:
    """Maximum query similarity against each expert's stored segments."""
    per_expert: dict[str, float] = {}
    for expert in council.experts:
        profile = council.profile(expert.expert_id)
        if len(profile) == 0:
            per_expert[expert.expert_id] = 0.0
            continue
        match = profile.best_match(_query_vector(profile, query, vectors))
        per_expert[expert.expert_id] = match[1] if match is not None else 0.0
    return RoutingScores(per_expert=per_expert)


def _query_vector(
    profile: ExpertProfile, query: Trajectory, vectors: dict[int, np.ndarray]
) -> np.ndarray:
    """The query under the profile's embedder, embedded once per embedder
    and kept in ``vectors``."""
    key = id(profile.embedder)
    if key not in vectors:
        vectors[key] = profile.embed_query(query)
    return vectors[key]


def routing_distribution(scores: RoutingScores, temperature: float) -> RoutingDistribution:
    """Temperature softmax over the scores, stabilized by max subtraction."""
    if not scores.per_expert:
        raise ValueError("cannot build a distribution over zero experts")
    if not math.isfinite(temperature) or temperature <= 0.0:
        raise ValueError(f"temperature must be positive and finite, got {temperature}")
    values = list(scores.per_expert.values())
    top = max(values)
    weights = [math.exp((v - top) / temperature) for v in values]
    total = sum(weights)
    return RoutingDistribution(
        per_expert={
            eid: w / total for eid, w in zip(scores.per_expert.keys(), weights)
        },
        temperature=temperature,
    )


def _pick_exemplar(
    profile: ExpertProfile,
    query: Trajectory,
    episode: EpisodeContext | None,
    vectors: dict[int, np.ndarray],
) -> SMSegment | None:
    """Best stored segment for the query, with deterministic tie handling.

    Among segments tied on similarity the one with the higher utility wins,
    and a remaining tie goes to the oldest. The retrieval is recorded against
    the episode when one is supplied.
    """
    if len(profile) == 0:
        return None
    sims = profile.match_scores(_query_vector(profile, query, vectors))
    best = float(sims.max())
    segments = profile.segments()
    tied = [segments[i] for i in np.flatnonzero(sims == best)]
    winner = max(
        tied, key=lambda seg: (sms_utility(seg, cold_start=profile.cold_start), -seg.created_at)
    )
    if episode is not None:
        episode.record(profile, winner.segment_id)
    return winner


def route(
    council: Council,
    query: Trajectory,
    strategy: str,
    rng: random.Random,
    step_index: int = 0,
    temperature: float = 0.5,
    episode: EpisodeContext | None = None,
    aggregator: str | None = None,
) -> RoutingDecision:
    """Choose the acting expert for this decision point.

    Every single-expert strategy retrieves an exemplar from the chosen
    expert's profile when it has one; the exemplar accompanies the decision
    so proposal prompts can cite it.
    """
    if strategy not in ROUTING_STRATEGIES:
        raise ValueError(f"unknown routing strategy: {strategy}")
    ids = [e.expert_id for e in council.experts]
    vectors: dict[int, np.ndarray] = {}
    scores: RoutingScores | None = None
    distribution: RoutingDistribution | None = None

    if strategy == "task-aware":
        scores = _routing_scores(council, query, vectors)
        distribution = routing_distribution(scores, temperature)
        chosen = rng.choices(ids, weights=[distribution.per_expert[eid] for eid in ids])[0]
    elif strategy == "random":
        chosen = rng.choice(ids)
    elif strategy == "round-robin":
        chosen = ids[step_index % len(ids)]
    elif strategy == "voting":
        chosen = _voting_choice(council, query)
    else:  # collaborative
        chosen = aggregator if aggregator is not None else ids[-1]
        if chosen not in council.by_id:
            raise ValueError(f"aggregator {chosen!r} is not a council member")

    exemplar = _pick_exemplar(council.profile(chosen), query, episode, vectors)
    return RoutingDecision(
        chosen=chosen,
        strategy=strategy,
        exemplar=exemplar.prefix if exemplar is not None else None,
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
            votes.append((proposals[0].action.text, expert.expert_id))
    if not votes:
        raise ExpertUnavailableError("no council member could cast a voting proposal")
    counts: dict[str, int] = {}
    for action, _ in votes:
        counts[action] = counts.get(action, 0) + 1
    first_seen = {action: i for i, (action, _) in reversed(list(enumerate(votes)))}
    winner_action = max(counts, key=lambda a: (counts[a], -first_seen[a]))
    for action, expert_id in votes:
        if action == winner_action:
            return expert_id
    raise AssertionError("unreachable: winner action has no proposer")
