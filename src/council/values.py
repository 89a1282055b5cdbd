"""Dual-signal value estimation for freshly expanded children.

Each child gets two raw signals. The judged value comes from one council
member sampled uniformly to score the child's trajectory. The memory value
comes from the routed expert's profile: find the stored segment most similar
to the child and adopt that segment's utility, which is the usage-weighted
success rate (``wins / uses``) of the finished episodes that retrieved it.

Both signal lists are min-max normalized over the sibling set and blended
with a weight that favors whichever signal actually spreads the siblings
apart: the weight on the judged signal is its population standard deviation
over the batch divided by the two deviations' sum. A signal that rates every
sibling identically carries no ranking information and is weighted out.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from typing import Hashable, Sequence

from .experts import Council, evaluate_plausibility
from .memory import EpisodeContext, ExpertProfile
from .trajectory import Trajectory


@dataclass
class ValueSignals:
    """Raw per-child signals, each in [0, 1] when present."""

    v_llm: float | None = None
    v_sms: float | None = None

    def __post_init__(self) -> None:
        for name, value in (("v_llm", self.v_llm), ("v_sms", self.v_sms)):
            if value is not None and not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")


@dataclass
class SiblingBatch:
    """One expansion's children, keyed by any hashable id, plus fusion stats."""

    children: list[tuple[Hashable, ValueSignals]]
    sigma_llm: float | None = None
    sigma_sms: float | None = None
    alpha: float | None = None


def llm_value(council: Council, prefix: Trajectory, rng: random.Random) -> float:
    """Score from one uniformly sampled council member."""
    return evaluate_plausibility(rng.choice(council.experts), prefix)


def sms_value(
    profile: ExpertProfile, prefix: Trajectory, episode: EpisodeContext | None = None
) -> float:
    """Utility of the profile's closest stored segment.

    An empty profile yields the cold-start prior. A consulted match is
    recorded against the episode when one is supplied.
    """
    match = profile.best_match(prefix)
    if match is None:
        return profile.cold_start
    segment, _score = match
    if episode is not None:
        episode.record(profile, segment.segment_id)
    return profile.utility(segment)


def normalize(values: Sequence[float]) -> list[float]:
    """Min-max normalize onto [0, 1]; a degenerate spread maps everything
    to 0.5."""
    if not values:
        return []
    lo = min(values)
    hi = max(values)
    if hi == lo:
        return [0.5] * len(values)
    return [(v - lo) / (hi - lo) for v in values]


def fusion_weight(spread_llm: float, spread_sms: float) -> float:
    """Weight on the judged signal: its share of the total sibling spread."""
    if spread_llm < 0.0 or spread_sms < 0.0:
        raise ValueError("signal spreads cannot be negative")
    total = spread_llm + spread_sms
    if total == 0.0:
        return 0.5
    return spread_llm / total


def fuse_batch(batch: SiblingBatch) -> dict[Hashable, float]:
    """Blend both signals into one fused value per child.

    Spreads are computed on the raw signals, normalization happens per signal
    over the whole sibling set, and the blend weight is shared by the batch.
    The batch's sigma and alpha fields are filled in as a side effect.
    """
    if not batch.children:
        return {}
    for key, signals in batch.children:
        if signals.v_llm is None or signals.v_sms is None:
            raise ValueError(f"child {key!r} is missing a raw signal")
    raw_llm = [signals.v_llm for _, signals in batch.children]
    raw_sms = [signals.v_sms for _, signals in batch.children]
    batch.sigma_llm = statistics.pstdev(raw_llm)
    batch.sigma_sms = statistics.pstdev(raw_sms)
    batch.alpha = fusion_weight(batch.sigma_llm, batch.sigma_sms)
    norm_llm = normalize(raw_llm)
    norm_sms = normalize(raw_sms)
    return {
        key: batch.alpha * nl + (1.0 - batch.alpha) * ns
        for (key, _), nl, ns in zip(batch.children, norm_llm, norm_sms)
    }
