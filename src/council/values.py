"""Dual-signal value estimation for freshly expanded children.

Each child gets two raw signals. The judged value comes from one council
member sampled uniformly to score the child's trajectory. The memory value
comes from the routed expert's profile: find the stored segment most similar
to the child and adopt that segment's utility, which is the usage-weighted
success rate (``wins / uses``) of the finished episodes that retrieved it.

Both signal lists, in child order, are min-max normalized over the sibling
set and blended with a weight that favors whichever signal actually spreads
the siblings apart: the weight on the judged signal is its population
standard deviation over the set divided by the two deviations' sum. A signal
that rates every sibling identically carries no ranking information and is
weighted out. The fused values come back as a list in child order, beside
the two spreads and the weight.
"""

from __future__ import annotations

import random
import statistics
from typing import NamedTuple, Sequence

from .experts import Council, evaluate_plausibility
from .memory import EpisodeContext, ExpertProfile
from .trajectory import Trajectory


class Fusion(NamedTuple):
    """One sibling set's fused values, in child order, with the spreads of
    the two raw signals and the weight on the judged one."""

    values: list[float]
    sigma_llm: float
    sigma_sms: float
    alpha: float


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


def fuse_batch(v_llm: Sequence[float], v_sms: Sequence[float]) -> Fusion:
    """Blend one sibling set's two raw signals, given in child order, into
    one fused value per child.

    Spreads are computed on the raw signals, normalization happens per signal
    over the whole sibling set, and the blend weight is shared by the set.
    Every child needs both signals, each in [0, 1].
    """
    if not v_llm or len(v_llm) != len(v_sms):
        raise ValueError(f"a sibling set needs children with both signals, got {v_llm}, {v_sms}")
    for name, signal in (("v_llm", v_llm), ("v_sms", v_sms)):
        for value in signal:
            if value is None or not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
    sigma_llm = statistics.pstdev(v_llm)
    sigma_sms = statistics.pstdev(v_sms)
    alpha = fusion_weight(sigma_llm, sigma_sms)
    fused = [
        alpha * nl + (1.0 - alpha) * ns for nl, ns in zip(normalize(v_llm), normalize(v_sms))
    ]
    return Fusion(fused, sigma_llm, sigma_sms, alpha)
