"""Dual-signal value estimation for freshly expanded children.

Each child gets two raw signals. The judged value comes from one council
member sampled uniformly to score the child's trajectory; a sibling set's
language-model judges are asked at once. The memory value comes from the
routed expert's profile: find the stored segment most similar to the child
and adopt that segment's utility, which is the usage-weighted success rate
(``wins / uses``) of the finished episodes that retrieved it.

Both signal lists, in child order, are min-max normalized over the sibling
set and blended with a weight that favors whichever signal actually spreads
the siblings apart: the weight on the judged signal is its population
standard deviation over the set divided by the two deviations' sum. A signal
that rates every sibling alike carries no ranking information and is
weighted out. The fused values come back as a list in child order, beside
the two spreads and the weight. Each deviation is computed exactly and
rounded once, so it is the same float on every interpreter.
"""

from __future__ import annotations

import math
import random
import sys
from typing import NamedTuple, Sequence

from .experts import Council, evaluate_plausibility, send_evaluations
from .memory import EpisodeContext, ExpertProfile, Query
from .trajectory import Trajectory

# Bits of the integer square root that spread() rounds to a float: twice the
# float mantissa plus three, enough for round-to-odd to round correctly.
_SQRT_BITS = 2 * sys.float_info.mant_dig + 3


class Fusion(NamedTuple):
    """One sibling set's fused values, in child order, with the spreads of
    the two raw signals and the weight on the judged one."""

    values: list[float]
    sigma_llm: float
    sigma_sms: float
    alpha: float


def llm_value(
    council: Council, prefixes: Sequence[Trajectory], rng: random.Random
) -> list[float]:
    """Judged values of a sibling set, given as the children's trajectories.

    Each child's judge is a council member drawn uniformly, one ``rng`` draw
    per child in child order. The language-model judges' requests are sent
    at once (:func:`~council.experts.send_evaluations`); then each child is
    scored in child order under the fallback rules of
    :func:`~council.experts.evaluate_plausibility`, so a BackendConfigError
    is raised only once no send is in flight, and it is the first child's.
    """
    judges = [rng.choice(council.experts) for _ in prefixes]
    sent = send_evaluations(judges, prefixes)
    return [
        evaluate_plausibility(judge, prefix) if score is None else score()
        for judge, prefix, score in zip(judges, prefixes, sent)
    ]


def sms_value(
    profile: ExpertProfile, query: Query, episode: EpisodeContext | None = None
) -> float:
    """Utility of the profile's closest stored segment to the child, given
    as its node's :class:`Query`.

    An empty profile yields the cold-start prior. A consulted match is
    recorded against the episode when one is supplied.
    """
    match = profile.best_match(query)
    if match is None:
        return profile.cold_start
    segment, _score = match
    if episode is not None:
        episode.record(profile, segment.segment_id)
    return profile.utility(segment)


def _is_flat(values: Sequence[float]) -> bool:
    """Whether a signal's range is at most 1e-12, which in [0, 1] is rounding
    noise, not a spread. The bound is absolute, not a count of ulps: a shift
    of the signal changes its ulp size."""
    return max(values) - min(values) <= 1e-12


def normalize(values: Sequence[float]) -> list[float]:
    """Min-max normalize onto [0, 1]; a flat signal maps everything to 0.5."""
    if not values:
        return []
    if _is_flat(values):
        return [0.5] * len(values)
    lo = min(values)
    span = max(values) - lo
    return [(v - lo) / span for v in values]


def spread(values: Sequence[float]) -> float:
    """Population standard deviation, correctly rounded.

    Every float is an integer over a power of two, so over their largest
    denominator D the variance is exactly ``(n·Σa² − (Σa)²) / (n·D)²`` in
    integers a. Its square root is taken with ``math.isqrt`` to
    ``_SQRT_BITS`` bits, rounded to odd, and rounded once more to a float:
    the value Python 3.11's ``statistics.pstdev`` returns.
    """
    ratios = [value.as_integer_ratio() for value in values]
    denominator = max(d for _, d in ratios)
    scaled = [n * (denominator // d) for n, d in ratios]
    count, total = len(scaled), sum(scaled)
    numerator = count * sum(a * a for a in scaled) - total * total
    divisor = (count * denominator) ** 2
    shift = (numerator.bit_length() - divisor.bit_length() - _SQRT_BITS) // 2
    if shift >= 0:
        return float(_sqrt_to_odd(numerator, divisor << 2 * shift) << shift)
    return _sqrt_to_odd(numerator << -2 * shift, divisor) / (1 << -shift)


def _sqrt_to_odd(numerator: int, divisor: int) -> int:
    """The integer part of sqrt(numerator / divisor), its last bit set when
    the root is inexact (round to odd)."""
    root = math.isqrt(numerator // divisor)
    return root | (root * root * divisor != numerator)


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
    over the whole sibling set, and the blend weight is shared by the set. A
    flat signal (see :func:`_is_flat`) has spread 0 and normalizes to 0.5.
    Every child needs both signals, each in [0, 1].
    """
    if not v_llm or len(v_llm) != len(v_sms):
        raise ValueError(f"a sibling set needs children with both signals, got {v_llm}, {v_sms}")
    for name, signal in (("v_llm", v_llm), ("v_sms", v_sms)):
        for value in signal:
            if value is None or not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
    sigma_llm = 0.0 if _is_flat(v_llm) else spread(v_llm)
    sigma_sms = 0.0 if _is_flat(v_sms) else spread(v_sms)
    alpha = fusion_weight(sigma_llm, sigma_sms)
    fused = [
        alpha * nl + (1.0 - alpha) * ns for nl, ns in zip(normalize(v_llm), normalize(v_sms))
    ]
    return Fusion(fused, sigma_llm, sigma_sms, alpha)
