"""Dual-signal child valuation: raw signals, normalization, spread-weighted blend."""

from __future__ import annotations

import math
import random
import re
import statistics
import sys
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

import council.gateway as gateway
from council.embedding import TrigramEmbedder
from council.errors import BackendConfigError
from council.experts import Council, LLMExpert
from council.gateway import StubBackend
from council.memory import EpisodeContext, ExpertProfile, Query
from council.trajectory import Trajectory
from council.values import (
    Fusion,
    fuse_batch,
    fusion_weight,
    llm_value,
    normalize,
    sms_value,
    spread,
)

from conftest import FixedExpert, make_trajectory, record_history


def test_llm_value_uses_the_only_member():
    council = Council([FixedExpert("a", 0.9)])
    assert llm_value(council, [Trajectory()], random.Random(0)) == [0.9]
    assert llm_value(council, [Trajectory()] * 3, random.Random(0)) == [0.9] * 3


def test_llm_value_samples_members_uniformly():
    council = Council(
        [FixedExpert("a", 0.0), FixedExpert("b", 1.0)]
    )
    rng = random.Random(7)
    draws = llm_value(council, [Trajectory()] * 10_000, rng)
    assert len(draws) == 10_000
    assert abs(statistics.mean(draws) - 0.5) < 0.02


# -- judged values of a sibling set, language-model judges sent at once -------------


def children(count: int) -> list[Trajectory]:
    """``count`` sibling trajectories; each one's evaluate prompt differs."""
    return [
        make_trajectory([("a task", f"move {i}")], pending=f"after move {i}") for i in range(count)
    ]


def child_of(request) -> int:
    """The child an evaluate request scores, read from its prompt."""
    return int(re.search(r"after move (\d+)", request.messages[-1].content).group(1))


class Draws:
    """An ``rng`` whose ``choice`` returns the named members in turn."""

    def __init__(self, council: Council, expert_ids: list[str]):
        self.picks = iter(council.by_id[expert_id] for expert_id in expert_ids)

    def choice(self, members):
        return next(self.picks)


def keyed(replies: dict[int, str], returned: list[int] | None = None, delay_s: float = 0.0):
    """A reply callable keyed on the child a request scores. A reply that is
    an exception class is raised; each child's number is appended to
    ``returned`` as its send returns or raises."""

    def reply(request) -> str:
        child = child_of(request)
        try:
            time.sleep(delay_s)
            answer = replies[child]
            if isinstance(answer, type):
                raise answer(f"child {child} failed")
            return answer
        finally:
            if returned is not None:
                returned.append(child)

    return reply


@pytest.mark.parametrize("count", [1, 2, 5])
def test_llm_value_draws_one_judge_per_child_in_child_order(count):
    stub = StubBackend(lambda request: str(child_of(request)))
    members = [FixedExpert("a", 0.25), LLMExpert("llm", stub)]
    council = Council([*members, FixedExpert("c", 0.75)])
    rng, twin = random.Random(11), random.Random(11)
    values = llm_value(council, children(count), rng)
    judges = [twin.choice(council.experts) for _ in range(count)]
    assert rng.getstate() == twin.getstate()
    expected = [
        i / 10 if judge.expert_id == "llm" else judge.score for i, judge in enumerate(judges)
    ]
    assert values == pytest.approx(expected)
    assert stub.usage.requests == sum(judge.expert_id == "llm" for judge in judges)


def test_scripted_judges_send_nothing_to_the_pool(monkeypatch):
    class NoPool:
        def submit(self, *args, **kwargs):
            raise AssertionError("a scripted sibling set must not use the pool")

    monkeypatch.setattr(gateway, "_SENDS", NoPool())
    council = Council([FixedExpert("a", 0.25), FixedExpert("b", 0.75)])
    values = llm_value(council, children(4), Draws(council, ["a", "b", "b", "a"]))
    assert values == [0.25, 0.75, 0.75, 0.25]


def test_sibling_judges_are_in_flight_at_once():
    barrier = threading.Barrier(3, timeout=5)

    def reply(request) -> str:
        barrier.wait()  # breaks unless all three sends arrive together
        return str(child_of(request) + 1)

    council = Council([LLMExpert("p", StubBackend(reply)), LLMExpert("q", StubBackend(reply))])
    values = llm_value(council, children(3), Draws(council, ["p", "q", "p"]))
    assert values == pytest.approx([0.1, 0.2, 0.3])


def test_an_exhausted_judge_scores_its_child_neutral_and_its_siblings_are_scored():
    dead = StubBackend(keyed({1: "9"}), failures=2)
    live = StubBackend(keyed({0: "2", 2: "8"}))
    council = Council([LLMExpert("dead", dead), LLMExpert("live", live)])
    values = llm_value(council, children(3), Draws(council, ["live", "dead", "live"]))
    assert values == pytest.approx([0.2, 0.5, 0.8])
    assert dead.usage.requests == 2  # the send and its retry, nothing more
    assert live.usage.requests == 2


def test_a_judge_reply_without_a_score_gets_exactly_one_fresh_attempt():
    seen: list[int] = []

    def reply(request) -> str:
        child = child_of(request)
        seen.append(child)
        return "7" if seen.count(child) > 1 or child == 1 else "no score here"

    backend = StubBackend(reply)
    council = Council([LLMExpert("llm", backend)])
    assert llm_value(council, children(2), random.Random(0)) == pytest.approx([0.7, 0.7])
    assert sorted(seen) == [0, 0, 1]

    silent = StubBackend(lambda request: "never a number")
    council = Council([LLMExpert("llm", silent)])
    assert llm_value(council, children(2), random.Random(0)) == [0.5, 0.5]
    assert silent.usage.requests == 4


def test_a_backend_config_error_surfaces_only_once_no_send_is_in_flight():
    returned: list[int] = []
    broken = StubBackend(keyed({}, returned), failures=1, failure_exc=BackendConfigError)
    slow = StubBackend(keyed({1: "6", 2: "4"}, returned, delay_s=0.3))
    council = Council([LLMExpert("broken", broken), LLMExpert("slow", slow)])
    with pytest.raises(BackendConfigError):
        llm_value(council, children(3), Draws(council, ["broken", "slow", "slow"]))
    assert sorted(returned) == [1, 2]  # the slow sends had returned
    assert broken.usage.requests == 1  # a configuration error is not retried


def test_the_first_backend_config_error_in_child_order_is_raised():
    def refused(message: str, delay_s: float):
        def reply(request) -> str:
            time.sleep(delay_s)
            raise BackendConfigError(message)

        return reply

    late = StubBackend(refused("child 0 refused", 0.3))
    early = StubBackend(refused("child 1 refused", 0.0))
    council = Council([LLMExpert("late", late), LLMExpert("early", early)])
    with pytest.raises(BackendConfigError, match="child 0 refused"):
        llm_value(council, children(2), Draws(council, ["late", "early"]))


def test_sms_value_cold_start_on_an_empty_profile():
    profile = ExpertProfile("a", embedder=TrigramEmbedder(64))
    episode = EpisodeContext("ep-cold")
    assert sms_value(profile, Query(Trajectory()), episode=episode) == 0.5
    custom = ExpertProfile("a", embedder=TrigramEmbedder(64), cold_start=0.3)
    assert sms_value(custom, Query(Trajectory()), episode=episode) == 0.3
    assert episode.retrievals() == []


def test_sms_value_is_the_best_matches_utility():
    profile = ExpertProfile("a", embedder=TrigramEmbedder(64))
    stored = make_trajectory([("a task description", "the move")])
    segment = profile.insert(stored)
    record_history(profile, segment.segment_id, [(True, 1), (False, 2)])
    profile.insert(make_trajectory([("an unrelated observation", "another move")]))
    episode = EpisodeContext("ep-match")
    value = sms_value(profile, Query(stored), episode=episode)
    assert value == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert episode.retrievals() == [("a", segment.segment_id, 1)]


def test_sms_value_records_the_retrieval():
    profile = ExpertProfile("a", embedder=TrigramEmbedder(64))
    stored = make_trajectory([("task text", "move")])
    segment = profile.insert(stored)
    episode = EpisodeContext("ep-v")
    sms_value(profile, Query(stored), episode=episode)
    assert episode.retrievals() == [("a", segment.segment_id, 1)]


def test_signals_validate_their_range():
    fuse_batch([0.0], [1.0])
    with pytest.raises(ValueError, match="v_llm"):
        fuse_batch([1.2], [0.5])
    with pytest.raises(ValueError, match="v_sms"):
        fuse_batch([0.5], [-0.1])


# -- normalization -----------------------------------------------------------


def test_normalize_examples():
    assert normalize([0.2, 0.8]) == [0.0, 1.0]
    assert normalize([0.2, 0.5, 0.8]) == pytest.approx([0.0, 0.5, 1.0])
    assert normalize([0.4, 0.4, 0.4]) == [0.5, 0.5, 0.5]
    assert normalize([]) == []
    assert normalize([0.7]) == [0.5]


@given(st.lists(st.floats(0, 1), min_size=1, max_size=10))
def test_normalize_stays_in_unit_range_and_keeps_order(values):
    out = normalize(values)
    assert len(out) == len(values)
    assert all(0.0 <= v <= 1.0 for v in out)
    for i in range(len(values)):
        for j in range(len(values)):
            if values[i] < values[j]:
                assert out[i] <= out[j]


# -- blend weight --------------------------------------------------------------


def test_fusion_weight_examples():
    assert fusion_weight(0.3, 0.3) == 0.5
    assert fusion_weight(0.3, 0.0) == 1.0
    assert fusion_weight(0.0, 0.3) == 0.0
    assert fusion_weight(0.2, 0.1) == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert fusion_weight(0.0, 0.0) == 0.5


def test_fusion_weight_rejects_negative_spreads():
    with pytest.raises(ValueError):
        fusion_weight(-0.1, 0.2)
    with pytest.raises(ValueError):
        fusion_weight(0.1, -0.2)


# -- spread ------------------------------------------------------------------------


def rounds_correctly(root: float, square: Fraction) -> bool:
    """Whether ``root`` is sqrt(square) rounded to the nearest float, ties
    to even: the exact root lies between the midpoints to its neighbours."""
    below, above = math.nextafter(root, 0.0), math.nextafter(root, math.inf)
    low = ((Fraction(below) + Fraction(root)) / 2) ** 2
    high = ((Fraction(root) + Fraction(above)) / 2) ** 2
    if square in (low, high) and root != 0.0:
        return math.frexp(root)[0] * 2**53 % 2 == 0
    return low <= square <= high


_UNIT = st.floats(0, 1)


@given(
    st.one_of(
        st.lists(_UNIT, min_size=1, max_size=8),
        st.builds(lambda value, count: [value] * count, _UNIT, st.integers(1, 8)),
    )
)
def test_spread_is_the_correctly_rounded_population_deviation(values):
    exact = [Fraction(value) for value in values]
    mean = sum(exact) / len(exact)
    variance = sum((x - mean) ** 2 for x in exact) / len(exact)
    root = spread(values)
    assert rounds_correctly(root, variance)
    if len(set(values)) == 1:
        assert root == 0.0
    if sys.version_info >= (3, 11):
        assert root == statistics.pstdev(values)


def test_spread_examples():
    assert spread([0.5]) == 0.0
    assert spread([0.25, 0.25, 0.25]) == 0.0
    assert spread([0.0, 1.0]) == 0.5
    assert spread([0.2, 0.8]) == 0.30000000000000004


# -- batch fusion -----------------------------------------------------------------


def fuse_pairs(pairs: list[tuple[float, float]]):
    return fuse_batch([llm for llm, _ in pairs], [sms for _, sms in pairs])


def test_single_child_fuses_to_neutral():
    fusion = fuse_pairs([(0.9, 0.1)])
    assert fusion.values == [0.5]
    assert fusion.alpha == 0.5


def test_flat_memory_signal_is_weighted_out():
    fusion = fuse_pairs([(0.2, 0.5), (0.8, 0.5)])
    assert fusion.alpha == 1.0
    assert fusion.values == [0.0, 1.0]


def test_flat_judge_signal_is_weighted_out():
    fusion = fuse_pairs([(0.5, 0.2), (0.5, 0.8)])
    assert fusion.alpha == 0.0
    assert fusion.values == [0.0, 1.0]


def test_equal_spreads_blend_evenly():
    fusion = fuse_pairs([(0.2, 0.8), (0.8, 0.2)])
    assert fusion.alpha == pytest.approx(0.5)
    assert fusion.values == pytest.approx([0.5, 0.5])


def test_fusion_fills_in_the_raw_spreads():
    fusion = fuse_pairs([(0.2, 0.1), (0.8, 0.9)])
    assert fusion.sigma_llm == pytest.approx(statistics.pstdev([0.2, 0.8]))
    assert fusion.sigma_sms == pytest.approx(statistics.pstdev([0.1, 0.9]))


def test_missing_signal_is_an_error():
    with pytest.raises(ValueError, match="v_sms"):
        fuse_batch([0.5], [None])
    with pytest.raises(ValueError):
        fuse_batch([0.5, 0.4], [0.5])


def test_empty_sibling_set_is_an_error():
    with pytest.raises(ValueError):
        fuse_batch([], [])


signal_lists = st.lists(
    st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=8
)


@given(signal_lists)
def test_fused_values_stay_in_unit_range(pairs):
    fusion = fuse_pairs(pairs)
    assert len(fusion.values) == len(pairs)
    assert all(0.0 <= v <= 1.0 for v in fusion.values)


@given(st.floats(0, 1), st.floats(0, 1))
def test_a_lone_child_fuses_and_normalizes_to_neutral_whatever_its_signals(llm, sms):
    # The search leans on this to leave a lone child's judge unasked.
    assert fuse_batch([llm], [sms]) == Fusion([0.5], 0.0, 0.0, 0.5)
    assert normalize([llm]) == [0.5]


@given(st.lists(st.tuples(st.floats(0.2, 0.7), st.floats(0, 1)), min_size=2, max_size=6), st.floats(-0.2, 0.3))
# Judged scores one ulp apart: the shift rounds them to one float.
@example([(0.2, 0.5), (0.20000000000000004, 0.5)], 0.2890471807914016)
def test_shifting_the_judged_signal_changes_nothing(pairs, shift):
    base = fuse_pairs(pairs)
    moved = fuse_pairs([(llm + shift, sms) for llm, sms in pairs])
    assert abs(base.sigma_llm - moved.sigma_llm) < 1e-10
    assert abs(base.alpha - moved.alpha) < 1e-10
    for a, b in zip(base.values, moved.values):
        assert abs(a - b) < 1e-10


@given(signal_lists.filter(lambda ps: len(ps) >= 2))
def test_a_child_dominant_in_both_signals_gets_the_top_fused_value(pairs):
    best_llm = max(p[0] for p in pairs)
    best_sms = max(p[1] for p in pairs)
    pairs = pairs + [(min(1.0, best_llm + 0.1), min(1.0, best_sms + 0.1))]
    fused = fuse_pairs(pairs).values
    assert fused[-1] == max(fused)
