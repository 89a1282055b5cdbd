"""Routing strategies: similarity scoring, softmax dispatch, baselines."""

from __future__ import annotations

import random

import pytest
from hypothesis import assume, given, strategies as st

from council.config import ROUTING_STRATEGIES
from council.embedding import TrigramEmbedder
from council.errors import ExpertUnavailableError
from council.experts import Council, Expert
from council.memory import EpisodeContext, Query
from council.routing import route, routing_distribution
from council.trajectory import Trajectory, serialize_trajectory

from conftest import FixedExpert, make_trajectory, record_history, similarity


def council_of(n: int, embedder=None) -> Council:
    experts = [FixedExpert(f"e{i}", 0.5, actions=[f"act{i}"]) for i in range(n)]
    return Council(experts, embedder=embedder or TrigramEmbedder(64))


def task_aware_scores(council: Council, query: Trajectory) -> dict[str, float]:
    return route(council, Query(query), "task-aware", random.Random(0)).scores


def test_scores_are_zero_for_empty_profiles():
    council = council_of(3)
    scores = task_aware_scores(council, make_trajectory([("obs", "act")]))
    assert scores == {"e0": 0.0, "e1": 0.0, "e2": 0.0}


def test_score_is_near_one_for_a_stored_copy_of_the_query():
    council = council_of(2)
    query = make_trajectory([("a long observation body", "the move taken")])
    council.profile("e0").insert(query)
    scores = task_aware_scores(council, query)
    assert scores["e0"] == pytest.approx(1.0)
    assert scores["e1"] == 0.0


def test_scores_match_a_direct_similarity_scan():
    embedder = TrigramEmbedder(64)
    council = council_of(2, embedder=embedder)
    stored = [
        make_trajectory([(f"observation number {i} with text", f"act {i}")]) for i in range(12)
    ]
    for i, t in enumerate(stored):
        council.profile(f"e{i % 2}").insert(t)
    query = make_trajectory([("observation number 7 nearby", "act x")])
    scores = task_aware_scores(council, query)
    qvec = embedder.embed(serialize_trajectory(query))
    for eid in ("e0", "e1"):
        expected = max(
            similarity(qvec, embedder.embed(seg.text))
            for seg in council.profile(eid).segments()
        )
        assert scores[eid] == pytest.approx(expected, abs=1e-12)


# -- softmax -------------------------------------------------------------------


def test_distribution_sums_to_one():
    dist = routing_distribution({"a": 0.3, "b": 0.9, "c": 0.1}, 0.5)
    assert abs(sum(dist.values()) - 1.0) < 1e-12
    assert all(p > 0.0 for p in dist.values())


def test_equal_scores_give_the_uniform_distribution():
    dist = routing_distribution({"a": 0.4, "b": 0.4, "c": 0.4}, 0.25)
    for p in dist.values():
        assert p == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_distribution_hand_value():
    dist = routing_distribution({"a": 1.0, "b": 0.0}, 0.5)
    assert dist["a"] == pytest.approx(0.880797, abs=1e-5)
    assert dist["b"] == pytest.approx(0.119203, abs=1e-5)


def test_high_temperature_flattens_toward_uniform():
    dist = routing_distribution({"a": 1.0, "b": 0.0, "c": 0.5}, 100.0)
    for p in dist.values():
        assert abs(p - 1.0 / 3.0) < 0.01


def test_low_temperature_concentrates_on_the_top_score():
    dist = routing_distribution({"a": 0.9, "b": 0.8, "c": 0.1}, 1e-3)
    assert dist["a"] >= 1.0 - 1e-6


def test_temperature_validation():
    scores = {"a": 1.0}
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            routing_distribution(scores, bad)
    with pytest.raises(ValueError):
        routing_distribution({}, 0.5)


@given(
    st.lists(st.floats(-5, 5), min_size=2, max_size=6),
    st.floats(0.05, 10.0),
    st.floats(-3, 3),
)
def test_distribution_is_shift_invariant(values, temperature, shift):
    base = {f"e{i}": v for i, v in enumerate(values)}
    moved = {f"e{i}": v + shift for i, v in enumerate(values)}
    a = routing_distribution(base, temperature)
    b = routing_distribution(moved, temperature)
    for eid in a:
        assert abs(a[eid] - b[eid]) < 1e-10
    assert abs(sum(a.values()) - 1.0) < 1e-9


# -- dispatch -------------------------------------------------------------------


def test_round_robin_cycles_in_member_order():
    council = council_of(3)
    rng = random.Random(0)
    picks = [
        route(council, Query(Trajectory()), "round-robin", rng, step_index=i).chosen
        for i in range(7)
    ]
    assert picks == ["e0", "e1", "e2", "e0", "e1", "e2", "e0"]


def test_random_strategy_draws_from_the_given_rng():
    council = council_of(3)
    picks = {
        route(council, Query(Trajectory()), "random", random.Random(s)).chosen for s in range(30)
    }
    assert picks == {"e0", "e1", "e2"}
    again = [
        route(council, Query(Trajectory()), "random", random.Random(5)).chosen for _ in range(4)
    ]
    assert len(set(again)) == 1


def test_task_aware_concentrates_on_the_matching_profile():
    council = council_of(2)
    query = make_trajectory([("the one true task text", "its winning move")])
    council.profile("e0").insert(query)
    rng = random.Random(0)
    hits = sum(
        route(council, Query(query), "task-aware", rng, temperature=0.1).chosen == "e0"
        for _ in range(10_000)
    )
    # P(e0) = 1 / (1 + exp(-1 / 0.1)), about 0.99995.
    assert abs(hits / 10_000 - 0.99995) < 0.01


def test_task_aware_with_cold_profiles_is_uniform_and_exemplar_free():
    council = council_of(2)
    decision = route(council, Query(Trajectory()), "task-aware", random.Random(1))
    assert decision.exemplar is None
    assert decision.exemplar_segment_id is None
    assert decision.distribution["e0"] == pytest.approx(0.5)
    assert decision.scores == {"e0": 0.0, "e1": 0.0}


def test_routing_records_the_exemplar_retrieval():
    council = council_of(1)
    query = make_trajectory([("stored task", "stored move")])
    segment = council.profile("e0").insert(query)
    episode = EpisodeContext("ep-route")
    decision = route(council, Query(query), "task-aware", random.Random(0), episode=episode)
    assert decision.chosen == "e0"
    assert decision.exemplar_segment_id == segment.segment_id
    assert decision.exemplar == serialize_trajectory(query)
    assert episode.retrievals() == [("e0", segment.segment_id, 1)]


def test_exemplar_similarity_tie_prefers_higher_utility():
    council = council_of(1)
    profile = council.profile("e0")
    profile.insert(make_trajectory([("obs one", "act one")]))
    second = profile.insert(make_trajectory([("obs two", "act two")]))
    record_history(profile, second.segment_id, [(True, 1)])
    # An empty query embeds to the zero vector, tying every similarity at 0.
    decision = route(council, Query(Trajectory()), "task-aware", random.Random(0))
    assert decision.exemplar_segment_id == second.segment_id


def test_exemplar_full_tie_prefers_the_oldest_segment():
    council = council_of(1)
    profile = council.profile("e0")
    first = profile.insert(make_trajectory([("obs one", "act one")]))
    profile.insert(make_trajectory([("obs two", "act two")]))
    decision = route(council, Query(Trajectory()), "task-aware", random.Random(0))
    assert decision.exemplar_segment_id == first.segment_id


def test_unknown_strategy_is_rejected():
    with pytest.raises(ValueError):
        route(council_of(2), Query(Trajectory()), "greedy", random.Random(0))
    assert "task-aware" in ROUTING_STRATEGIES


# -- voting ---------------------------------------------------------------------


class Unavailable(Expert):
    def propose(self, prefix, exemplar, k):
        raise ExpertUnavailableError("offline")

    def plausibility(self, prefix):
        return 0.5


def test_voting_picks_the_modal_actions_first_proposer():
    experts = [
        FixedExpert("a", 0.5, actions=["left"]),
        FixedExpert("b", 0.5, actions=["right"]),
        FixedExpert("c", 0.5, actions=["right"]),
    ]
    decision = route(Council(experts), Query(Trajectory()), "voting", random.Random(0))
    assert decision.chosen == "b"


def test_voting_tie_goes_to_the_earliest_action():
    experts = [
        FixedExpert("a", 0.5, actions=["left"]),
        FixedExpert("b", 0.5, actions=["right"]),
    ]
    decision = route(Council(experts), Query(Trajectory()), "voting", random.Random(0))
    assert decision.chosen == "a"


def test_voting_skips_unavailable_members():
    experts = [Unavailable("a"), FixedExpert("b", 0.5, actions=["go"])]
    decision = route(Council(experts), Query(Trajectory()), "voting", random.Random(0))
    assert decision.chosen == "b"


def test_voting_with_no_votes_is_unavailable():
    council = Council([Unavailable("a"), Unavailable("b")])
    with pytest.raises(ExpertUnavailableError):
        route(council, Query(Trajectory()), "voting", random.Random(0))


def _modal_first_proposer(votes: list[tuple[str, str]]) -> str:
    """The voting rule stated on its own: the action with the most votes,
    ties to the action proposed first, wins for its first proposer."""
    counts: dict[str, int] = {}
    first_seen: dict[str, int] = {}
    for i, (action, _) in enumerate(votes):
        counts[action] = counts.get(action, 0) + 1
        first_seen.setdefault(action, i)
    winner = max(counts, key=lambda a: (counts[a], -first_seen[a]))
    return next(expert_id for action, expert_id in votes if action == winner)


@given(st.lists(st.sampled_from(["left", "right", "up", None]), min_size=1, max_size=8))
def test_voting_agrees_with_the_modal_first_proposer_rule(actions):
    votes = [(action, f"e{i}") for i, action in enumerate(actions) if action is not None]
    assume(votes)
    experts = [
        FixedExpert(f"e{i}", 0.5, actions=[] if action is None else [action])
        for i, action in enumerate(actions)
    ]
    decision = route(Council(experts), Query(Trajectory()), "voting", random.Random(0))
    assert decision.chosen == _modal_first_proposer(votes)


# -- collaborative ----------------------------------------------------------------


def test_collaborative_defaults_to_the_last_member():
    council = council_of(3)
    decision = route(council, Query(Trajectory()), "collaborative", random.Random(0))
    assert decision.chosen == "e2"

