"""Tree search: selection rule, value backup, and whole-episode behavior."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from council.config import PlannerConfig, SearchBudget
from council.embedding import TrigramEmbedder
from council.envs.base import Environment, TaskSpec
from council.envs.game24 import Game24Env
from council import experts
from council.envs.synth import SynthConfig, SynthEnv, parse_view
from council.errors import ExpertUnavailableError
from council.experts import (
    Council,
    Expert,
    Game24OracleExpert,
    SynthSpecialistExpert,
)
from council.memory import Query
from council.mcts import (
    SearchTree,
    backpropagate,
    search,
    select_path,
    uct_score,
)
from council.trajectory import Trajectory, serialize_trajectory

from conftest import FixedExpert


def test_unvisited_nodes_score_infinite():
    assert uct_score(0.0, 0, 5, 1.0) == math.inf


def test_zero_exploration_reduces_to_the_mean_value():
    assert uct_score(0.7, 3, 9, 0.0) == 0.7


def test_uct_hand_value():
    got = uct_score(0.5, 2, 8, 1.0)
    assert got == pytest.approx(0.5 + math.sqrt(math.log(8) / 2), abs=1e-12)
    assert got == pytest.approx(1.5196670, abs=1e-4)


def test_parent_visit_floor_avoids_a_negative_bonus():
    # ln(0) and ln of a parent with fewer visits than 1 must not poison the
    # score; the bonus floor is ln(1) = 0.
    assert uct_score(0.4, 1, 0, 1.0) == 0.4


def test_backpropagation_tracks_the_running_mean():
    tree = SearchTree()
    node = tree.add(Query(Trajectory()))
    backpropagate([node], 0.8)
    assert node.visits == 1
    assert node.value == pytest.approx(0.8)
    backpropagate([node], 0.2)
    assert node.visits == 2
    assert node.value == pytest.approx(0.5)
    backpropagate([node], 0.5)
    assert node.visits == 3
    assert node.value == pytest.approx(0.5)


def test_backpropagation_updates_the_whole_path():
    tree = SearchTree()
    root = tree.add(Query(Trajectory()))
    child = tree.add(Query(Trajectory()), parent=0)
    root.children.append(child.node_id)
    backpropagate([root, child], 1.0)
    assert root.visits == 1 and child.visits == 1
    assert root.value == 1.0 and child.value == 1.0


def linked_child(tree: SearchTree, parent, **kwargs):
    child = tree.add(Query(Trajectory()), parent=parent.node_id, **kwargs)
    parent.children.append(child.node_id)
    return child


def test_selection_stops_at_a_childless_root():
    tree = SearchTree()
    root = tree.add(Query(Trajectory()))
    assert select_path(tree, 1.0) == [root]


def test_selection_descends_the_higher_uct_child():
    tree = SearchTree()
    root = tree.add(Query(Trajectory()))
    root.visits = 10
    low = linked_child(tree, root)
    low.visits, low.value = 5, 0.2
    high = linked_child(tree, root)
    high.visits, high.value = 5, 0.6
    assert [n.node_id for n in select_path(tree, 1.0)] == [0, high.node_id]


def test_unvisited_ties_break_on_fused_value_then_creation_order():
    tree = SearchTree()
    root = tree.add(Query(Trajectory()))
    root.visits = 2
    a = linked_child(tree, root)
    a.fused_value = 0.3
    b = linked_child(tree, root)
    b.fused_value = 0.9
    assert select_path(tree, 1.0)[-1] is b
    c = linked_child(tree, root)
    c.fused_value = 0.9
    # b and c tie on fused value; the earlier node wins.
    assert select_path(tree, 1.0)[-1] is b


def test_exploration_bonus_can_overturn_a_value_lead():
    tree = SearchTree()
    root = tree.add(Query(Trajectory()))
    root.visits = 100
    rare = linked_child(tree, root)
    rare.visits, rare.value = 1, 0.3
    common = linked_child(tree, root)
    common.visits, common.value = 90, 0.5
    assert select_path(tree, 1.0)[-1] is rare
    assert select_path(tree, 0.0)[-1] is common


@st.composite
def random_trees(draw):
    tree = SearchTree()
    tree.add(Query(Trajectory()))
    count = draw(st.integers(2, 12))
    for _ in range(count):
        parent = tree.node(draw(st.integers(0, len(tree.nodes) - 1)))
        child = linked_child(tree, parent)
        child.visits = draw(st.integers(0, 5))
        child.value = draw(st.floats(0, 1))
        child.fused_value = draw(st.one_of(st.none(), st.floats(0, 1)))
    for node in tree.nodes:
        node.visits = max(node.visits, sum(tree.node(c).visits for c in node.children))
    return tree


@given(random_trees(), st.floats(0.0, 2.0))
def test_every_selection_step_is_sibling_maximal(tree, exploration):
    path = select_path(tree, exploration)
    assert path[0] is tree.root
    assert not path[-1].children
    for parent, chosen in zip(path, path[1:]):
        assert chosen.node_id in parent.children

        def key(ch):
            return (
                uct_score(ch.value, ch.visits, parent.visits, exploration),
                ch.fused_value if ch.fused_value is not None else 0.0,
                -ch.node_id,
            )

        assert all(key(chosen) >= key(tree.node(cid)) for cid in parent.children)


# -- whole searches ----------------------------------------------------------


def planner(**kwargs) -> PlannerConfig:
    budget = SearchBudget(
        iterations=kwargs.pop("iterations", 10),
        expansion_width=kwargs.pop("expansion_width", 2),
        max_depth=kwargs.pop("max_depth", 6),
    )
    return PlannerConfig(budget=budget, **kwargs)


def synth_task(family: str = "amber", seed: int = 7) -> TaskSpec:
    return TaskSpec(
        task_id=f"synth-{family}-0000", environment="synth", payload={"family": family, "seed": seed}
    )


def synth_council(cfg: SynthConfig, *families: str) -> Council:
    experts = [SynthSpecialistExpert(f"{f}-specialist", f, cfg) for f in families]
    return Council(experts, embedder=TrigramEmbedder(64))


def test_depth_one_task_succeeds_in_one_iteration():
    cfg = SynthConfig(depth=1)
    result = search(
        synth_task(), SynthEnv(cfg), synth_council(cfg, "amber"), planner(), random.Random(0)
    )
    assert result.success
    assert result.reward == 1.0
    assert result.iterations_used == 1
    assert result.max_depth_reached == 1
    assert result.best_trajectory.depth == 1


def test_hopeless_council_exhausts_the_budget():
    cfg = SynthConfig()
    result = search(
        synth_task("amber"),
        SynthEnv(cfg),
        synth_council(cfg, "basalt"),
        planner(iterations=5),
        random.Random(0),
    )
    assert not result.success
    assert result.reward == 0.0
    assert result.iterations_used == 5


def test_oracle_expert_solves_a_24_task():
    env = Game24Env()
    task = TaskSpec(task_id="g24-4-4-10-10", environment="game24", payload=[4, 4, 10, 10])
    council = Council([Game24OracleExpert("solver")], embedder=TrigramEmbedder(64))
    result = search(task, env, council, planner(expansion_width=4, max_depth=12), random.Random(0))
    assert result.success
    assert result.reward == 1.0
    actions = [step.action.text for step in result.best_trajectory.steps]
    assert len(actions) == 3
    replayed = env.replay(task, actions)
    assert replayed.terminal
    assert replayed.reward == 1.0
    assert result.episode.per_step_expert == ["solver"] * 3
    # Success writes every prefix of the final plan into the solver's memory.
    assert len(council.profile("solver")) == 3


def test_terminal_root_ends_the_search_before_any_iteration():
    env = Game24Env()
    task = TaskSpec(task_id="g24-24", environment="game24", payload=[24])
    council = Council([Game24OracleExpert("solver")], embedder=TrigramEmbedder(64))
    result = search(task, env, council, planner(), random.Random(0))
    assert result.success
    assert result.iterations_used == 0
    assert result.nodes_expanded == 0
    assert result.best_node_id == 0
    assert result.best_trajectory.depth == 0


def test_an_expert_with_no_proposals_fails_the_branch():
    cfg = SynthConfig()
    council = Council([FixedExpert("mute")], embedder=TrigramEmbedder(64))
    result = search(
        synth_task(), SynthEnv(cfg), council, planner(iterations=4), random.Random(0)
    )
    assert not result.success
    assert result.nodes_expanded == 0
    assert result.tree.root.terminal
    assert result.tree.root.reward == 0.0


def test_depth_cap_abandons_the_branch_as_a_failure():
    cfg = SynthConfig(depth=3, budget=5)
    result = search(
        synth_task(),
        SynthEnv(cfg),
        synth_council(cfg, "basalt"),
        planner(iterations=6, max_depth=1),
        random.Random(0),
    )
    assert not result.success
    assert result.max_depth_reached == 1
    capped = [n for n in result.tree.nodes if n.depth == 1 and n.terminal]
    assert capped
    assert all(n.reward == 0.0 for n in capped)


class FailingExpert(Expert):
    def propose(self, prefix, exemplar, k):
        raise ExpertUnavailableError("offline")

    def plausibility(self, prefix):
        return 0.5


def test_unavailable_expert_reroutes_to_a_healthy_member():
    cfg = SynthConfig(depth=1)
    healthy = SynthSpecialistExpert("amber-specialist", "amber", cfg)
    council = Council([FailingExpert("dead"), healthy], embedder=TrigramEmbedder(64))
    result = search(
        synth_task(),
        SynthEnv(cfg),
        council,
        planner(routing_strategy="round-robin"),
        random.Random(0),
    )
    # Round-robin points at the failing member first; the retry must land on
    # the healthy one within the same iteration.
    assert result.success
    assert result.iterations_used == 1
    assert result.episode.per_step_expert == ["amber-specialist"]


def test_collaborative_reroutes_to_the_last_remaining_member():
    cfg = SynthConfig(depth=1)
    members = [SynthSpecialistExpert(f"{f}-specialist", f, cfg) for f in ("amber", "basalt")]
    council = Council([*members, FailingExpert("dead")], embedder=TrigramEmbedder(64))
    result = search(
        synth_task("basalt"),
        SynthEnv(cfg),
        council,
        planner(routing_strategy="collaborative"),
        random.Random(0),
    )
    # The last member fails; the one re-route gives control to the last of
    # the members that remain, not to the first.
    assert result.success
    assert result.iterations_used == 1
    assert result.episode.per_step_expert == ["basalt-specialist"]


def test_a_fully_unavailable_council_consumes_its_iterations():
    cfg = SynthConfig()
    council = Council([FailingExpert("a"), FailingExpert("b")], embedder=TrigramEmbedder(64))
    result = search(
        synth_task(), SynthEnv(cfg), council, planner(iterations=3), random.Random(0)
    )
    assert not result.success
    assert result.iterations_used == 3
    assert result.nodes_expanded == 0


def test_env_only_mode_assigns_flat_values_and_still_solves():
    cfg = SynthConfig(depth=2)
    result = search(
        synth_task(),
        SynthEnv(cfg),
        synth_council(cfg, "amber"),
        planner(value_mode="env-only", iterations=12),
        random.Random(0),
    )
    children = [n for n in result.tree.nodes if n.parent == 0]
    assert children
    assert all(n.fused_value == 0.5 for n in children)
    assert result.success


@pytest.mark.parametrize(
    "value_mode,failing",
    [
        pytest.param("full", 0, id="healthy"),
        pytest.param("full", 1, id="one-failing-member"),
        pytest.param("full", 2, id="two-failing-members"),
        pytest.param("env-only", 0, id="env-only"),
        pytest.param("llm-only", 0, id="llm-only"),
        pytest.param("sms-only", 0, id="sms-only"),
    ],
)
def test_search_emits_one_event_per_iteration_plus_a_result(value_mode, failing):
    cfg = SynthConfig(depth=2)
    if failing:
        experts = [FailingExpert(f"dead-{i}") for i in range(failing)]
        council = Council(experts, embedder=TrigramEmbedder(64))
    else:
        council = synth_council(cfg, "amber")
    trace: list[dict] = []
    result = search(
        synth_task(),
        SynthEnv(cfg),
        council,
        planner(value_mode=value_mode, iterations=3 if failing else 10),
        random.Random(0),
        trace=trace,
    )
    iteration_events = [e for e in trace if e["type"] == "iteration"]
    result_events = [e for e in trace if e["type"] == "result"]
    assert [e["iteration"] for e in iteration_events] == list(range(result.iterations_used))
    if failing:
        assert result.iterations_used == 3
        assert {e["outcome"] for e in iteration_events} == {"routing-unavailable"}
    assert len(result_events) == 1
    assert result_events[-1]["success"] == result.success
    assert result_events[-1]["best_node"] == result.best_node_id
    outcomes = {e["outcome"] for e in iteration_events}
    assert outcomes <= {
        "terminal-leaf",
        "depth-cap",
        "routing-unavailable",
        "no-proposals",
        "expanded",
    }
    expanded = [e for e in iteration_events if e["outcome"] == "expanded"]
    assert sum(len(e["children"]) for e in expanded) == result.nodes_expanded


@pytest.mark.parametrize("family,seed", [("amber", 1), ("basalt", 2), ("cedar", 3)])
def test_search_invariants_hold_on_real_runs(family, seed):
    cfg = SynthConfig()
    result = search(
        synth_task(family, seed),
        SynthEnv(cfg),
        synth_council(cfg, "amber", "basalt", "cedar"),
        planner(iterations=8, expansion_width=2, max_depth=6),
        random.Random(seed),
    )
    tree = result.tree
    assert result.iterations_used <= 8
    assert result.nodes_expanded <= 8 * 2
    assert result.nodes_expanded == len(tree.nodes) - 1
    assert result.max_depth_reached == max(n.depth for n in tree.nodes)
    assert result.nodes_expanded >= result.max_depth_reached
    for node in tree.nodes:
        assert node.visits >= sum(tree.node(c).visits for c in node.children)
        for cid in node.children:
            child = tree.node(cid)
            assert child.parent == node.node_id
            assert child.depth == node.depth + 1
    if result.success:
        assert result.reward >= 1.0
        best = tree.node(result.best_node_id)
        assert best.terminal


def test_search_is_deterministic_in_its_seed():
    cfg = SynthConfig()

    def run():
        return search(
            synth_task(),
            SynthEnv(cfg),
            synth_council(cfg, "amber", "basalt"),
            planner(iterations=6),
            random.Random(42),
        )

    a, b = run(), run()
    assert a.success == b.success
    assert a.reward == b.reward
    assert a.iterations_used == b.iterations_used
    assert a.nodes_expanded == b.nodes_expanded
    assert [n.action for n in a.tree.nodes] == [n.action for n in b.tree.nodes]


def test_success_stops_the_search_early():
    cfg = SynthConfig(depth=2)
    result = search(
        synth_task(),
        SynthEnv(cfg),
        synth_council(cfg, "amber"),
        planner(iterations=10),
        random.Random(0),
    )
    assert result.success
    assert result.iterations_used < 10


class CountingEnv(Environment):
    """Delegates to ``inner``, counting the search's own replay and apply
    calls (the ones ``inner.replay`` makes are not counted)."""

    def __init__(self, inner: Environment):
        self.inner = inner
        self.calls = {"replay": 0, "apply": 0}

    def initial(self, task):
        return self.inner.initial(task)

    def check_task(self, task):
        self.inner.check_task(task)

    def apply(self, task, state, action):
        self.calls["apply"] += 1
        return self.inner.apply(task, state, action)

    def replay(self, task, actions):
        self.calls["replay"] += 1
        return self.inner.replay(task, actions)


def _actions_to(tree: SearchTree, node) -> list[str]:
    actions = []
    while node.parent is not None:
        actions.append(node.action)
        node = tree.node(node.parent)
    return actions[::-1]


def test_a_search_replays_once_and_applies_once_per_node():
    cfg = SynthConfig(depth=4, budget=3)
    env = CountingEnv(SynthEnv(cfg))
    result = search(
        synth_task(),
        env,
        synth_council(cfg, "basalt", "cedar"),
        planner(iterations=12, expansion_width=3),
        random.Random(3),
    )
    assert result.nodes_expanded > 12
    assert env.calls == {"replay": 1, "apply": result.nodes_expanded}
    assert len(result.tree.nodes) == result.nodes_expanded + 1
    # Every node carries the state a replay of its actions rebuilds.
    for node in result.tree.nodes:
        assert node.state == env.inner.replay(synth_task(), _actions_to(result.tree, node)).state


def filled_synth_council(cfg: SynthConfig, env: SynthEnv) -> Council:
    """Three specialists whose profiles nine shared searches have filled."""
    council = synth_council(cfg, "amber", "basalt", "cedar")
    for seed in range(9):
        task = synth_task(cfg.families[seed % 3], seed)
        search(task, env, council, planner(iterations=12), random.Random(seed))
    assert all(len(profile) for profile in council.profiles.values())
    return council


def test_every_scan_a_node_holds_equals_a_full_scan():
    cfg = SynthConfig(depth=3, budget=3)
    env = SynthEnv(cfg)
    council = filled_synth_council(cfg, env)
    result = search(
        synth_task("basalt", 11), env, council, planner(), random.Random(11), update_memory=False
    )
    scans = 0
    for node in result.tree.nodes:
        full = council.profile("amber-specialist").embedder.embed(serialize_trajectory(node.prefix))
        for profile, scan in node.query._scans.items():
            assert np.array_equal(node.query.vector(profile.embedder), full)
            with profile._lock:
                assert np.array_equal(scan.sims, profile._scan(Query(node.prefix)))
            scans += 1
    assert scans > len(result.tree.nodes)


def test_each_scanned_node_embeds_its_whole_text_once(monkeypatch):
    cfg = SynthConfig(depth=3, budget=3)
    env = SynthEnv(cfg)
    council = filled_synth_council(cfg, env)
    embedded = []
    original = TrigramEmbedder.embed

    def embed(self, text):
        embedded.append(text)
        return original(self, text)

    monkeypatch.setattr(TrigramEmbedder, "embed", embed)
    result = search(
        synth_task("cedar", 13), env, council, planner(), random.Random(13), update_memory=False
    )
    scanned = [node for node in result.tree.nodes if node.query._scans]
    assert len(scanned) > 1
    assert sorted(embedded) == sorted(serialize_trajectory(node.prefix) for node in scanned)
    embedder = council.profile("cedar-specialist").embedder
    for node in scanned:
        full = original(embedder, serialize_trajectory(node.prefix))
        assert node.query._vector.dtype == full.dtype
        assert np.array_equal(node.query._vector, full)


def test_a_synth_search_parses_each_distinct_observation_once(monkeypatch):
    cfg = SynthConfig(depth=3, budget=3)
    asked = []

    def parse(text, config=None):
        asked.append((text, config))
        return parse_view(text, config)

    monkeypatch.setattr(experts, "parse_view", parse)
    parse_view.cache_clear()
    council = synth_council(cfg, "amber", "basalt", "cedar")
    search(synth_task("basalt", 5), SynthEnv(cfg), council, planner(), random.Random(5))
    # The specialists ask for some texts more than once; each is parsed once.
    assert len(asked) > len(set(asked))
    assert parse_view.cache_info().misses == len(set(asked))
