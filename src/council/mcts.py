"""Tree search over replayable environments, driven by a council of experts.

Each node carries the environment state its action list reaches: the root's
comes from one replay of the empty action list, and a child's from one
``apply`` of its action to its parent's state. ``apply`` never mutates a
state, so a node's state is a pure function of (task, actions), the state
replay would rebuild.

Each node also carries its retrieval state, a :class:`~council.memory.Query`
built once when the node is made and linked to its parent's. Routing and
the memory value scan profiles through it: the node's whole text is
embedded once, and its sparse form and its difference from its parent's
vector are built once, however many profiles scan it; a repeated scan of
the node at the same profile version is read back, and a child's scan
extends its parent's whenever the parent holds a scan at that version,
multiplying only the index rows its vector changes. Scores are those of a
full scan, bit for bit. The state lives in the tree, so it
is dropped with it and never shared between searches.

One search iteration selects a leaf by the UCT rule, routes one expert to
propose candidate actions, scores the resulting children with the dual value
signals, and backs the frontier's value up the selection path. The search
stops early as soon as a terminal child solves the task.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any

from .config import PlannerConfig
from .errors import ExpertUnavailableError
from .experts import Council, Expert, propose_actions
from .memory import EpisodeContext, Query, finalize_episode
from .routing import RoutingDecision, route
from .trajectory import Action, EpisodeRecord, Trajectory
from .values import Fusion, fuse_batch, llm_value, normalize, sms_value

from .envs.base import Environment, TaskSpec

# The terminal reward every environment pays only for a solved task.
SOLVED_REWARD = 1.0


@dataclass
class SearchNode:
    """One tree node. ``query`` is the node's retrieval state, linked to its
    parent's (see the module docstring); its trajectory, read as ``prefix``,
    holds the completed steps from the root plus the observation now
    awaiting an action. ``state`` is the environment state they reach;
    ``value`` and ``visits`` carry the running mean reward used by
    selection. A terminal node always carries its ``reward``: a
    ``StepOutcome`` or ``replay`` that ends the episode sets one, and
    ``_mark_failed`` sets 0.0."""

    node_id: int
    query: Query
    state: Any = None
    parent: int | None = None
    action: str | None = None
    expert_id: str | None = None
    terminal: bool = False
    reward: float | None = None
    children: list[int] = field(default_factory=list)
    fused_value: float | None = None
    visits: int = 0
    value: float = 0.0

    @property
    def prefix(self) -> Trajectory:
        return self.query.trajectory

    @property
    def depth(self) -> int:
        return self.prefix.depth


@dataclass
class SearchTree:
    nodes: list[SearchNode] = field(default_factory=list)

    @property
    def root(self) -> SearchNode:
        return self.nodes[0]

    def node(self, node_id: int) -> SearchNode:
        return self.nodes[node_id]

    def add(self, query: Query, **kwargs) -> SearchNode:
        node = SearchNode(len(self.nodes), query, **kwargs)
        self.nodes.append(node)
        return node


@dataclass
class PlanResult:
    task_id: str
    success: bool
    reward: float
    best_trajectory: Trajectory
    iterations_used: int
    max_depth_reached: int
    best_node_id: int
    episode: EpisodeRecord
    tree: SearchTree

    @property
    def nodes_expanded(self) -> int:
        return len(self.tree.nodes) - 1


def uct_score(value: float, visits: int, parent_visits: int, exploration: float) -> float:
    """Mean value plus the exploration bonus; an unvisited node is infinite.

    The bonus is exploration * sqrt(ln(parent visits) / visits), natural log.
    """
    if visits == 0:
        return math.inf
    return value + exploration * math.sqrt(math.log(max(parent_visits, 1)) / visits)


def select_path(tree: SearchTree, exploration: float) -> list[SearchNode]:
    """Walk from the root to a leaf, taking the UCT-maximal child each level.

    Ties (all unvisited children score infinity) prefer the higher fused
    value, then creation order.
    """
    node = tree.root
    path = [node]
    while node.children:
        node = max(
            (tree.node(cid) for cid in node.children),
            key=lambda ch: (
                uct_score(ch.value, ch.visits, node.visits, exploration),
                ch.fused_value if ch.fused_value is not None else 0.0,
                -ch.node_id,
            ),
        )
        path.append(node)
    return path


def backpropagate(path: list[SearchNode], reward: float) -> None:
    """Incremental mean update along the path, root included."""
    for node in path:
        node.visits += 1
        node.value += (reward - node.value) / node.visits


def _mark_failed(node: SearchNode) -> None:
    node.terminal = True
    node.reward = 0.0


def _rollout(
    env: Environment,
    task: TaskSpec,
    expert: Expert,
    start: SearchNode,
    max_depth: int,
) -> float:
    """Greedy continuation for the environment-only baseline.

    The routed expert keeps proposing a single action (no exemplar, no memory
    lookups) until the environment terminates or the depth cap is hit; only a
    terminal reward counts.
    """
    state = start.state
    prefix = start.prefix
    while prefix.depth < max_depth:
        try:
            proposals = propose_actions(expert, prefix, None, 1)
        except ExpertUnavailableError:
            return 0.0
        if not proposals:
            return 0.0
        action = proposals[0]
        state, outcome = env.apply(task, state, action.text)
        prefix = prefix.extend(action, outcome.observation)
        if outcome.terminal:
            return outcome.reward
    return 0.0


def _ancestry_experts(tree: SearchTree, node: SearchNode) -> list[str]:
    """Expert attribution for each step on the root-to-node path."""
    chain: list[str] = []
    current: SearchNode | None = node
    while current is not None and current.parent is not None:
        assert current.expert_id is not None
        chain.append(current.expert_id)
        current = tree.node(current.parent)
    chain.reverse()
    return chain


def _routing_event(decision: RoutingDecision) -> dict:
    return {
        "chosen": decision.chosen,
        "strategy": decision.strategy,
        "exemplar_segment_id": decision.exemplar_segment_id,
        "scores": decision.scores,
        "distribution": decision.distribution,
    }


def _act(
    council: Council,
    query: Query,
    planner: PlannerConfig,
    rng: random.Random,
    step_index: int,
    episode: EpisodeContext,
) -> tuple[RoutingDecision, list[Action]]:
    """Route an expert for the prefix and take its proposals.

    An unavailable expert earns one fresh route among the remaining members,
    at the same step index. ExpertUnavailableError escapes when routing
    fails, when no member remains, or when the second expert fails too.
    """

    def routed(members: Council) -> RoutingDecision:
        return route(
            members,
            query,
            planner.routing_strategy,
            rng,
            step_index=step_index,
            temperature=planner.routing_temperature,
            episode=episode,
        )

    def proposals(decision: RoutingDecision) -> list[Action]:
        expert = council.by_id[decision.chosen]
        return propose_actions(
            expert, query.trajectory, decision.exemplar, planner.budget.expansion_width
        )

    decision = routed(council)
    try:
        return decision, proposals(decision)
    except ExpertUnavailableError:
        remaining = [e.expert_id for e in council.experts if e.expert_id != decision.chosen]
        if not remaining:
            raise
        decision = routed(council.subset(remaining))
        return decision, proposals(decision)


def _assign_values(
    children: list[SearchNode],
    council: Council,
    acting_expert_id: str,
    mode: str,
    rng: random.Random,
    episode: EpisodeContext,
) -> Fusion | None:
    """Set fused_value (and the starting value) of each child in a sibling set.

    Only the judged signal draws from ``rng``, one draw per child in child
    order; the set's language-model judges are asked at once (see
    :func:`~council.values.llm_value`). Returns the fusion, which carries the
    set's spreads and weight, in ``full`` mode and None otherwise.
    """
    v_llm = v_sms = None
    if mode in ("full", "llm-only"):
        v_llm = llm_value(council, [c.prefix for c in children], rng)
    if mode in ("full", "sms-only"):
        profile = council.profile(acting_expert_id)
        v_sms = [sms_value(profile, c.query, episode) for c in children]

    fusion = None
    if mode == "full":
        fusion = fuse_batch(v_llm, v_sms)
        fused = fusion.values
    elif mode == "env-only":
        fused = [0.5] * len(children)
    else:
        fused = normalize(v_llm if v_llm is not None else v_sms)
    for child, value in zip(children, fused):
        child.fused_value = child.value = value
    return fusion


def search(
    task: TaskSpec,
    env: Environment,
    council: Council,
    planner: PlannerConfig,
    rng: random.Random,
    episode_id: str | None = None,
    trace: list[dict] | None = None,
    update_memory: bool = True,
) -> PlanResult:
    """Run one budgeted search episode and fold its outcome into memory.

    Returns the best plan found: the first terminal node that solves the
    task if one appears, otherwise the highest-valued candidate seen.
    The search only reads the council's memory; its one write is the episode
    finalization at the end, succeeded or not. ``update_memory`` false skips
    it, so concurrent searches may share the profiles. When ``trace`` is
    given, one event dict per iteration, whatever its outcome, plus a final
    result event is appended to it.
    """
    budget = planner.budget
    episode = EpisodeContext(episode_id if episode_id is not None else task.task_id)
    tree = SearchTree()

    root_replay = env.replay(task, [])
    root = tree.add(
        Query(Trajectory(pending=root_replay.observation)),
        state=root_replay.state,
        terminal=root_replay.terminal,
        reward=root_replay.reward,
    )

    # Answer pool: every frontier pick and every terminal child, by node id.
    candidates: dict[int, SearchNode] = {}
    success_node: SearchNode | None = None
    iterations_used = 0
    route_counter = 0

    if root.terminal:
        if root.reward >= SOLVED_REWARD:
            success_node = root
    else:
        for iteration in range(budget.iterations):
            iterations_used += 1
            path = select_path(tree, planner.exploration)
            leaf = path[-1]
            path_ids = [n.node_id for n in path]
            event = {"type": "iteration", "iteration": iteration, "path": path_ids}
            try:
                if leaf.terminal:
                    reward = leaf.reward
                    backpropagate(path, reward)
                    stopped = reward >= SOLVED_REWARD
                    event.update(
                        outcome="terminal-leaf", backprop_reward=reward, success_stop=stopped
                    )
                    if stopped:
                        success_node = leaf
                        break
                    continue

                if leaf.depth >= budget.max_depth:
                    # Depth cap: the branch is abandoned as a failure.
                    _mark_failed(leaf)
                    backpropagate(path, 0.0)
                    event.update(outcome="depth-cap", backprop_reward=0.0)
                    continue

                step_index = route_counter
                route_counter += 1
                try:
                    decision, proposals = _act(
                        council, leaf.query, planner, rng, step_index, episode
                    )
                except ExpertUnavailableError:
                    # No member could act; the spent iteration still counts.
                    event["outcome"] = "routing-unavailable"
                    continue
                event["routing"] = _routing_event(decision)

                if not proposals:
                    # Nothing to expand with; the leaf dead-ends as a failure.
                    _mark_failed(leaf)
                    backpropagate(path, 0.0)
                    event.update(outcome="no-proposals", backprop_reward=0.0)
                    continue

                children: list[SearchNode] = []
                for action in proposals:
                    state, outcome = env.apply(task, leaf.state, action.text)
                    prefix = leaf.prefix.extend(action, outcome.observation)
                    child = tree.add(
                        Query(prefix, parent=leaf.query),
                        state=state,
                        parent=leaf.node_id,
                        action=action.text,
                        expert_id=decision.chosen,
                        terminal=outcome.terminal,
                        reward=outcome.reward,
                    )
                    leaf.children.append(child.node_id)
                    children.append(child)
                    if child.terminal:
                        candidates[child.node_id] = child

                mode = planner.value_mode
                fusion = _assign_values(children, council, decision.chosen, mode, rng, episode)
                event.update(
                    outcome="expanded",
                    children=[
                        {
                            "node_id": c.node_id,
                            "action": c.action,
                            "terminal": c.terminal,
                            "reward": c.reward,
                            "fused_value": c.fused_value,
                        }
                        for c in children
                    ],
                    sigma_llm=fusion.sigma_llm if fusion else None,
                    sigma_sms=fusion.sigma_sms if fusion else None,
                    alpha=fusion.alpha if fusion else None,
                )

                winners = [c for c in children if c.terminal and c.reward >= SOLVED_REWARD]
                if winners:
                    frontier = success_node = max(winners, key=lambda c: (c.reward, -c.node_id))
                elif mode == "env-only":
                    frontier = rng.choice(children)
                else:
                    frontier = max(children, key=lambda c: (c.fused_value, -c.node_id))
                if frontier.terminal:
                    reward = frontier.reward
                elif mode == "env-only":
                    expert = council.by_id[decision.chosen]
                    reward = _rollout(env, task, expert, frontier, budget.max_depth)
                else:
                    reward = frontier.fused_value
                backpropagate(path + [frontier], reward)
                candidates[frontier.node_id] = frontier
                event.update(
                    frontier=frontier.node_id, backprop_reward=reward, success_stop=bool(winners)
                )
                if winners:
                    break
            finally:
                if trace is not None:
                    trace.append(event)

    if success_node is not None:
        best = success_node
    elif candidates:
        best = max(candidates.values(), key=lambda n: (n.value, -n.node_id))
    else:
        best = root

    final_reward = best.reward if best.terminal else 0.0
    success = best.terminal and best.reward >= SOLVED_REWARD
    record = EpisodeRecord(
        episode_id=episode.episode_id,
        task_id=task.task_id,
        final_trajectory=best.prefix.completed(),
        reward=final_reward,
        success=success,
        per_step_expert=_ancestry_experts(tree, best),
        retrievals=episode.retrievals(),
    )
    if update_memory:
        finalize_episode(council.profiles, record)
    result = PlanResult(
        task_id=task.task_id,
        success=success,
        reward=final_reward,
        best_trajectory=record.final_trajectory,
        iterations_used=iterations_used,
        max_depth_reached=max(node.depth for node in tree.nodes),
        best_node_id=best.node_id,
        episode=record,
        tree=tree,
    )
    if trace is not None:
        trace.append(
            {
                "type": "result",
                "best_node": best.node_id,
                "success": success,
                "reward": final_reward,
                "actions": [step.action.text for step in record.final_trajectory.steps],
                "per_step_expert": list(record.per_step_expert),
                "iterations_used": iterations_used,
                "nodes_expanded": result.nodes_expanded,
            }
        )
    return result
