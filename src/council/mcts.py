"""Tree search over replayable environments, driven by a council of experts.

Each node is identified by the action list that reaches it; state is always
rebuilt through the environment's replay so the tree never carries stale
snapshots. One search iteration selects a leaf by the UCT rule, routes one
expert to propose candidate actions, scores the resulting children with the
dual value signals, and backs the frontier's value up the selection path.
The search stops early as soon as a terminal child meets the success
threshold.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .config import PlannerConfig
from .errors import ExpertUnavailableError
from .experts import Council, Expert, propose_actions
from .memory import EpisodeContext, finalize_episode
from .routing import route
from .trajectory import EpisodeRecord, Trajectory
from .values import SiblingBatch, ValueSignals, fuse_batch, llm_value, normalize, sms_value

from .envs.base import Environment, TaskSpec


@dataclass
class SearchNode:
    """One tree node. ``prefix`` holds the completed steps from the root plus
    the observation now awaiting an action; ``value`` and ``visits`` carry the
    running mean reward used by selection."""

    node_id: int
    prefix: Trajectory
    parent: int | None = None
    action: str | None = None
    expert_id: str | None = None
    terminal: bool = False
    reward: float | None = None
    children: list[int] = field(default_factory=list)
    fused_value: float | None = None
    signals: ValueSignals | None = None
    fusion: SiblingBatch | None = None
    visits: int = 0
    value: float = 0.0

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

    def add(self, **kwargs) -> SearchNode:
        node = SearchNode(node_id=len(self.nodes), **kwargs)
        self.nodes.append(node)
        return node


@dataclass
class PlanResult:
    task_id: str
    success: bool
    reward: float
    best_trajectory: Trajectory
    iterations_used: int
    nodes_expanded: int
    max_depth_reached: int
    best_node_id: int
    episode: EpisodeRecord
    tree: SearchTree


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
    actions = [a.text for a in start.prefix.actions()]
    replayed = env.replay(task, actions)
    state = replayed.state
    prefix = start.prefix
    while prefix.depth < max_depth:
        try:
            proposals = propose_actions(expert, prefix, None, 1)
        except ExpertUnavailableError:
            return 0.0
        if not proposals:
            return 0.0
        action = proposals[0].action
        state, outcome = env.apply(task, state, action.text)
        prefix = prefix.extend(action, outcome.observation)
        if outcome.terminal:
            return outcome.reward if outcome.reward is not None else 0.0
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


class _Candidates:
    """Answer pool: every frontier pick and every terminal child, deduplicated
    in first-seen order."""

    def __init__(self) -> None:
        self._seen: set[int] = set()
        self.nodes: list[SearchNode] = []

    def add(self, node: SearchNode) -> None:
        if node.node_id not in self._seen:
            self._seen.add(node.node_id)
            self.nodes.append(node)


def _routing_event(decision) -> dict:
    return {
        "chosen": decision.chosen,
        "strategy": decision.strategy,
        "exemplar_segment_id": decision.exemplar_segment_id,
        "scores": dict(decision.scores.per_expert) if decision.scores else None,
        "distribution": (
            dict(decision.distribution.per_expert) if decision.distribution else None
        ),
    }


def _emit(trace: list[dict] | None, **event) -> None:
    if trace is not None:
        trace.append(event)


def _assign_values(
    children: list[SearchNode],
    leaf: SearchNode,
    council: Council,
    acting_expert_id: str,
    mode: str,
    rng: random.Random,
    episode: EpisodeContext,
) -> None:
    """Fill fused_value (and the raw signals behind it) for a sibling set."""
    if mode == "env-only":
        for child in children:
            child.fused_value = 0.5
            child.value = 0.5
        return

    profile = council.profile(acting_expert_id)
    for child in children:
        v_llm = evaluator_id = None
        v_sms = matched_id = None
        if mode in ("full", "llm-only"):
            v_llm, evaluator_id = llm_value(council, child.prefix, rng)
        if mode in ("full", "sms-only"):
            v_sms, matched_id = sms_value(profile, child.prefix, episode)
        child.signals = ValueSignals(
            v_llm=v_llm,
            v_sms=v_sms,
            evaluator_id=evaluator_id,
            matched_segment_id=matched_id,
        )

    if mode == "full":
        batch = SiblingBatch(
            parent=leaf.node_id,
            children=[(c.node_id, c.signals) for c in children],
        )
        fused = fuse_batch(batch)
        leaf.fusion = batch
        for child in children:
            child.fused_value = fused[child.node_id]
    elif mode == "llm-only":
        for child, norm in zip(children, normalize([c.signals.v_llm for c in children])):
            child.fused_value = norm
    else:  # sms-only
        for child, norm in zip(children, normalize([c.signals.v_sms for c in children])):
            child.fused_value = norm
    for child in children:
        child.value = child.fused_value


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

    Returns the best plan found: the first terminal node meeting the success
    threshold if one appears, otherwise the highest-valued candidate seen.
    The search only reads the council's memory; its one write is the episode
    finalization at the end, succeeded or not. ``update_memory`` false skips
    it, so concurrent searches may share the profiles. When ``trace`` is
    given, one event dict per iteration (plus a final result event) is
    appended to it.
    """
    budget = planner.budget
    episode = EpisodeContext(episode_id if episode_id is not None else task.task_id)
    tree = SearchTree()

    root_replay = env.replay(task, [])
    root = tree.add(
        prefix=Trajectory(pending=root_replay.observation),
        terminal=root_replay.terminal,
        reward=root_replay.reward,
    )

    candidates = _Candidates()
    success_node: SearchNode | None = None
    iterations_used = 0
    nodes_expanded = 0
    route_counter = 0
    member_ids = [e.expert_id for e in council.experts]

    if root.terminal:
        if root.reward is not None and root.reward >= planner.success_threshold:
            success_node = root
    else:
        for iteration in range(budget.iterations):
            iterations_used += 1
            path = select_path(tree, planner.exploration)
            leaf = path[-1]
            path_ids = [n.node_id for n in path]

            if leaf.terminal:
                reward = leaf.reward if leaf.reward is not None else 0.0
                backpropagate(path, reward)
                stopped = reward >= planner.success_threshold
                _emit(
                    trace,
                    type="iteration",
                    iteration=iteration,
                    path=path_ids,
                    outcome="terminal-leaf",
                    backprop_reward=reward,
                    success_stop=stopped,
                )
                if stopped:
                    success_node = leaf
                    break
                continue

            if leaf.depth >= budget.max_depth:
                # Depth cap: the branch is abandoned as a failure.
                _mark_failed(leaf)
                backpropagate(path, 0.0)
                _emit(
                    trace,
                    type="iteration",
                    iteration=iteration,
                    path=path_ids,
                    outcome="depth-cap",
                    backprop_reward=0.0,
                )
                continue

            try:
                decision = route(
                    council,
                    leaf.prefix,
                    planner.routing_strategy,
                    rng,
                    step_index=route_counter,
                    temperature=planner.routing_temperature,
                    episode=episode,
                    aggregator=planner.aggregator,
                )
            except ExpertUnavailableError:
                route_counter += 1
                _emit(
                    trace,
                    type="iteration",
                    iteration=iteration,
                    path=path_ids,
                    outcome="routing-unavailable",
                )
                continue
            route_counter += 1

            expert = council.by_id[decision.chosen]
            try:
                proposals = propose_actions(
                    expert, leaf.prefix, decision.exemplar, budget.expansion_width
                )
            except ExpertUnavailableError:
                # One fresh route among the remaining members, then give up
                # on this iteration; the spent iteration still counts.
                remaining = [eid for eid in member_ids if eid != decision.chosen]
                if not remaining:
                    continue
                aggregator = planner.aggregator if planner.aggregator in remaining else None
                try:
                    decision = route(
                        council.subset(remaining),
                        leaf.prefix,
                        planner.routing_strategy,
                        rng,
                        step_index=route_counter - 1,
                        temperature=planner.routing_temperature,
                        episode=episode,
                        aggregator=aggregator,
                    )
                    expert = council.by_id[decision.chosen]
                    proposals = propose_actions(
                        expert, leaf.prefix, decision.exemplar, budget.expansion_width
                    )
                except ExpertUnavailableError:
                    _emit(
                        trace,
                        type="iteration",
                        iteration=iteration,
                        path=path_ids,
                        outcome="routing-unavailable",
                    )
                    continue

            if not proposals:
                # Nothing to expand with; the leaf dead-ends as a failure.
                _mark_failed(leaf)
                backpropagate(path, 0.0)
                _emit(
                    trace,
                    type="iteration",
                    iteration=iteration,
                    path=path_ids,
                    outcome="no-proposals",
                    routing=_routing_event(decision),
                    backprop_reward=0.0,
                )
                continue

            base_actions = [a.text for a in leaf.prefix.actions()]
            children: list[SearchNode] = []
            for proposal in proposals:
                replayed = env.replay(task, base_actions + [proposal.action.text])
                last = replayed.outcomes[-1]
                child = tree.add(
                    prefix=leaf.prefix.extend(proposal.action, last.observation),
                    parent=leaf.node_id,
                    action=proposal.action.text,
                    expert_id=proposal.expert_id,
                    terminal=last.terminal,
                    reward=last.reward,
                )
                leaf.children.append(child.node_id)
                children.append(child)
            nodes_expanded += len(children)

            _assign_values(
                children, leaf, council, decision.chosen, planner.value_mode, rng, episode
            )
            for child in children:
                if child.terminal:
                    candidates.add(child)

            batch = leaf.fusion
            expansion_event = {
                "type": "iteration",
                "iteration": iteration,
                "path": path_ids,
                "outcome": "expanded",
                "routing": _routing_event(decision),
                "children": [
                    {
                        "node_id": c.node_id,
                        "action": c.action,
                        "terminal": c.terminal,
                        "reward": c.reward,
                        "fused_value": c.fused_value,
                    }
                    for c in children
                ],
                "sigma_llm": batch.sigma_llm if batch else None,
                "sigma_sms": batch.sigma_sms if batch else None,
                "alpha": batch.alpha if batch else None,
            }

            winners = [
                c
                for c in children
                if c.terminal
                and c.reward is not None
                and c.reward >= planner.success_threshold
            ]
            if winners:
                best_child = max(winners, key=lambda c: (c.reward, -c.node_id))
                backpropagate(path + [best_child], best_child.reward)
                success_node = best_child
                expansion_event["frontier"] = best_child.node_id
                expansion_event["backprop_reward"] = best_child.reward
                expansion_event["success_stop"] = True
                _emit(trace, **expansion_event)
                break

            if planner.value_mode == "env-only":
                frontier = rng.choice(children)
                if frontier.terminal:
                    reward = frontier.reward if frontier.reward is not None else 0.0
                else:
                    reward = _rollout(env, task, expert, frontier, budget.max_depth)
            else:
                frontier = max(children, key=lambda c: (c.fused_value, -c.node_id))
                if frontier.terminal:
                    reward = frontier.reward if frontier.reward is not None else 0.0
                else:
                    reward = frontier.fused_value
            backpropagate(path + [frontier], reward)
            candidates.add(frontier)
            expansion_event["frontier"] = frontier.node_id
            expansion_event["backprop_reward"] = reward
            expansion_event["success_stop"] = False
            _emit(trace, **expansion_event)

    if success_node is not None:
        best = success_node
    elif candidates.nodes:
        best = max(candidates.nodes, key=lambda n: (n.value, -n.node_id))
    else:
        best = root

    final_reward = (
        best.reward if best.terminal and best.reward is not None else 0.0
    )
    success = best.terminal and best.reward is not None and (
        best.reward >= planner.success_threshold
    )
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
    _emit(
        trace,
        type="result",
        best_node=best.node_id,
        success=success,
        reward=final_reward,
        actions=[step.action.text for step in record.final_trajectory.steps],
        per_step_expert=list(record.per_step_expert),
        iterations_used=iterations_used,
        nodes_expanded=nodes_expanded,
    )

    return PlanResult(
        task_id=task.task_id,
        success=success,
        reward=final_reward,
        best_trajectory=best.prefix.completed(),
        iterations_used=iterations_used,
        nodes_expanded=nodes_expanded,
        max_depth_reached=max(node.depth for node in tree.nodes),
        best_node_id=best.node_id,
        episode=record,
        tree=tree,
    )
