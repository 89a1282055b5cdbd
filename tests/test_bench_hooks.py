"""The planner names the benchmark patches and calls stay where it finds them.

``perfbench/worker.py`` wraps each layer at the attribute its caller looks
up, and restores the original from ``owner.__dict__``. A rename there would
otherwise surface only in a traced benchmark run.
"""

from __future__ import annotations

import random

import numpy as np

import council.harness as harness
import council.mcts as mcts
from council.config import PlannerConfig, SearchBudget
from council.embedding import TrigramEmbedder
from council.envs.base import TaskSpec
from council.envs.synth import SynthConfig, SynthEnv
from council.experts import Council, LLMExpert, SynthSpecialistExpert
from council.gateway import ChatRequest, StubBackend, compose_prompt, request_for
from council.memory import ExpertProfile, Query
from council.routing import route
from council.trajectory import Observation, Trajectory
from council.values import sms_value

from perfbench.spans import SpanRecorder
from perfbench.stub import StubReplies
from perfbench.worker import patched, tracing

from conftest import FixedExpert, make_trajectory


def test_every_patched_name_is_defined_on_its_owner():
    hooks = [(harness, "search", None), *tracing(SpanRecorder())]
    missing = [
        f"{getattr(owner, '__name__', owner)}.{name}"
        for owner, name, _ in hooks
        if name not in owner.__dict__
    ]
    assert missing == []


def test_a_composed_prompt_builds_a_chat_request():
    prefix = Trajectory(pending=Observation("the task"))
    request = request_for(compose_prompt("the task", prefix, None, "act"), 0.7)
    assert isinstance(request, ChatRequest)
    assert request.temperature == 0.7


def test_the_scan_wrappers_call_through_and_count_what_they_scan():
    rec = SpanRecorder()
    hooks = {(owner, name): value for owner, name, value in tracing(rec)}
    rec.task = 0
    council = Council(
        [FixedExpert("a", 0.5, actions=["go"])], embedder=TrigramEmbedder(64)
    )
    profile = council.profile("a")
    for i in range(5):
        profile.insert(make_trajectory([(f"stored observation {i}", f"act {i}")]))
    trajectory = make_trajectory([("stored observation 3", "act 3")], pending="next")

    best_match = hooks[ExpertProfile, "best_match"]
    assert best_match(profile, Query(trajectory)) == profile.best_match(Query(trajectory))
    match_scores = hooks[ExpertProfile, "match_scores"]
    scores = match_scores(profile, Query(trajectory))
    assert np.array_equal(scores, profile.match_scores(Query(trajectory)))
    wrapped_route = hooks[mcts, "route"]
    decision = wrapped_route(council, Query(trajectory), "task-aware", random.Random(0))
    assert decision == route(council, Query(trajectory), "task-aware", random.Random(0))
    wrapped_value = hooks[mcts, "sms_value"]
    assert wrapped_value(profile, Query(trajectory)) == sms_value(profile, Query(trajectory))

    assert rec.counts["memory.segments_scanned"] == 2 * len(profile)
    names = ["memory.best_match", "memory.match_scores", "routing.route", "values.sms_value"]
    assert [span.name for span in rec.spans] == names


def test_every_vector_a_node_query_holds_is_embedded_inside_an_embed_span():
    cfg = SynthConfig(depth=3, budget=3)
    env = SynthEnv(cfg)
    council = Council(
        [SynthSpecialistExpert(f"{f}-specialist", f, cfg) for f in cfg.families],
        embedder=TrigramEmbedder(64),
    )
    for profile in council.profiles.values():
        for i in range(6):
            profile.insert(make_trajectory([(f"[amber#b] go +{i}", f"token {i}")]))
    planner = PlannerConfig(budget=SearchBudget(iterations=8, expansion_width=2, max_depth=6))
    task = TaskSpec("synth-amber-0000", "synth", {"family": "amber", "seed": 7})
    rec = SpanRecorder()
    with patched(tracing(rec)):
        result = mcts.search(task, env, council, planner, random.Random(2), update_memory=False)
    held = sum(node.query._vector is not None for node in result.tree.nodes)
    assert held > 1
    assert [span.name for span in rec.spans].count("embedding.embed") == held


def test_a_traced_search_over_language_model_experts_closes_every_span():
    # Spans share one stack, so a traced name run on a gateway pool thread
    # would make SpanRecorder.close raise here. Each send takes 2 ms, so
    # the sends of one fan-out overlap.
    cfg = SynthConfig(depth=3, budget=3)
    council = Council(
        [
            LLMExpert(f"{family}-llm", StubBackend(StubReplies(family, 0.002, 0, cfg)))
            for family in cfg.families
        ],
        embedder=TrigramEmbedder(64),
    )
    planner = PlannerConfig(budget=SearchBudget(iterations=8, expansion_width=2, max_depth=6))
    task = TaskSpec("synth-amber-0000", "synth", {"family": "amber", "seed": 7})
    rec = SpanRecorder()
    with patched(tracing(rec)):
        result = mcts.search(task, SynthEnv(cfg), council, planner, random.Random(2))
    assert any(len(node.children) == 2 for node in result.tree.nodes)
    assert rec._stack == []
    assert all(span.end >= span.start for span in rec.spans)
    names = {span.name for span in rec.spans}
    assert {"experts.propose_actions", "values.llm_value"} <= names
