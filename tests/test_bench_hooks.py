"""The planner names the benchmark patches and calls stay where it finds them.

``perfbench/worker.py`` wraps each layer at the attribute its caller looks
up, and restores the original from ``owner.__dict__``. A rename there would
otherwise surface only in a traced benchmark run.
"""

from __future__ import annotations

import council.harness as harness
from council.gateway import ChatRequest, compose_prompt, request_for
from council.trajectory import Observation, Trajectory

from perfbench.spans import SpanRecorder
from perfbench.worker import tracing


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
