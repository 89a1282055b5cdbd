"""Chat plumbing: prompt assembly, score parsing, retry and credential rules."""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given, strategies as st

from council.errors import (
    BackendConfigError,
    ExpertUnavailableError,
    ProviderError,
    ScoreParseError,
)
from council.gateway import (
    DEFAULT_TEMPLATES as T,
    ChatMessage,
    ChatRequest,
    HTTPBackend,
    StubBackend,
    complete,
    compose_prompt,
    parse_score,
    request_for,
)
from council.trajectory import Trajectory, serialize_trajectory

from conftest import make_trajectory


def test_prompt_without_exemplar_has_no_reference_region():
    messages = compose_prompt("make 24", make_trajectory([], pending="numbers: 1 2"), None, "act")
    assert [m.role for m in messages] == ["system", "user"]
    assert "Task: make 24" in messages[1].content
    assert T.exemplar_header not in messages[1].content
    assert T.exemplar_footer not in messages[1].content


def test_prompt_composition_is_deterministic():
    prefix = make_trajectory([("o", "a")], pending="next")
    first = compose_prompt("task", prefix, None, "evaluate")
    second = compose_prompt("task", prefix, None, "evaluate")
    assert first == second


def test_exemplar_region_is_fenced_and_never_interleaved():
    exemplar = make_trajectory([("seen obs 0", "seen act 0"), ("seen obs 1", "seen act 1")])
    prefix = make_trajectory([("live obs", "live act")], pending="now")
    user = compose_prompt("task text", prefix, exemplar, "act")[1].content
    header = user.index(T.exemplar_header)
    footer = user.index(T.exemplar_footer)
    exemplar_body = serialize_trajectory(exemplar)
    region = user[header:footer]
    assert exemplar_body in region
    assert exemplar_body.count("OBS: ") == 2
    # Everything about the live trajectory stays outside the fenced region.
    assert "live obs" not in region
    assert user.index(T.current_header) > footer
    assert serialize_trajectory(prefix) in user[footer:]


def test_act_and_evaluate_modes_swap_directives():
    prefix = Trajectory()
    act = compose_prompt("t", prefix, None, "act")
    ev = compose_prompt("t", prefix, None, "evaluate")
    assert T.act_directive in act[1].content
    assert T.evaluate_directive in ev[1].content
    assert act[0].content != ev[0].content


def test_unknown_prompt_mode_is_rejected():
    with pytest.raises(ValueError):
        compose_prompt("t", Trajectory(), None, "critique")


def test_chat_requests_must_open_with_a_system_message():
    with pytest.raises(ValueError):
        ChatRequest(messages=[ChatMessage("user", "hi")])
    with pytest.raises(ValueError):
        ChatRequest(messages=[])
    ChatRequest(messages=[ChatMessage("system", "s"), ChatMessage("user", "u")])


# -- score parsing ----------------------------------------------------------------


def test_score_parsing_examples():
    assert parse_score("Score: 7") == pytest.approx(0.7)
    assert parse_score("0.85") == pytest.approx(0.85)
    assert parse_score("I think this plan is strong. 9/10.") == pytest.approx(0.9)
    assert parse_score("10") == 1.0
    assert parse_score("0") == 0.0
    assert parse_score("1.0 exactly") == pytest.approx(1.0)


def test_scores_clamp_to_the_unit_interval():
    assert parse_score("15") == 1.0
    assert parse_score("-3") == 0.0
    assert parse_score("2.5") == pytest.approx(0.25)


def test_a_reply_without_numbers_fails_to_parse():
    with pytest.raises(ScoreParseError):
        parse_score("definitely promising")


@given(st.text(max_size=60).filter(lambda s: any(c.isdigit() for c in s)))
def test_parsed_scores_always_land_in_unit_range(text):
    try:
        value = parse_score(text)
    except ScoreParseError:
        return
    assert 0.0 <= value <= 1.0


# -- completion retry ---------------------------------------------------------------


def request() -> ChatRequest:
    return ChatRequest(messages=[ChatMessage("system", "s"), ChatMessage("user", "u")])


def test_complete_returns_the_backend_reply():
    backend = StubBackend(["pull the lever"])
    assert complete(backend, request()) == "pull the lever"
    assert backend.usage.requests == 1


def test_one_transient_failure_is_retried():
    backend = StubBackend(["recovered"], failures=1)
    waits: list[float] = []
    reply = complete(backend, request(), sleep=waits.append)
    assert reply == "recovered"
    assert backend.usage.requests == 2
    assert waits == [0.25]


def test_exhausted_retries_raise_unavailable():
    backend = StubBackend(["x"], failures=2)
    with pytest.raises(ExpertUnavailableError):
        complete(backend, request(), sleep=lambda _: None)
    assert backend.usage.requests == 2


def test_config_errors_are_not_retried():
    backend = StubBackend(["x"], failures=1, failure_exc=BackendConfigError)
    with pytest.raises(BackendConfigError):
        complete(backend, request(), sleep=lambda _: None)
    assert backend.usage.requests == 1


def test_stub_backend_cycles_replies_and_tracks_usage():
    backend = StubBackend(["a", "b"])
    req = request()
    assert [complete(backend, req) for _ in range(3)] == ["a", "b", "a"]
    assert backend.usage.requests == 3
    assert backend.usage.input_chars == 3 * len("s" + "u")
    assert backend.usage.output_chars == 3
    assert len(backend.requests_seen) == 3


def send_from_threads(backend: StubBackend, threads: int, sends: int) -> int:
    """Send ``sends`` requests from each of ``threads`` threads at once;
    returns how many raised ProviderError."""
    failed: list[int] = []

    def sender() -> None:
        for _ in range(sends):
            try:
                backend.send(request())
            except ProviderError:
                failed.append(1)

    workers = [threading.Thread(target=sender) for _ in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=60)
        assert not worker.is_alive()
    return len(failed)


def test_concurrent_sends_are_counted_exactly():
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so lost updates would show
    try:
        for _ in range(5):
            backend = StubBackend(["ok"], failures=37)
            assert send_from_threads(backend, threads=8, sends=200) == 37
            assert backend.usage.requests == 8 * 200
            assert backend.usage.input_chars == 8 * 200 * len("s" + "u")
            assert backend.usage.output_chars == (8 * 200 - 37) * len("ok")
            assert len(backend.requests_seen) == 8 * 200
    finally:
        sys.setswitchinterval(switch)


def test_request_for_carries_the_sampling_settings():
    messages = compose_prompt("t", Trajectory(), None, "act")
    req = request_for(messages, 0.7, max_tokens=128, timeout=9.0)
    assert req.temperature == 0.7
    assert req.max_tokens == 128
    assert req.timeout == 9.0
    assert req.messages == messages


# -- credentials ------------------------------------------------------------------


def test_missing_credential_is_a_config_error(monkeypatch):
    monkeypatch.delenv("COUNCIL_TEST_KEY", raising=False)
    backend = HTTPBackend("b", "https://example.invalid/v1", "some-model", "COUNCIL_TEST_KEY")
    with pytest.raises(BackendConfigError) as excinfo:
        backend.send(request())
    assert "COUNCIL_TEST_KEY" in str(excinfo.value)
    # Nothing is counted against usage before the credential check passes.
    assert backend.usage.requests == 0


@pytest.mark.parametrize("concurrency", [0, -1])
def test_a_concurrency_below_one_is_rejected_naming_it(concurrency):
    with pytest.raises(ValueError, match="concurrency"):
        HTTPBackend("b", "https://example.invalid/v1", "m", "COUNCIL_TEST_KEY", concurrency)
