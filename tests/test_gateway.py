"""Chat plumbing: prompt assembly, score parsing, retry and credential rules."""

from __future__ import annotations

import importlib
import json
import random
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, strategies as st

from council.errors import (
    BackendConfigError,
    ExpertUnavailableError,
    ProviderError,
    ScoreParseError,
)
import council.gateway as gateway
from council.experts import Council, LLMExpert
from council.gateway import (
    DEFAULT_TEMPLATES as T,
    ChatMessage,
    ChatRequest,
    HTTPBackend,
    StubBackend,
    complete,
    complete_all,
    compose_prompt,
    parse_score,
    request_for,
    sample_prompt,
)
from council.mcts import SearchNode, _assign_values
from council.memory import EpisodeContext, Query
from council.trajectory import Trajectory, parse_trajectory, serialize_trajectory

from conftest import make_trajectory, sample_index


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
    exemplar_body = serialize_trajectory(exemplar)
    user = compose_prompt("task text", prefix, exemplar_body, "act")[1].content
    header = user.index(T.exemplar_header)
    footer = user.index(T.exemplar_footer)
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


def test_a_sample_tag_ends_the_act_directive_line_and_adds_no_line():
    prefix = make_trajectory([("o", "a")], pending="next")
    messages = compose_prompt("task", prefix, None, "act")
    tagged = sample_prompt(messages, 2, 3)
    assert tagged[0] == messages[0]
    user = tagged[1].content
    assert user == messages[1].content + " (sample 2 of 3)"
    region = user[user.rindex(T.current_header + "\n") + len(T.current_header) + 1:]
    serialized, directive = region.rsplit("\n", 1)
    assert parse_trajectory(serialized + "\n") == prefix
    assert directive == f"{T.act_directive} (sample 2 of 3)"
    assert sample_index(user) == 2


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


def numbered(index: int) -> ChatRequest:
    return ChatRequest(messages=[ChatMessage("system", "s"), ChatMessage("user", f"u{index}")])


def test_complete_all_with_one_request_sends_it_from_the_calling_thread(monkeypatch):
    class NoPool:
        def submit(self, *args, **kwargs):
            raise AssertionError("one request must not use the pool")

    monkeypatch.setattr(gateway, "_SENDS", NoPool())
    senders: list[threading.Thread] = []

    def reply(request: ChatRequest) -> str:
        senders.append(threading.current_thread())
        return "only"

    [sent] = complete_all([(StubBackend(reply), numbered(1))])
    assert sent.result() == "only"
    assert senders == [threading.current_thread()]
    assert complete_all([]) == []


def test_complete_all_raises_the_first_failure_in_request_order():
    def reply(request: ChatRequest) -> str:
        index = int(request.messages[-1].content[1:])
        if index == 2:
            time.sleep(0.2)  # fails last, but comes first in request order
            raise ProviderError("two")
        if index == 3:
            raise BackendConfigError("three")
        return "ok"

    backend = StubBackend(reply)
    sent = complete_all([(backend, numbered(i)) for i in (1, 2, 3)])
    assert all(future.done() for future in sent)
    assert backend.usage.requests == 4
    with pytest.raises(ExpertUnavailableError, match="two"):
        [future.result() for future in sent]
    assert isinstance(sent[2].exception(), BackendConfigError)


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


def test_fan_outs_from_many_threads_share_the_pool_and_keep_their_order():
    backend = StubBackend(lambda request: request.messages[-1].content)
    mixed: list[list[str]] = []

    def caller(first: int) -> None:
        for call in range(50):
            expected = [f"u{first + 10 * call + i}" for i in range(3)]
            sent = complete_all([(backend, numbered(first + 10 * call + i)) for i in range(3)])
            replies = [future.result() for future in sent]
            if replies != expected:
                mixed.append(replies)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, args=(1000 * t,)) for t in range(8)]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(switch)
    assert mixed == []
    assert backend.usage.requests == 8 * 50 * 3


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


# -- HTTP over loopback -------------------------------------------------------------


class LoopbackCompletions(ThreadingHTTPServer):
    """A chat-completions endpoint on 127.0.0.1 that answers each act
    request with ``action <sample>`` and each evaluate request with
    ``Score: 7``, and records the most requests it held at once. A handler
    waits on ``barrier`` or sleeps ``delay_s`` before it answers. A given
    ``status`` or ``payload`` (raw body bytes) replaces the answer's 200
    status or its completion body, and a given ``location`` is sent as a
    ``Location`` header. A positive ``trickle_s`` sends the body one byte
    at a time, ``trickle_s`` seconds apart, and with ``trickle_head`` the
    status line and headers before it too.

    A handler's exception is kept in ``errors`` instead of being printed,
    and closing the server waits for every handler, so the ``loopback``
    fixture can fail the test that caused one."""

    # Handler threads are joined on close, so none outlives its test.
    daemon_threads = False

    def __init__(
        self,
        barrier: threading.Barrier | None = None,
        delay_s: float = 0.0,
        status: int = 200,
        payload: bytes | None = None,
        location: str | None = None,
        trickle_s: float = 0.0,
        trickle_head: bool = False,
    ):
        super().__init__(("127.0.0.1", 0), CompletionHandler)
        self.barrier = barrier
        self.delay_s = delay_s
        self.status = status
        self.payload = payload
        self.location = location
        self.trickle_s = trickle_s
        self.trickle_head = trickle_head
        self.bodies: list[dict] = []
        self.headers_seen: list[str] = []
        self.content_types: list[str] = []
        self.in_flight = 0
        self.most_in_flight = 0
        self.errors: list[BaseException] = []
        self.lock = threading.Lock()

    def handle_error(self, request, client_address) -> None:
        with self.lock:
            self.errors.append(sys.exc_info()[1])

    @property
    def endpoint(self) -> str:
        return f"http://127.0.0.1:{self.server_address[1]}/v1/chat/completions"


class CompletionHandler(BaseHTTPRequestHandler):
    def do_POST(self) -> None:
        server = self.server
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with server.lock:
            server.bodies.append(body)
            server.headers_seen.append(self.headers["Authorization"])
            server.content_types.append(self.headers["Content-Type"])
            server.in_flight += 1
            server.most_in_flight = max(server.most_in_flight, server.in_flight)
        try:
            if server.barrier is not None:
                server.barrier.wait()
            time.sleep(server.delay_s)
        except threading.BrokenBarrierError:
            pass
        finally:
            # Leave before answering, so a client that sends its next request
            # on receiving this reply never finds this one still counted.
            with server.lock:
                server.in_flight -= 1
        payload = server.payload
        if payload is None:
            if body["messages"][0]["content"] == T.system_evaluate:
                content = "Score: 7"
            else:
                content = f"action {sample_index(body['messages'][-1]['content'])}"
            payload = json.dumps({"choices": [{"message": {"content": content}}]}).encode()
        if server.trickle_head:
            self.wfile = Trickled(self.wfile, server.trickle_s)
        try:
            self.send_response(server.status)
            if server.location is not None:
                self.send_header("Location", server.location)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            if server.trickle_s > 0.0:
                for byte in payload:
                    self.wfile.write(bytes([byte]))
                    self.wfile.flush()
                    time.sleep(server.trickle_s)
            else:
                self.wfile.write(payload)
        except (BrokenPipeError, ConnectionResetError):
            # The client gave up before the reply, as a timed-out send does.
            pass

    def log_message(self, format, *args) -> None:
        pass


class Trickled:
    """A handler's output stream that writes one byte at a time, ``pause_s``
    seconds apart."""

    def __init__(self, raw, pause_s: float):
        self.raw = raw
        self.pause_s = pause_s

    def write(self, data: bytes) -> int:
        for byte in data:
            self.raw.write(bytes([byte]))
            self.raw.flush()
            time.sleep(self.pause_s)
        return len(data)

    def __getattr__(self, name):
        return getattr(self.raw, name)


@pytest.fixture
def loopback(monkeypatch):
    """Start a loopback server; requests bypass any configured proxy."""
    for name in ("HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.lower(), raising=False)
    monkeypatch.setenv("NO_PROXY", "127.0.0.1,localhost")
    monkeypatch.setenv("no_proxy", "127.0.0.1,localhost")
    monkeypatch.setenv("COUNCIL_TEST_KEY", "loopback-key")
    started: list[tuple[LoopbackCompletions, threading.Thread]] = []

    def start(**kwargs) -> LoopbackCompletions:
        server = LoopbackCompletions(**kwargs)
        thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
        thread.start()
        started.append((server, thread))
        return server

    yield start
    for server, thread in started:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert server.errors == [], f"the loopback server raised {server.errors!r}"


def test_a_handler_error_is_recorded_for_the_fixture_to_report(loopback, capsys):
    server = loopback()
    with socket.create_connection(server.server_address, timeout=5) as client:
        # No Content-Length: the handler cannot read the body and raises.
        client.sendall(b"POST /v1/chat/completions HTTP/1.1\r\nHost: loopback\r\n\r\n")
        # The server closes the connection only after it has recorded the error.
        while client.recv(1024):
            pass
    assert [type(error) for error in server.errors] == [TypeError]
    assert capsys.readouterr().err == ""
    server.errors.clear()


def llm_over(server: LoopbackCompletions, concurrency: int) -> LLMExpert:
    backend = HTTPBackend("b", server.endpoint, "some-model", "COUNCIL_TEST_KEY", concurrency)
    return LLMExpert("llm", backend, timeout=10.0)


def test_http_backend_sends_a_chat_completion_over_loopback(loopback):
    server = loopback()
    backend = HTTPBackend("b", server.endpoint, "some-model", "COUNCIL_TEST_KEY")
    messages = sample_prompt(compose_prompt("t", Trajectory(), None, "act"), 1, 1)
    assert complete(backend, ChatRequest(messages, 0.7, max_tokens=64)) == "action 1"
    [body] = server.bodies
    assert body["model"] == "some-model"
    assert body["messages"] == [{"role": m.role, "content": m.content} for m in messages]
    assert body["temperature"] == 0.7
    assert body["max_tokens"] == 64
    assert server.headers_seen == ["Bearer loopback-key"]
    assert server.most_in_flight == 1
    assert backend.usage.requests == 1
    assert backend.usage.output_chars == len("action 1")


def test_an_expansion_has_its_k_requests_in_flight_at_once_over_http(loopback):
    server = loopback(barrier=threading.Barrier(3, timeout=5))
    expert = llm_over(server, concurrency=4)
    actions = expert.propose(make_trajectory([], pending="a task"), None, 3)
    assert actions == ["action 1", "action 2", "action 3"]
    assert server.most_in_flight == 3
    assert expert.backend.usage.requests == 3


def test_concurrency_one_keeps_one_request_in_flight_over_http(loopback):
    server = loopback(delay_s=0.05)
    expert = llm_over(server, concurrency=1)
    actions = expert.propose(make_trajectory([], pending="a task"), None, 3)
    assert actions == ["action 1", "action 2", "action 3"]
    assert len(server.bodies) == 3
    assert server.most_in_flight == 1


def judge_siblings(server: LoopbackCompletions, concurrency: int, count: int) -> list[float]:
    """Value ``count`` sibling children in ``llm-only`` mode, every child
    judged by one language-model expert over ``server``; returns their
    fused values."""
    expert = llm_over(server, concurrency)
    council = Council([expert])
    siblings = [
        SearchNode(i, Query(make_trajectory([("a task", f"move {i}")], pending=f"after {i}")))
        for i in range(count)
    ]
    _assign_values(siblings, council, "llm", "llm-only", random.Random(0), EpisodeContext("e"))
    assert expert.backend.usage.requests == count
    return [child.fused_value for child in siblings]


def test_a_sibling_sets_judge_requests_are_in_flight_at_once_over_http(loopback):
    server = loopback(barrier=threading.Barrier(3, timeout=5))
    assert judge_siblings(server, concurrency=4, count=3) == [0.5, 0.5, 0.5]
    assert server.most_in_flight == 3


def test_concurrency_one_keeps_one_judge_request_in_flight_over_http(loopback):
    server = loopback(delay_s=0.05)
    assert judge_siblings(server, concurrency=1, count=3) == [0.5, 0.5, 0.5]
    assert len(server.bodies) == 3
    assert all(body["messages"][0]["content"] == T.system_evaluate for body in server.bodies)
    assert server.most_in_flight == 1


# -- HTTP error mapping, with no third-party HTTP client ---------------------------


@pytest.fixture
def stdlib_loopback(loopback, monkeypatch):
    """The loopback server, with ``requests`` made unimportable: every send
    goes through the standard library alone."""
    monkeypatch.setitem(sys.modules, "requests", None)
    return loopback


def act_request(timeout: float = 10.0) -> ChatRequest:
    messages = sample_prompt(compose_prompt("t", Trajectory(), None, "act"), 1, 1)
    return ChatRequest(messages, 0.3, max_tokens=32, timeout=timeout)


def send_to(endpoint: str, timeout: float = 10.0) -> str:
    backend = HTTPBackend("b", endpoint, "some-model", "COUNCIL_TEST_KEY")
    return backend.send(act_request(timeout))


def test_a_send_posts_json_without_the_requests_package(stdlib_loopback):
    with pytest.raises(ImportError):
        importlib.import_module("requests")
    server = stdlib_loopback()
    request = act_request()
    backend = HTTPBackend("b", server.endpoint, "some-model", "COUNCIL_TEST_KEY")
    assert backend.send(request) == "action 1"
    assert server.content_types == ["application/json"]
    assert server.headers_seen == ["Bearer loopback-key"]
    assert server.bodies == [
        {
            "model": "some-model",
            "messages": [{"role": m.role, "content": m.content} for m in request.messages],
            "temperature": 0.3,
            "max_tokens": 32,
        }
    ]


@pytest.mark.parametrize("status", [401, 403])
def test_a_rejected_credential_is_a_config_error(stdlib_loopback, status):
    server = stdlib_loopback(status=status, payload=b"{}")
    with pytest.raises(BackendConfigError, match=f"HTTP {status}"):
        send_to(server.endpoint)


@pytest.mark.parametrize("status", [404, 429, 500])
def test_a_failure_status_is_a_provider_error(stdlib_loopback, status):
    server = stdlib_loopback(status=status, payload=b"{}")
    with pytest.raises(ProviderError, match=f"HTTP {status}"):
        send_to(server.endpoint)


def test_a_refused_connection_is_a_provider_error(stdlib_loopback):
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    # Nothing listens on the port once the probe is closed.
    with pytest.raises(ProviderError, match="transport failure"):
        send_to(f"http://127.0.0.1:{port}/v1/chat/completions")


def test_a_reply_slower_than_the_timeout_is_a_provider_error(stdlib_loopback):
    server = stdlib_loopback(delay_s=1.0)
    with pytest.raises(ProviderError, match="transport failure"):
        send_to(server.endpoint, timeout=0.1)


def test_a_trickled_reply_is_cut_off_at_the_timeout_of_the_whole_send(stdlib_loopback):
    payload = json.dumps({"choices": [{"message": {"content": "action 1"}}]}).encode()
    assert len(payload) == 51
    server = stdlib_loopback(payload=payload, trickle_s=0.05)
    start = time.monotonic()
    with pytest.raises(ProviderError, match="within the timeout"):
        send_to(server.endpoint, timeout=0.2)
    assert time.monotonic() - start < 0.5


def test_trickled_headers_are_cut_off_at_the_timeout_of_the_whole_send(stdlib_loopback):
    payload = json.dumps({"choices": [{"message": {"content": "action 1"}}]}).encode()
    server = stdlib_loopback(payload=payload, trickle_s=0.05, trickle_head=True)
    start = time.monotonic()
    # The status line and headers alone are about 140 bytes, 7 s at this pace.
    with pytest.raises(ProviderError, match="transport failure"):
        send_to(server.endpoint, timeout=0.2)
    assert time.monotonic() - start < 0.5


def test_a_reply_longer_than_the_cap_is_a_provider_error(stdlib_loopback):
    content = "x" * gateway._REPLY_CAP_BYTES
    payload = json.dumps({"choices": [{"message": {"content": content}}]}).encode()
    server = stdlib_loopback(payload=payload)
    backend = HTTPBackend("b", server.endpoint, "some-model", "COUNCIL_TEST_KEY")
    with pytest.raises(ProviderError, match="reply longer than"):
        backend.send(act_request())
    assert backend.usage.output_chars == 0


@pytest.mark.parametrize("status", [302, 307])
def test_a_redirect_is_not_followed(stdlib_loopback, status):
    target = stdlib_loopback()
    server = stdlib_loopback(status=status, payload=b"", location=target.endpoint)
    # Following it would carry the credential header to the host it names.
    with pytest.raises(ProviderError, match=f"HTTP {status}"):
        send_to(server.endpoint)
    assert len(server.bodies) == 1
    assert target.bodies == []


MALFORMED_PAYLOADS = [
    b'{"choices": [{"message": {"content": null}}]}',
    b'{"choices": [{"message": {"content": 7}}]}',
    b"[]",
    b'{"choices": null}',
    b"not json",
    b'{"choices": []}',
]


@pytest.mark.parametrize("payload", MALFORMED_PAYLOADS)
def test_a_malformed_completion_is_a_provider_error(stdlib_loopback, payload):
    server = stdlib_loopback(payload=payload)
    backend = HTTPBackend("b", server.endpoint, "some-model", "COUNCIL_TEST_KEY")
    with pytest.raises(ProviderError, match="malformed completion payload"):
        backend.send(act_request())
    assert backend.usage.output_chars == 0


def test_a_malformed_completion_is_retried_once_then_unavailable(stdlib_loopback):
    server = stdlib_loopback(payload=MALFORMED_PAYLOADS[0])
    backend = HTTPBackend("b", server.endpoint, "some-model", "COUNCIL_TEST_KEY")
    with pytest.raises(ExpertUnavailableError, match="malformed completion payload"):
        complete(backend, act_request(), sleep=lambda seconds: None)
    assert len(server.bodies) == 2
