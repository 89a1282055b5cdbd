"""Chat-completion plumbing for language-model backed experts.

Prompt text is assembled from templates kept apart from the code that
fills them. The retrieved exemplar, when present, is fenced into its own
clearly-labeled region: it is reference material from a past success, and
the directives tell the model not to continue it. The k proposal requests of
one expansion differ only by a sample tag at the end of the act-directive
line, as in ``Propose the single next action. (sample 2 of 2)``; it adds no
line, and it makes each request's text distinct, so a backend that keys on
the text answers the same whatever order the concurrent sends arrive in.
The judge requests of one sibling set are sent at once too, and their texts
differ because each scores a different child.
Scoring replies are parsed with a first-number rule mapped onto [0, 1].

Credentials are read from an environment variable named in the backend
configuration, never from the config itself, and are not echoed into logs or
serialized requests.
"""

from __future__ import annotations

import functools
import json
import os
import re
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence

from .errors import (
    BackendConfigError,
    ExpertUnavailableError,
    ProviderError,
    ScoreParseError,
)
from .trajectory import Trajectory, serialize_trajectory


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str


@dataclass
class ChatRequest:
    messages: list[ChatMessage]
    temperature: float = 0.0
    max_tokens: int = 256
    timeout: float = 60.0

    def __post_init__(self) -> None:
        if not self.messages or self.messages[0].role != "system":
            raise ValueError("the first chat message must carry the system role")


@dataclass(frozen=True)
class PromptTemplates:
    system_act: str = (
        "You are one expert on a small council solving a task step by step. "
        "Reply with exactly one next action in the required format and nothing else."
    )
    system_evaluate: str = (
        "You are one expert on a small council judging a partial solution. "
        "Reply with a single score and nothing else."
    )
    exemplar_header: str = (
        "Reference: a past successful trajectory. It is context only; do not continue it."
    )
    exemplar_footer: str = "End of reference."
    current_header: str = "Current trajectory:"
    act_directive: str = "Propose the single next action."
    sample_tag: str = " (sample {index} of {count})"
    evaluate_directive: str = (
        "Rate how promising the current trajectory is on a 0 to 10 scale, "
        "where 0 is hopeless and 10 is certain success. Reply with the score only."
    )


DEFAULT_TEMPLATES = PromptTemplates()


def compose_prompt(
    task_instruction: str,
    prefix: Trajectory,
    exemplar: str | None,
    mode: str,
) -> list[ChatMessage]:
    """The system and user messages of one act or evaluate call.

    Deterministic in its inputs. ``exemplar`` is a stored segment's
    serialized text, placed as it is. The exemplar region is present exactly
    when an exemplar is supplied and never interleaves with the
    current-trajectory region.
    """
    if mode not in ("act", "evaluate"):
        raise ValueError(f"unknown prompt mode: {mode}")
    t = DEFAULT_TEMPLATES
    parts = [f"Task: {task_instruction}"]
    if exemplar is not None:
        parts.append(f"{t.exemplar_header}\n{exemplar}{t.exemplar_footer}")
    directive = t.act_directive if mode == "act" else t.evaluate_directive
    parts.append(f"{t.current_header}\n{serialize_trajectory(prefix)}{directive}")
    return [
        ChatMessage(role="system", content=t.system_act if mode == "act" else t.system_evaluate),
        ChatMessage(role="user", content="\n\n".join(parts)),
    ]


def sample_prompt(messages: list[ChatMessage], index: int, count: int) -> list[ChatMessage]:
    """An act prompt tagged as sample ``index`` of ``count``.

    The tag goes at the end of the user message, which is the act-directive
    line, so the current-trajectory region above it keeps its bytes.
    """
    *head, user = messages
    tag = DEFAULT_TEMPLATES.sample_tag.format(index=index, count=count)
    return [*head, ChatMessage(role=user.role, content=user.content + tag)]


_NUMBER_RE = re.compile(r"-?\d+(?:\.\d+)?")


def parse_score(text: str) -> float:
    """Extract an evaluation score from free text and map it to [0, 1].

    The first number in the reply wins. A value written with a decimal point
    that already lies in [0, 1] is taken as-is; anything else is read on the
    0 to 10 scale and divided by ten. The result is clamped to [0, 1].
    """
    match = _NUMBER_RE.search(text)
    if match is None:
        raise ScoreParseError(f"no numeric score in reply: {text!r}")
    raw = match.group(0)
    value = float(raw)
    if "." in raw and 0.0 <= value <= 1.0:
        scaled = value
    else:
        scaled = value / 10.0
    return min(1.0, max(0.0, scaled))


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


@dataclass
class BackendUsage:
    requests: int = 0
    input_chars: int = 0
    output_chars: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def add(self, request: ChatRequest | None = None, reply: str = "") -> None:
        """Count one sent ``request`` or one received ``reply``. Worker
        threads share a backend, so the update holds a lock."""
        with self._lock:
            if request is not None:
                self.requests += 1
                self.input_chars += sum(len(m.content) for m in request.messages)
            self.output_chars += len(reply)


class Backend(Protocol):
    backend_id: str
    usage: BackendUsage

    def send(self, request: ChatRequest) -> str:
        """Execute one completion. Raises ProviderError on transient failure
        and BackendConfigError on misconfiguration."""
        ...


class StubBackend:
    """Offline backend for tests and dry runs.

    Replies come from a list (cycled) or a callable. A positive ``failures``
    makes the first N sends raise the configured exception, which is how the
    retry path gets exercised. Sends from several threads are counted
    exactly; the reply callable runs outside the lock. List replies follow
    arrival order, so concurrent sends get them in no fixed order: a test of
    concurrent sends answers from a callable keyed on the request.
    """

    def __init__(
        self,
        replies: list[str] | Callable[[ChatRequest], str] = ("0",),
        backend_id: str = "stub",
        failures: int = 0,
        failure_exc: type[Exception] = ProviderError,
    ):
        self.backend_id = backend_id
        self._replies = replies
        self._calls = 0
        self._failures = failures
        self._failure_exc = failure_exc
        self.usage = BackendUsage()
        self.requests_seen: list[ChatRequest] = []
        self._lock = threading.Lock()

    def send(self, request: ChatRequest) -> str:
        with self._lock:
            self.requests_seen.append(request)
            call = self._calls
            self._calls += 1
        self.usage.add(request)
        if call < self._failures:
            raise self._failure_exc("stub backend failure")
        if callable(self._replies):
            reply = self._replies(request)
        else:
            replies = list(self._replies)
            reply = replies[(call - self._failures) % len(replies)]
        self.usage.add(reply=reply)
        return reply


@functools.cache
def _opener():
    """The opener HTTPBackend sends through, built on first use. It follows
    no redirect: urllib would carry the credential to any host one names.
    Each read of a response, status line and headers included, waits only
    until the send's deadline, ``timeout`` seconds after its connection is
    made as the request is posted; a read past it raises TimeoutError."""
    import http.client
    import io
    import urllib.request

    class RefuseRedirects(urllib.request.HTTPRedirectHandler):
        def redirect_request(self, *args, **kwargs):
            return None

    class DeadlineReader(io.RawIOBase):
        """What a socket receives, each read waiting no later than
        ``deadline``: the socket's timeout is set to the time left before
        every read, and a read once none is left raises TimeoutError."""

        def __init__(self, sock, deadline: float):
            self._sock = sock
            # Like any file of the socket's, this one keeps the socket open.
            self._raw = sock.makefile("rb", buffering=0)
            self._deadline = deadline

        def readable(self) -> bool:
            return True

        def readinto(self, buffer) -> int:
            left = self._deadline - time.monotonic()
            if left <= 0.0:
                raise TimeoutError("the send deadline has passed")
            self._sock.settimeout(left)
            return self._raw.readinto(buffer)

        def close(self) -> None:
            self._raw.close()
            super().close()

    def connect(http_class, *args, **kwargs):
        connection = http_class(*args, **kwargs)
        deadline = time.monotonic() + connection.timeout

        def response_class(sock, **kwargs):
            response = http.client.HTTPResponse(sock, **kwargs)
            response.fp.close()
            response.fp = io.BufferedReader(DeadlineReader(sock, deadline))
            return response

        connection.response_class = response_class
        return connection

    class Deadlines(urllib.request.HTTPSHandler, urllib.request.HTTPHandler):
        def do_open(self, http_class, req, **kwargs):
            return super().do_open(functools.partial(connect, http_class), req, **kwargs)

    return urllib.request.build_opener(RefuseRedirects, Deadlines)


# Far above the reply to any ``max_tokens``; a longer reply is refused.
_REPLY_CAP_BYTES = 4 << 20


def _read_reply(response) -> bytearray:
    """The body of ``response``, read a chunk at a time; ProviderError once
    a read passes the send's deadline or the body passes the cap."""
    body = bytearray()
    try:
        while chunk := response.read1(1 << 16):
            body += chunk
            if len(body) > _REPLY_CAP_BYTES:
                raise ProviderError(f"reply longer than {_REPLY_CAP_BYTES} bytes")
    except TimeoutError:
        raise ProviderError("reply not complete within the timeout") from None
    return body


class HTTPBackend:
    """OpenAI-style chat completion endpoint over HTTP.

    The API key is read from the process environment at send time; a missing
    or rejected (HTTP 401 or 403) credential is a configuration error, not a
    retriable one. Any other failure status, a redirect, a transport failure
    or timeout, and a reply without a text ``choices[0].message.content``
    raise ProviderError. So does a reply past ``_REPLY_CAP_BYTES`` or not read
    in full, status line and headers included, ``timeout`` seconds after
    posting.
    ``concurrency`` caps in-flight requests per backend, including the
    proposal requests of an expansion and the judge requests of a sibling
    set, which are each sent at once.
    """

    def __init__(
        self,
        backend_id: str,
        endpoint: str,
        model: str,
        credential_env: str,
        concurrency: int = 4,
    ):
        if concurrency < 1:
            raise ValueError(f"concurrency must be at least 1, got {concurrency}")
        self.backend_id = backend_id
        self.endpoint = endpoint
        self.model = model
        self.credential_env = credential_env
        self.usage = BackendUsage()
        self._gate = threading.Semaphore(concurrency)

    def send(self, request: ChatRequest) -> str:
        import http.client
        import urllib.error
        import urllib.request

        key = os.environ.get(self.credential_env, "")
        if not key:
            raise BackendConfigError(
                f"no credential in environment variable {self.credential_env}"
            )
        body = {
            "model": self.model,
            "messages": [{"role": m.role, "content": m.content} for m in request.messages],
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        headers = {"Authorization": f"Bearer {key}", "Content-Type": "application/json"}
        post = urllib.request.Request(self.endpoint, json.dumps(body).encode(), headers)
        with self._gate:
            self.usage.add(request)
            try:
                with _opener().open(post, timeout=request.timeout) as response:
                    raw = _read_reply(response)
            except urllib.error.HTTPError as exc:  # before URLError, its parent
                exc.close()
                if exc.code in (401, 403):
                    raise BackendConfigError(f"credential rejected (HTTP {exc.code})") from exc
                raise ProviderError(f"backend returned HTTP {exc.code}") from exc
            except (OSError, http.client.HTTPException) as exc:
                raise ProviderError(f"transport failure: {exc.__class__.__name__}") from exc
        try:
            content = json.loads(raw)["choices"][0]["message"]["content"]
        except (LookupError, TypeError, ValueError):
            content = None
        if not isinstance(content, str):
            raise ProviderError("malformed completion payload")
        self.usage.add(reply=content)
        return content


_RETRIES = 1
_BACKOFF_S = 0.25


def complete(
    backend: Backend, request: ChatRequest, sleep: Callable[[float], None] = time.sleep
) -> str:
    """Run one completion with a single retry under exponential backoff.

    Transient provider failures are retried once; exhausting the budget
    raises ExpertUnavailableError. Configuration errors pass straight
    through, retrying cannot fix them.
    """
    last: ProviderError | None = None
    for attempt in range(_RETRIES + 1):
        try:
            return backend.send(request)
        except ProviderError as exc:
            last = exc
            if attempt < _RETRIES:
                sleep(_BACKOFF_S * (2.0 ** attempt))
    raise ExpertUnavailableError(f"backend {backend.backend_id} unavailable: {last}") from last


# One pool for every fan-out in the process: a pool made per call costs more
# than the overlap saves on short sends. Its threads start on first use. A
# pool thread runs only :func:`complete`, which never waits on the pool, so
# fan-outs from any number of threads cannot deadlock it.
_SENDS = ThreadPoolExecutor(thread_name_prefix="council-gateway")


def complete_all(sends: Sequence[tuple[Backend, ChatRequest]]) -> list[Future[str]]:
    """Run :func:`complete` on every ``(backend, request)`` pair at once.

    The caller's thread sends the first request and a shared pool the rest,
    so a single send uses no pool thread. The call returns only after every
    send has returned, with one done future per pair, in pair order: its
    ``result()`` is the reply, or raises what that pair's :func:`complete`
    raised.
    """
    if not sends:
        return []
    rest = [_SENDS.submit(complete, backend, request) for backend, request in sends[1:]]
    first: Future[str] = Future()
    try:
        first.set_result(complete(*sends[0]))
    except Exception as exc:  # kept for the caller, as the pool keeps the rest's
        first.set_exception(exc)
    finally:
        wait(rest)
    return [first, *rest]


request_for = ChatRequest  # kept for perfbench/test_perfbench.py, which imports it

