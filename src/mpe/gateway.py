"""Chat-completion gateway with live HTTP, scripted mock, and cache backends.

All backends share one contract: `complete(ChatRequest) -> ChatResponse`.
Requests are content-addressed by a SHA-256 digest of their canonical JSON
serialization, which keys both the response cache and mock scripts.
"""

from __future__ import annotations

import base64
import email.utils
import hashlib
import http.client
import json
import os
import select
import ssl
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import cached_property, partial
from pathlib import Path
from typing import Mapping, NamedTuple
from urllib.parse import unquote, urlsplit

from .errors import BackendError, ConfigError, MissingScriptError, ProtocolError, TransportError
from .ioutil import atomic_write_bytes, open_append, read_text

ROLES = ("system", "user", "assistant")
FINISH_REASONS = ("stop", "length", "error")
API_KEY_ENV = "LLM_API_KEY"
RETRYABLE_STATUSES = frozenset({429, 500, 502, 503, 504})


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError(f"unknown role: {self.role!r}")
        if not self.content:
            raise ValueError("message content must be non-empty")


@dataclass(frozen=True)
class ChatRequest:
    model: str
    messages: tuple[ChatMessage, ...]
    temperature: float = 0.0
    max_tokens: int | None = None

    def __post_init__(self):
        if not self.model:
            raise ValueError("model must be non-empty")
        if not self.messages:
            raise ValueError("messages must be non-empty")
        object.__setattr__(self, "messages", tuple(self.messages))
        if not (0.0 <= self.temperature <= 2.0):
            raise ValueError("temperature must be in [0, 2]")
        if self.max_tokens is not None and self.max_tokens <= 0:
            raise ValueError("max_tokens must be positive")

    def text(self) -> str:
        """All message contents joined; used for substring script matching."""
        return "\n".join(m.content for m in self.messages)

    @cached_property
    def digest(self) -> str:
        """64-hex SHA-256 digest of the canonical serialization, computed
        once per request however many layers key it."""
        return hashlib.sha256(canonical_serialization(self).encode("utf-8")).hexdigest()


class TokenUsage(NamedTuple):
    prompt_tokens: int = 0
    completion_tokens: int = 0


@dataclass(frozen=True)
class ChatResponse:
    content: str
    finish_reason: str = "stop"
    usage: TokenUsage = field(default_factory=TokenUsage)

    def __post_init__(self):
        if self.finish_reason not in FINISH_REASONS:
            raise ValueError(f"unknown finish_reason: {self.finish_reason!r}")
        if self.finish_reason == "stop" and not self.content:
            raise ValueError("content must be present when finish_reason is stop")


@dataclass(frozen=True)
class BackendConfig:
    base_url: str = "https://api.openai.com"
    api_key: str | None = None  # falls back to the LLM_API_KEY env var
    timeout_s: float = 60.0
    max_retries: int = 3
    retry_backoff_s: float = 2.0

    def __post_init__(self):
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if not (0 <= self.max_retries <= 10):
            raise ValueError("max_retries must be in [0, 10]")
        if self.retry_backoff_s <= 0:
            raise ValueError("retry_backoff_s must be positive")
        url = urlsplit(self.base_url)  # reading `port` raises on a malformed one
        if url.scheme not in ("http", "https") or not url.hostname or url.port == 0:
            raise ValueError(f"base_url must be an http(s) URL with a host: {self.base_url!r}")


def canonical_payload(request: ChatRequest) -> dict:
    """Wire/body dict with fixed field order; max_tokens omitted when absent."""
    payload = {
        "model": request.model,
        "temperature": request.temperature,
        "messages": [{"role": m.role, "content": m.content} for m in request.messages],
    }
    if request.max_tokens is not None:
        payload["max_tokens"] = request.max_tokens
    return payload


def canonical_serialization(request: ChatRequest) -> str:
    return json.dumps(canonical_payload(request), separators=(",", ":"), ensure_ascii=True)


class ChatBackend:
    """Interface: complete one chat request. `waits`: a call waits on I/O
    outside the GIL, so a stage overlaps `concurrency` calls on threads. A
    caller's own backend does, unless its class sets `waits = False`."""

    namespace = "default"  # who answers; a response store keeps each one's replies apart
    waits = True

    def complete(self, request: ChatRequest) -> ChatResponse:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the backend holds open; call with no call in flight."""


class HttpBackend(ChatBackend):
    """Live backend speaking the POST /v1/chat/completions protocol over
    HTTP/1.1, through the proxy the environment names, if any. A connection
    stays open between calls; at most one is open per call in flight.

    Retries transport failures and 429/5xx with exponential backoff, or
    after the wait a 429 or 503 asks for in `Retry-After`, at most
    `timeout_s`; any other non-2xx status, a redirect included, is terminal.
    """

    def __init__(self, config: BackendConfig = BackendConfig()):
        self.config = config
        self.api_key = config.api_key or os.environ.get(API_KEY_ENV, "")
        if not self.api_key:
            raise ConfigError(
                f"no API key: set {API_KEY_ENV} or BackendConfig.api_key"
            )
        url = urlsplit(config.base_url)
        self._path = url.path.rstrip("/") + "/v1/chat/completions"
        named = f"{url.scheme}://{url.hostname}:{url.port}{self._path}".encode()
        self.namespace = "live-" + hashlib.sha256(named).hexdigest()
        self._headers = {"Authorization": f"Bearer {self.api_key}",
                         "Content-Type": "application/json"}
        self._connect = partial(http.client.HTTPConnection, timeout=config.timeout_s)
        if url.scheme == "https":  # verified against the system's CA store
            self._connect = partial(http.client.HTTPSConnection, timeout=config.timeout_s,
                                    context=ssl.create_default_context())
        self._address, self._tunnel = (url.hostname, url.port), None
        proxy = urllib.request.getproxies().get(url.scheme)
        if proxy and not urllib.request.proxy_bypass(url.hostname):  # CONNECT, either scheme
            proxy = urlsplit(proxy if "://" in proxy else "http://" + proxy)
            user = f"{unquote(proxy.username or '')}:{unquote(proxy.password or '')}"
            auth = {"Proxy-Authorization": "Basic " + base64.b64encode(user.encode()).decode()}
            self._tunnel = (url.hostname, url.port, auth if proxy.username else {})
            self._address = (proxy.hostname, proxy.port)
        self.call_count = 0  # one per `complete`, however many attempts it makes
        self._idle: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    def complete(self, request: ChatRequest) -> ChatResponse:
        with self._lock:
            self.call_count += 1
        body = json.dumps(canonical_payload(request), allow_nan=False).encode("utf-8")
        attempts = self.config.max_retries + 1
        error: BackendError | None = None  # the last failure wins
        for attempt in range(attempts):
            if attempt:
                time.sleep(wait)
            wait = self.config.retry_backoff_s * 2 ** attempt  # before the next attempt
            try:
                resp, text = self._exchange(body)
            except (OSError, http.client.HTTPException) as exc:
                error = TransportError(f"transport failed after {attempts} attempts: {exc}")
                continue
            if 200 <= resp.status < 300:
                return self._parse(text)
            if resp.status not in RETRYABLE_STATUSES:
                raise ProtocolError(
                    f"chat completion failed with HTTP {resp.status}", status=resp.status, body=text
                )
            if resp.status in (429, 503):
                wait = _retry_after(resp.getheader("Retry-After"), wait, self.config.timeout_s)
            error = ProtocolError(
                f"retryable HTTP {resp.status} persisted after {attempts} attempts",
                status=resp.status, body=text,
            )
        raise error

    def _exchange(self, body: bytes) -> tuple[http.client.HTTPResponse, str]:
        """One attempt on a pooled connection: the response and its body text."""
        with self._lock:
            conn = self._idle.pop() if self._idle else None
        if conn is None:  # a new connection opens with its first request
            conn = self._connect(*self._address)
            if self._tunnel:
                conn.set_tunnel(*self._tunnel)
        elif conn.sock is not None and select.select([conn.sock], [], [], 0)[0]:
            conn.close()  # the server closed it while idle; the request reopens it
        try:
            conn.request("POST", self._path, body, self._headers)
            resp = conn.getresponse()
            text = resp.read().decode("utf-8", errors="replace")
        except BaseException:
            conn.close()
            raise
        with self._lock:
            self._idle.append(conn)
        return resp, text

    def close(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    @staticmethod
    def _parse(text: str) -> ChatResponse:
        """The completion in body `text`; any malformed body is a ProtocolError."""
        try:
            doc = json.loads(text)
            choice = doc["choices"][0]
            content = choice["message"]["content"]
            if not isinstance(content, str):
                raise TypeError(f"content is {type(content).__name__}, not a string")
            finish = choice.get("finish_reason") or "stop"
            usage = doc.get("usage") or {}
            if not isinstance(usage, dict):
                raise TypeError(f"usage is {type(usage).__name__}, not an object")
            tokens = TokenUsage(
                usage.get("prompt_tokens") or 0, usage.get("completion_tokens") or 0
            )
            if not all(type(n) is int for n in tokens):
                raise TypeError(f"token counts are not integers: {usage}")
            return ChatResponse(
                content=content,
                finish_reason=finish if finish in FINISH_REASONS else "stop",
                usage=tokens,
            )
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ProtocolError(
                f"unintelligible completion body: {exc}", body=text
            ) from exc


def _retry_after(value: str | None, default: float, cap: float) -> float:
    """The seconds a Retry-After of delay seconds or an HTTP-date asks for
    (RFC 9110 section 10.2.3), at most `cap`; `default` if absent or unreadable."""
    try:
        if value.strip().isdigit():
            return min(float(value), cap)
        when = email.utils.parsedate_to_datetime(value)
        return min(max((when - datetime.now(timezone.utc)).total_seconds(), 0.0), cap)
    except (AttributeError, TypeError, ValueError):  # None, not a date, a date with no zone
        return default


class ScriptedBackend(ChatBackend):
    """Deterministic mock: maps request digests or prompt substrings to replies.

    A key of exactly 64 hex characters is treated as a request digest;
    anything else is a literal substring that must match exactly one entry.
    Unknown requests raise rather than fabricate.
    """

    waits = False

    def __init__(self, script: Mapping[str, str]):
        # A digest key is stored lower-cased, as `request.digest` spells it.
        digests = {k: k.lower() for k in script
                   if len(k) == 64 and set(k.lower()) <= set("0123456789abcdef")}
        self.script = {digests.get(k, k): v for k, v in script.items()}
        self._digest_keys = set(digests.values())
        named = json.dumps(dict(script), sort_keys=True).encode()
        self.namespace = "mock-" + hashlib.sha256(named).hexdigest()
        self.call_count = 0
        self._lock = threading.Lock()

    @classmethod
    def from_file(cls, path) -> "ScriptedBackend":
        try:
            doc = json.loads(read_text(path))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load mock script {path}: {exc}") from exc
        if not isinstance(doc, dict) or not all(
            isinstance(v, str) for v in doc.values()
        ):
            raise ConfigError(f"mock script {path} must map strings to reply strings")
        return cls(doc)

    def complete(self, request: ChatRequest) -> ChatResponse:
        with self._lock:
            self.call_count += 1
        digest = request.digest
        if digest in self.script:
            return self._reply(request, self.script[digest])
        text = request.text()
        matches = [
            k for k in self.script
            if k not in self._digest_keys and k in text
        ]
        if len(matches) == 1:
            return self._reply(request, self.script[matches[0]])
        if len(matches) > 1:
            raise MissingScriptError(
                f"mock script matches {len(matches)} substring entries for digest {digest}"
            )
        raise MissingScriptError(
            f"no scripted reply for request digest {digest} "
            f"(prompt starts: {text[:80]!r})"
        )

    @staticmethod
    def _reply(request: ChatRequest, content: str) -> ChatResponse:
        return ChatResponse(
            content=content,
            finish_reason="stop",
            usage=TokenUsage(len(request.text().split()), len(content.split())),
        )


class CachingBackend(ChatBackend):
    """Overlay that serves stored responses and delegates on a miss.

    Entries are lines `<digest> <{"request", "response"} JSON>` in segments
    `<store>/<inner.namespace>/log/*.jsonl`. Each instance appends one line
    per miss to a segment of its own; the last whole line of a key wins, and
    a torn or unparseable one is a miss, fetched and appended again. A `live`
    store adopts once the entries of the older `sha256/<2-hex>/` layout.
    """

    def __init__(self, inner: ChatBackend, store: Path | str):
        self.inner = inner
        self.store = Path(store)
        self.log = self.store / getattr(inner, "namespace", ChatBackend.namespace) / "log"
        self.waits = getattr(inner, "waits", ChatBackend.waits)
        try:
            self.log.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cache store not writable: {exc}") from exc
        if not os.access(self.log, os.W_OK):
            raise ConfigError(f"cache store not writable: {self.store}")
        legacy, adopted = self.store / "sha256", self.log / "0-sha256.jsonl"  # sorts first
        if isinstance(inner, HttpBackend) and legacy.is_dir() and not adopted.exists():
            atomic_write_bytes(adopted, b"".join(  # each old entry is one line of compact JSON
                b"%s %s\n" % (p.stem.encode(), p.read_bytes()) for p in sorted(legacy.glob("*/*"))))
        self._index = _index_log(self.log)  # digest -> (segment, offset, length)
        self._fd: int | None = None  # this instance's segment, opened on its first miss
        self.hits = self.misses = 0
        self._lock = threading.Lock()

    def close(self) -> None:
        self._close_segment()
        self.inner.close()

    def _close_segment(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def complete(self, request: ChatRequest) -> ChatResponse:
        digest = request.digest
        entry = self._index.get(digest)
        cached = entry and _read_entry(digest, *entry)
        if cached:
            with self._lock:
                self.hits += 1
            return cached[1]
        response = self.inner.complete(request)
        doc = {"request": canonical_payload(request), "response": {
            "content": response.content, "finish_reason": response.finish_reason,
            "usage": response.usage._asdict()}}
        line = f"{digest} {json.dumps(doc, sort_keys=True, separators=(',', ':'))}\n".encode()
        with self._lock:
            self.misses += 1
            if self._fd is None or os.fstat(self._fd).st_nlink == 0:  # none yet, or removed
                self._close_segment()
                self._segment = self.log / f"{time.time_ns():020d}-{os.urandom(6).hex()}.jsonl"
                self._fd = open_append(self._segment)
            try:
                if os.write(self._fd, line) != len(line):
                    raise OSError(f"short write to {self._segment}")
            except BaseException:
                self._close_segment()  # a torn line ends its segment; later lines start another
                raise
            end = os.lseek(self._fd, 0, os.SEEK_CUR)  # an append leaves the offset at the end
            self._index[digest] = (self._segment, end - len(line), len(line))
        return response


def _index_log(log: Path) -> dict[str, tuple[Path, int, int]]:
    """Digest -> (segment, offset, length) of each key's last whole line, parsing no JSON."""
    index = {}
    for segment in sorted(log.glob("*.jsonl")):
        offset = 0
        with open(segment, "rb") as fh:
            for line in fh:
                if line.endswith(b"\n") and line[64:65] == b" ":
                    index[line[:64].decode("latin-1")] = (segment, offset, len(line))
                offset += len(line)
    return index


def _read_entry(digest: str, segment: Path, offset: int, length: int):
    """(request, response) on one indexed line; None if it is gone or unparseable."""
    try:
        with open(segment, "rb") as fh:
            fh.seek(offset)
            line = fh.read(length)
        if line[:65] != f"{digest} ".encode():
            raise ValueError("the line moved")
        doc = json.loads(line[65:])
        resp = doc["response"]
        return doc["request"], ChatResponse(
            resp["content"], resp["finish_reason"], TokenUsage(**resp["usage"]))
    except (OSError, ValueError, KeyError, TypeError):
        return None


def read_store(store: Path | str):
    """Yield (namespace, digest, request, response) for each entry of the
    response store at `store`, as a `CachingBackend` opened on it sees them."""
    for log in sorted(Path(store).glob("*/log")):
        for digest, entry in _index_log(log).items():
            if read := _read_entry(digest, *entry):
                yield (log.parent.name, digest, *read)
