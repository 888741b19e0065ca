"""Chat-completion gateway with live HTTP, scripted mock, and cache backends.

All backends share one contract: `complete(ChatRequest) -> ChatResponse`.
Requests are content-addressed by a SHA-256 digest of their canonical JSON
serialization, which keys both the response cache and mock scripts.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Mapping, NamedTuple

import requests

from .errors import (
    ConfigError,
    MissingScriptError,
    ProtocolError,
    TransportError,
)
from .ioutil import atomic_write_bytes

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


def cache_key(request: ChatRequest) -> str:
    """64-hex SHA-256 digest of the canonical request serialization."""
    return request.digest


class ChatBackend:
    """Interface: complete one chat request."""

    def complete(self, request: ChatRequest) -> ChatResponse:
        raise NotImplementedError


class HttpBackend(ChatBackend):
    """Live backend speaking the POST /v1/chat/completions protocol.

    Retries transport failures and 429/5xx with exponential backoff; any
    other non-2xx status is terminal.
    """

    def __init__(self, config: BackendConfig = BackendConfig()):
        self.config = config
        self.api_key = config.api_key or os.environ.get(API_KEY_ENV, "")
        if not self.api_key:
            raise ConfigError(
                f"no API key: set {API_KEY_ENV} or BackendConfig.api_key"
            )
        self._url = config.base_url.rstrip("/") + "/v1/chat/completions"

    def complete(self, request: ChatRequest) -> ChatResponse:
        headers = {
            "Authorization": f"Bearer {self.api_key}",
            "Content-Type": "application/json",
        }
        body = canonical_payload(request)
        attempts = self.config.max_retries + 1
        last_exc: Exception | None = None
        last_status = None
        last_body = None
        for attempt in range(attempts):
            if attempt:
                time.sleep(self.config.retry_backoff_s * 2 ** (attempt - 1))
            try:
                resp = requests.post(
                    self._url, json=body, headers=headers, timeout=self.config.timeout_s
                )
            except requests.RequestException as exc:
                last_exc = exc
                continue
            if resp.status_code in RETRYABLE_STATUSES:
                last_status, last_body = resp.status_code, resp.text
                last_exc = None
                continue
            if not (200 <= resp.status_code < 300):
                raise ProtocolError(
                    f"chat completion failed with HTTP {resp.status_code}",
                    status=resp.status_code,
                    body=resp.text,
                )
            return self._parse(resp)
        if last_exc is not None:
            raise TransportError(f"transport failed after {attempts} attempts: {last_exc}")
        raise ProtocolError(
            f"retryable HTTP {last_status} persisted after {attempts} attempts",
            status=last_status,
            body=last_body,
        )

    @staticmethod
    def _parse(resp) -> ChatResponse:
        """The completion in `resp`; any malformed body is a ProtocolError."""
        try:
            doc = resp.json()
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
                f"unintelligible completion body: {exc}", body=resp.text
            ) from exc


class ScriptedBackend(ChatBackend):
    """Deterministic mock: maps request digests or prompt substrings to replies.

    A key of exactly 64 hex characters is treated as a request digest;
    anything else is a literal substring that must match exactly one entry.
    Unknown requests raise rather than fabricate.
    """

    def __init__(self, script: Mapping[str, str]):
        self.script = dict(script)
        self._digest_keys = {
            k for k in self.script
            if len(k) == 64 and all(c in "0123456789abcdef" for c in k.lower())
        }
        self.call_count = 0
        self._lock = threading.Lock()

    @classmethod
    def from_file(cls, path) -> "ScriptedBackend":
        try:
            with open(path) as fh:
                doc = json.load(fh)
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
        digest = cache_key(request)
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

    Entries live at `<store>/sha256/<first-2-hex>/<digest>.json`, holding the
    request and response verbatim. Writes go through
    `ioutil.atomic_write_bytes`, so concurrent writers of one entry leave one
    whole file, and a shard directory is made when a write finds it missing;
    a corrupted entry is treated as a miss and overwritten.
    """

    def __init__(self, inner: ChatBackend, store: Path | str):
        self.inner = inner
        self.store = Path(store)
        try:
            (self.store / "sha256").mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cache store not writable: {exc}") from exc
        if not os.access(self.store / "sha256", os.W_OK):
            raise ConfigError(f"cache store not writable: {self.store}")
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()

    def _path(self, digest: str) -> Path:
        return self.store / "sha256" / digest[:2] / f"{digest}.json"

    def complete(self, request: ChatRequest) -> ChatResponse:
        digest = cache_key(request)
        path = self._path(digest)
        cached = self._load(path)
        if cached is not None:
            with self._lock:
                self.hits += 1
            return cached
        response = self.inner.complete(request)
        with self._lock:
            self.misses += 1
        self._write(path, request, response)
        return response

    @staticmethod
    def _load(path: Path) -> ChatResponse | None:
        try:
            with open(path) as fh:
                doc = json.load(fh)
            resp = doc["response"]
            return ChatResponse(
                content=resp["content"],
                finish_reason=resp["finish_reason"],
                usage=TokenUsage(
                    resp["usage"]["prompt_tokens"], resp["usage"]["completion_tokens"]
                ),
            )
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError):
            return None  # corrupted entry: treat as miss, refetch, overwrite

    def _write(self, path: Path, request: ChatRequest, response: ChatResponse) -> None:
        doc = {
            "request": canonical_payload(request),
            "response": {
                "content": response.content,
                "finish_reason": response.finish_reason,
                "usage": {
                    "prompt_tokens": response.usage.prompt_tokens,
                    "completion_tokens": response.usage.completion_tokens,
                },
            },
        }
        atomic_write_bytes(path, json.dumps(doc, sort_keys=True, separators=(",", ":")).encode())
