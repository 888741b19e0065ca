"""Backends: digests, scripted mock, cache overlay, and the HTTP client
against a local stub server."""

import http.client
import json
import os
import random
import select
import shutil
import socket
import socketserver
import ssl
import string
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from mpe import gateway
from mpe.errors import ConfigError, MissingScriptError, ProtocolError, TransportError
from mpe.gateway import (
    BackendConfig,
    CachingBackend,
    ChatBackend,
    ChatMessage,
    ChatRequest,
    ChatResponse,
    HttpBackend,
    ScriptedBackend,
    TokenUsage,
    canonical_payload,
    canonical_serialization,
    read_store,
)

from conftest import YieldingCallCount
from oracles import canonical_digest


def _request(content="hello", model="gpt-4", temperature=0.0, max_tokens=None):
    return ChatRequest(
        model=model,
        messages=(ChatMessage("user", content),),
        temperature=temperature,
        max_tokens=max_tokens,
    )


# --- domain type validation ---------------------------------------------------


def test_message_and_request_validation():
    with pytest.raises(ValueError):
        ChatMessage("narrator", "hi")
    with pytest.raises(ValueError):
        ChatMessage("user", "")
    with pytest.raises(ValueError):
        ChatRequest(model="gpt-4", messages=())
    with pytest.raises(ValueError):
        _request(temperature=2.5)
    with pytest.raises(ValueError):
        _request(max_tokens=0)


def test_response_validation():
    with pytest.raises(ValueError):
        ChatResponse(content="", finish_reason="stop")
    with pytest.raises(ValueError):
        ChatResponse(content="x", finish_reason="banana")
    resp = ChatResponse(content="x", usage=TokenUsage(3, 4))
    assert tuple(resp.usage) == (3, 4)


def test_backend_config_validation():
    with pytest.raises(ValueError):
        BackendConfig(max_retries=11)
    with pytest.raises(ValueError):
        BackendConfig(timeout_s=0)
    for base_url in (
        "api.example.com", "ftp://api.example.com", "http://", "https:///v1",
        "http://api.example.com:port", "http://api.example.com:70000", "http://host:0",
    ):
        with pytest.raises(ValueError):
            BackendConfig(base_url=base_url)
    for base_url in ("http://127.0.0.1:8080", "https://api.example.com/prefix/", "HTTPS://h"):
        assert BackendConfig(base_url=base_url).base_url == base_url


# --- cache keys ----------------------------------------------------------------


def test_digest_determinism_and_field_sensitivity():
    assert _request().digest == _request().digest
    assert _request().digest != _request(temperature=0.5).digest
    assert _request().digest != _request(content="other").digest
    assert _request().digest != _request(max_tokens=100).digest
    assert len(_request().digest) == 64


def test_digest_matches_independent_canonical_serializer():
    for content, temperature, max_tokens in [
        ("hello", 0.0, None),
        ("unicode — naïve ©", 0.25, 128),
        ("multi\nline", 1.0, None),
    ]:
        request = _request(content, temperature=temperature, max_tokens=max_tokens)
        expected = canonical_digest(
            "gpt-4", temperature, [("user", content)], max_tokens
        )
        assert request.digest == expected


def test_canonical_serialization_is_compact_and_ordered():
    text = canonical_serialization(_request("hi"))
    assert text.startswith('{"model":"gpt-4","temperature":0.0,"messages":')
    assert " " not in text.split('"messages"')[0]


def test_request_digest_serialises_a_request_once(monkeypatch, tmp_path):
    serialised = []

    def counting(request):
        serialised.append(request)
        return canonical_serialization(request)

    monkeypatch.setattr(gateway, "canonical_serialization", counting)
    request = _request("keyed by every layer")
    digest = request.digest
    backend = CachingBackend(ScriptedBackend({digest: "scripted"}), tmp_path / "store")
    assert backend.complete(request).content == "scripted"
    assert request.digest == digest
    assert serialised == [request]
    assert replace(request, temperature=0.5).digest != digest
    assert len(serialised) == 2


def test_no_digest_collisions_across_10k_random_requests():
    rng = random.Random(2024)
    seen = {}
    for i in range(10_000):
        content = "".join(rng.choices(string.ascii_letters + " ", k=rng.randrange(1, 40)))
        request = _request(
            f"{i}:{content}", temperature=rng.choice([0.0, 0.5, 1.0])
        )
        digest = request.digest
        assert digest not in seen
        seen[digest] = True


# --- scripted mock --------------------------------------------------------------


def test_scripted_mock_by_digest():
    request = _request("what is the demand")
    backend = ScriptedBackend({request.digest: "[pickup] 500 [dropoff] 300 [reasoning] test"})
    assert backend.complete(request).content == "[pickup] 500 [dropoff] 300 [reasoning] test"
    assert backend.call_count == 1


def test_scripted_mock_by_upper_case_digest():
    request = _request("what is the demand")
    backend = ScriptedBackend({request.digest.upper(): "[pickup] 1 [dropoff] 2"})
    assert backend.complete(request).content == "[pickup] 1 [dropoff] 2"


def test_scripted_mock_by_unique_substring():
    backend = ScriptedBackend({"demand for 2014-07-25": "[pickup] 1 [dropoff] 2"})
    request = _request("predict the demand for 2014-07-25 please")
    assert backend.complete(request).content == "[pickup] 1 [dropoff] 2"


def test_scripted_mock_unknown_request_refuses():
    backend = ScriptedBackend({"nope": "reply"})
    with pytest.raises(MissingScriptError):
        backend.complete(_request("entirely different"))


def test_scripted_mock_ambiguous_substring_refuses():
    backend = ScriptedBackend({"demand": "a", "2014": "b"})
    with pytest.raises(MissingScriptError):
        backend.complete(_request("demand for 2014"))


def test_scripted_mock_from_file(tmp_path):
    path = tmp_path / "script.json"
    path.write_text(json.dumps({"hello": "world"}))
    backend = ScriptedBackend.from_file(path)
    assert backend.complete(_request("hello there")).content == "world"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"k": 5}))
    with pytest.raises(ConfigError):
        ScriptedBackend.from_file(bad)


# --- cache overlay ---------------------------------------------------------------


class CountingBackend(ChatBackend):
    def __init__(self, reply="cached reply"):
        self.calls = 0
        self.reply = reply

    def complete(self, request):
        self.calls += 1
        return ChatResponse(content=self.reply, usage=TokenUsage(1, 1))


def test_cache_hit_never_invokes_inner(tmp_path):
    inner = CountingBackend()
    backend = CachingBackend(inner, tmp_path / "store")
    request = _request("cache me")
    first = backend.complete(request)
    second = backend.complete(request)
    assert first.content == second.content == "cached reply"
    assert inner.calls == 1
    assert backend.hits == 1 and backend.misses == 1


def _segments(store):
    return sorted(store.glob("*/log/*.jsonl"))


def test_cache_layout(tmp_path):
    store = tmp_path / "store"
    backend = CachingBackend(CountingBackend(), store)
    request = _request("layout probe")
    backend.complete(request)
    digest = request.digest
    [segment] = _segments(store)
    assert segment.parent == store / "default" / "log"
    assert segment.read_text().startswith(f"{digest} ")
    [(namespace, key, stored, response)] = read_store(store)
    assert (namespace, key) == ("default", digest)
    assert stored["model"] == "gpt-4"
    assert response.content == "cached reply"


def test_corrupted_entry_is_refetched_and_overwritten(tmp_path):
    store = tmp_path / "store"
    inner = CountingBackend()
    backend = CachingBackend(inner, store)
    request = _request("heal me")
    backend.complete(request)
    digest = request.digest
    [segment] = _segments(store)
    segment.write_text(f"{digest} {{ corrupted\n")
    response = backend.complete(request)
    assert response.content == "cached reply"
    assert inner.calls == 2
    [(_, key, _, stored)] = read_store(store)
    assert key == digest and stored.content == "cached reply"
    assert CachingBackend(CountingBackend("other"), store).complete(request).content \
        == "cached reply"


def test_cache_entry_bytes_mode_and_no_temp_files(tmp_path):
    store = tmp_path / "store"
    CachingBackend(CountingBackend(), store).complete(_request("mode probe"))
    digest = _request("mode probe").digest
    [segment] = _segments(store)
    [(_, _, request, response)] = read_store(store)
    doc = {"request": request, "response": {
        "content": response.content, "finish_reason": response.finish_reason,
        "usage": {"prompt_tokens": 1, "completion_tokens": 1}}}
    line = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert segment.read_bytes() == f"{digest} {line}\n".encode()
    assert segment.stat().st_mode & 0o777 == 0o600
    assert [p for p in store.rglob("*") if p.is_file()] == [segment]


def test_two_threads_writing_one_entry_leave_one_whole_file(tmp_path):
    class Meeting(CountingBackend):
        """Answers only once both threads have missed the cache."""
        barrier = threading.Barrier(2, timeout=10)

        def complete(self, request):
            self.barrier.wait()
            return super().complete(request)

    store = tmp_path / "store"
    inner = Meeting()
    backend = CachingBackend(inner, store)
    threads = [
        threading.Thread(target=backend.complete, args=(_request("race"),)) for _ in range(2)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert inner.calls == 2 and backend.misses == 2
    [segment] = _segments(store)
    assert all(json.loads(line.split(" ", 1)[1]) for line in segment.read_text().splitlines())
    entries = list(read_store(store))
    assert [key for _, key, _, _ in entries] == [_request("race").digest]
    assert entries[0][3].content == "cached reply"
    assert CachingBackend(CountingBackend("other"), store).complete(_request("race")).content \
        == "cached reply"


def test_eight_threads_append_every_entry_whole(tmp_path):
    store = tmp_path / "store"
    backend = CachingBackend(CountingBackend(), store)
    requests = [_request(f"thread {i}") for i in range(400)]

    def work(k):  # eight threads on two cores, each on its own 50 requests
        for request in requests[k::8]:
            backend.complete(request)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert backend.misses == 400 and len(_segments(store)) == 1
    assert all(backend.complete(r).content == "cached reply" for r in requests)
    assert backend.hits == 400
    backend.close()
    assert {key for _, key, _, _ in read_store(store)} == {r.digest for r in requests}
    inner = CountingBackend("other")
    reopened = CachingBackend(inner, store)
    assert all(reopened.complete(r).content == "cached reply" for r in requests)
    assert inner.calls == 0


def test_entry_is_written_after_its_log_directory_is_removed(tmp_path):
    store = tmp_path / "store"
    backend = CachingBackend(CountingBackend(), store)
    first, request = _request("pair 0"), _request("pair 1")
    backend.complete(first)
    shutil.rmtree(store / "default" / "log")
    assert backend.complete(request).content == "cached reply"
    assert [key for _, key, _, _ in read_store(store)] == [request.digest]
    assert CachingBackend(CountingBackend("other"), store).complete(request).content \
        == "cached reply"


def test_a_segment_cut_mid_line_misses_only_the_torn_entry(tmp_path):
    store = tmp_path / "store"
    requests = [_request(f"cut {i}") for i in range(3)]
    backend = CachingBackend(CountingBackend(), store)
    for request in requests:
        backend.complete(request)
    backend.close()
    [segment] = _segments(store)
    data = segment.read_bytes()
    segment.write_bytes(data[:len(data) - 40])  # into the last line
    inner = CountingBackend("refetched")
    reopened = CachingBackend(inner, store)
    assert [reopened.complete(r).content for r in requests] == \
        ["cached reply", "cached reply", "refetched"]
    assert inner.calls == 1 and reopened.hits == 2
    assert {key: response.content for _, key, _, response in read_store(store)} == {
        requests[0].digest: "cached reply", requests[1].digest: "cached reply",
        requests[2].digest: "refetched",
    }


def test_backends_opened_one_after_the_other_see_each_others_entries(tmp_path):
    store = tmp_path / "store"
    one, two = _request("one"), _request("two")
    first = CachingBackend(CountingBackend("first"), store)
    assert first.complete(one).content == "first"
    first.close()
    second = CachingBackend(CountingBackend("second"), store)
    assert second.complete(one).content == "first"
    assert second.complete(two).content == "second"
    second.close()
    inner = CountingBackend("third")
    third = CachingBackend(inner, store)
    assert [third.complete(r).content for r in (one, two)] == ["first", "second"]
    assert inner.calls == 0 and len(_segments(store)) == 2


def test_a_failed_write_leaves_the_lines_after_it_whole(tmp_path, monkeypatch):
    store = tmp_path / "store"
    requests = [_request(f"write {i}") for i in range(3)]
    backend = CachingBackend(CountingBackend(), store)
    backend.complete(requests[0])
    write = os.write

    def torn(fd, data):  # half the line reaches the disk, then the disk is full
        write(fd, data[:len(data) // 2])
        raise OSError(28, "No space left on device")

    with monkeypatch.context() as patched:
        patched.setattr(os, "write", torn)
        with pytest.raises(OSError):
            backend.complete(requests[1])
    backend.complete(requests[2])
    backend.close()
    inner = CountingBackend("refetched")
    reopened = CachingBackend(inner, store)
    assert [reopened.complete(r).content for r in requests] == \
        ["cached reply", "refetched", "cached reply"]
    assert inner.calls == 1


def test_cache_transparency_cold_store(tmp_path):
    inner = CountingBackend("same answer")
    direct = inner.complete(_request("transparent"))
    cached = CachingBackend(CountingBackend("same answer"), tmp_path / "s").complete(
        _request("transparent")
    )
    assert direct.content == cached.content


def test_unwritable_store_raises_config_error(tmp_path):
    if os.geteuid() == 0:
        pytest.skip("root ignores directory permissions")
    blocked = tmp_path / "blocked"
    blocked.mkdir()
    blocked.chmod(0o500)
    with pytest.raises(ConfigError):
        CachingBackend(CountingBackend(), blocked / "store")


# --- HTTP backend against a local stub ------------------------------------------


class _StubHandler(BaseHTTPRequestHandler):
    """Speaks HTTP/1.1, so a connection stays open between requests, and
    records each request's arrival time and raw body, and each connection."""

    protocol_version = "HTTP/1.1"
    script = {}
    seen = []
    connections = []
    closed = threading.Semaphore(0)  # released as the server closes a connection

    def setup(self):
        super().setup()
        type(self).connections.append(self.client_address)

    def _reply(self, status, raw, headers=()):
        self.send_response(status)
        for name, value in headers:
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        raw = self.rfile.read(length)
        type(self).seen.append({
            "path": self.path,
            "auth": self.headers.get("Authorization"),
            "body": json.loads(raw),
            "raw": raw,
            "at": time.monotonic(),
        })
        script = type(self).script
        if script["fail_times"] > 0:
            script["fail_times"] -= 1
            self._reply(script["fail_status"], b"overloaded", script["fail_headers"])
            return
        if script["status"] != 200:
            self._reply(script["status"], b"nope")
            return
        payload = script["payload"] or {
            "choices": [{"message": {"content": "live reply"}, "finish_reason": "stop"}],
            "usage": {"prompt_tokens": 7, "completion_tokens": 2},
        }
        self._reply(200, json.dumps(payload).encode(), [("Content-Type", "application/json")])
        # Closed after the reply without a `Connection: close` header, as a
        # server that drops idle connections does.
        self.close_connection = script["close"]

    def log_message(self, *args):
        pass


class _StubServer(ThreadingHTTPServer):
    def shutdown_request(self, request):
        super().shutdown_request(request)
        _StubHandler.closed.release()


@pytest.fixture()
def stub_server():
    server = _StubServer(("127.0.0.1", 0), _StubHandler)
    # shutdown() waits for the serve loop's next poll, so a short poll keeps
    # teardown fast (the default 0.5 s adds half a second to every test).
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    _StubHandler.script = {
        "fail_times": 0, "fail_status": 503, "fail_headers": [],
        "status": 200, "payload": None, "close": False,
    }
    _StubHandler.seen = []
    _StubHandler.connections = []
    _StubHandler.closed = threading.Semaphore(0)
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


@pytest.fixture()
def http_backend():
    """Builds HTTP backends and closes each one when the test ends."""
    built = []

    def build(base_url, retries=2, timeout_s=5.0, backend_class=HttpBackend):
        built.append(backend_class(BackendConfig(
            base_url=base_url,
            api_key="test-key",
            timeout_s=timeout_s,
            max_retries=retries,
            retry_backoff_s=0.01,
        )))
        return built[-1]

    yield build
    for backend in built:
        backend.close()


def test_http_backend_wire_format(stub_server, http_backend):
    backend = http_backend(stub_server)
    response = backend.complete(_request("ping", temperature=0.0))
    assert response.content == "live reply"
    assert response.usage == TokenUsage(7, 2)
    (seen,) = _StubHandler.seen
    assert seen["path"] == "/v1/chat/completions"
    assert seen["auth"] == "Bearer test-key"
    assert seen["body"]["temperature"] == 0
    assert seen["body"]["messages"] == [{"role": "user", "content": "ping"}]
    assert "max_tokens" not in seen["body"]
    request = _request('naïve "quoted" — ✓\nsecond line', temperature=0.5, max_tokens=64)
    backend.complete(request)
    assert _StubHandler.seen[-1]["raw"] == json.dumps(
        canonical_payload(request), allow_nan=False
    ).encode()


def test_http_backend_retries_transient_then_succeeds(stub_server, http_backend):
    _StubHandler.script["fail_times"] = 2
    backend = http_backend(stub_server, retries=3)
    assert backend.complete(_request("retry")).content == "live reply"
    assert len(_StubHandler.seen) == 3


class _YieldingCountHttpBackend(YieldingCallCount, HttpBackend):
    pass


def test_http_backend_counts_calls_not_attempts(stub_server, http_backend):
    _StubHandler.script["fail_times"] = 1
    backend = http_backend(stub_server, retries=3, backend_class=_YieldingCountHttpBackend)
    backend.complete(_request("retried once"))
    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(lambda i: backend.complete(_request(f"call {i}")), range(40)))
    assert len(_StubHandler.seen) == 42
    assert backend.call_count == 41


def test_http_backend_terminal_4xx_no_retry(stub_server, http_backend):
    _StubHandler.script["status"] = 404
    backend = http_backend(stub_server)
    with pytest.raises(ProtocolError) as info:
        backend.complete(_request("nope"))
    assert info.value.status == 404
    assert len(_StubHandler.seen) == 1


def test_http_backend_retryable_status_exhausts_to_protocol_error(stub_server, http_backend):
    _StubHandler.script["fail_times"] = 99
    backend = http_backend(stub_server, retries=1)
    with pytest.raises(ProtocolError) as info:
        backend.complete(_request("always 503"))
    assert info.value.status == 503
    assert len(_StubHandler.seen) == 2  # max_retries + 1 attempts


def _completion(content, usage=None):
    return {
        "choices": [{"message": {"content": content}, "finish_reason": "stop"}],
        "usage": usage,
    }


@pytest.mark.parametrize("payload", [
    _completion(None),
    _completion(""),
    _completion(42),
    _completion("ok", usage=[7, 2]),
    _completion("ok", usage={"prompt_tokens": "7", "completion_tokens": 2}),
], ids=["null-content", "empty-content", "number-content", "list-usage", "text-tokens"])
def test_http_backend_malformed_completion_is_protocol_error(stub_server, http_backend, payload):
    _StubHandler.script["payload"] = payload
    backend = http_backend(stub_server)
    with pytest.raises(ProtocolError) as info:
        backend.complete(_request("malformed"))
    assert info.value.exit_code == 4
    assert len(_StubHandler.seen) == 1  # a malformed body is terminal, not retried


def test_http_backend_accepts_truncated_empty_content_and_null_usage(stub_server, http_backend):
    _StubHandler.script["payload"] = {
        "choices": [{"message": {"content": ""}, "finish_reason": "length"}],
        "usage": {"prompt_tokens": None, "completion_tokens": None},
    }
    response = http_backend(stub_server).complete(_request("truncated"))
    assert (response.content, response.finish_reason) == ("", "length")
    assert response.usage == TokenUsage(0, 0)


def test_http_backend_transport_error_after_retries(http_backend):
    backend = http_backend("http://127.0.0.1:9", retries=1)  # closed port
    with pytest.raises(TransportError):
        backend.complete(_request("unreachable"))


def test_http_backend_requires_api_key(monkeypatch):
    monkeypatch.delenv("LLM_API_KEY", raising=False)
    with pytest.raises(ConfigError):
        HttpBackend(BackendConfig(base_url="http://example.invalid"))


def test_http_backend_reads_key_from_environment(monkeypatch, stub_server):
    monkeypatch.setenv("LLM_API_KEY", "env-key")
    with closing(HttpBackend(BackendConfig(
        base_url=stub_server, timeout_s=5.0, max_retries=0, retry_backoff_s=0.01
    ))) as backend:
        backend.complete(_request("env"))
    assert _StubHandler.seen[-1]["auth"] == "Bearer env-key"


def test_http_backend_keeps_one_connection_per_call_in_flight(stub_server, http_backend):
    backend = http_backend(stub_server)
    for i in range(20):
        backend.complete(_request(f"sequential {i}"))
    assert len(_StubHandler.seen) == 20 and len(_StubHandler.connections) == 1

    _StubHandler.connections = []
    backend = http_backend(stub_server)

    def work(k):
        for i in range(10):
            backend.complete(_request(f"thread {k} call {i}"))

    threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert len(_StubHandler.seen) == 40 and 1 <= len(_StubHandler.connections) <= 2


def test_http_backend_reopens_a_connection_the_server_closed(stub_server, http_backend):
    _StubHandler.script["close"] = True
    backend = http_backend(stub_server, retries=0)  # a failed attempt would raise
    for i in range(3):
        assert backend.complete(_request(f"dropped {i}")).content == "live reply"
        assert _StubHandler.closed.acquire(timeout=10)
    assert len(_StubHandler.seen) == 3 and len(_StubHandler.connections) == 3


def test_http_backend_waits_as_retry_after_asks_at_most_timeout(stub_server, http_backend):
    _StubHandler.script.update(
        fail_times=1, fail_status=429, fail_headers=[("Retry-After", "30")]
    )
    backend = http_backend(stub_server, timeout_s=0.3)
    start = time.monotonic()
    assert backend.complete(_request("rate limited")).content == "live reply"
    assert time.monotonic() - start < 1.0
    first, second = _StubHandler.seen
    assert second["at"] - first["at"] >= 0.25


@pytest.mark.parametrize("value, expected", [
    (None, 0.5),
    ("2", 2.0),
    (" 7 ", 5.0),
    ("soon", 0.5),
    ("-1", 0.5),
    ("Wed, 21 Oct 2015 07:28:00 GMT", 0.0),
    ("Fri, 31 Dec 9999 23:59:59 GMT", 5.0),
    ("Fri, 31 Dec 9999 23:59:59 -0000", 0.5),
], ids=["absent", "seconds", "seconds-capped", "word", "negative", "past-date",
        "future-date-capped", "date-without-zone"])
def test_retry_after_reads_seconds_or_an_http_date(value, expected):
    assert gateway._retry_after(value, 0.5, 5.0) == expected


class _ConnectProxy(socketserver.ThreadingTCPServer):
    daemon_threads = True
    connects: list


class _ConnectHandler(socketserver.StreamRequestHandler):
    """Answers one CONNECT, then pipes bytes both ways until a side closes."""

    def handle(self):
        lines = [self.rfile.readline().decode()]
        while lines[-1] not in ("\r\n", "\n", ""):
            lines.append(self.rfile.readline().decode())
        self.server.connects.append(lines)
        host, port = lines[0].split()[1].rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=10) as upstream:
            self.wfile.write(b"HTTP/1.1 200 Connection established\r\n\r\n")
            ends = {self.connection: upstream, upstream: self.connection}
            while True:
                for end in select.select(list(ends), [], [], 10)[0]:
                    data = end.recv(65536)
                    if not data:
                        return
                    ends[end].sendall(data)


@pytest.fixture()
def connect_proxy():
    proxy = _ConnectProxy(("127.0.0.1", 0), _ConnectHandler)
    proxy.connects = []
    thread = threading.Thread(target=proxy.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    yield proxy
    proxy.shutdown()
    proxy.server_close()


def test_http_backend_tunnels_through_the_environment_proxy(
    stub_server, http_backend, connect_proxy, monkeypatch
):
    for name in ("http_proxy", "HTTP_PROXY", "no_proxy", "NO_PROXY"):
        monkeypatch.delenv(name, raising=False)
    port = connect_proxy.server_address[1]
    monkeypatch.setenv("http_proxy", f"user:p%40ss@127.0.0.1:{port}")  # read as http://
    assert http_backend(stub_server).complete(_request("proxied")).content == "live reply"
    (connect,) = connect_proxy.connects
    assert connect[0].startswith(f"CONNECT {stub_server.removeprefix('http://')} HTTP/")
    assert "Proxy-Authorization: Basic dXNlcjpwQHNz\r\n" in connect  # user:p@ss

    monkeypatch.setenv("no_proxy", "127.0.0.1")
    assert http_backend(stub_server).complete(_request("direct")).content == "live reply"
    assert len(connect_proxy.connects) == 1 and len(_StubHandler.seen) == 2


def test_https_connection_verifies_certificate_and_hostname(monkeypatch):
    for name in ("https_proxy", "HTTPS_PROXY"):
        monkeypatch.delenv(name, raising=False)
    with closing(HttpBackend(BackendConfig(base_url="https://api.example.com", api_key="k"))) \
            as backend:
        conn = backend._connect(*backend._address)  # not opened: no network
    assert isinstance(conn, http.client.HTTPSConnection)
    assert (conn.host, conn.port) == ("api.example.com", 443)
    assert conn._context.check_hostname
    assert conn._context.verify_mode == ssl.CERT_REQUIRED


def test_importing_the_package_loads_no_third_party_http_client():
    code = (
        "import sys, mpe, mpe.pipeline, mpe.cli; "
        "print(sorted({'requests', 'urllib3'} & set(sys.modules)))"
    )
    src = os.path.dirname(os.path.dirname(gateway.__file__))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src}, check=True,
    )
    assert result.stdout.strip() == "[]"
