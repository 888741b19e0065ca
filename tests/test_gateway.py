"""Backends: digests, scripted mock, cache overlay, and the HTTP client
against a local stub server."""

import itertools
import json
import os
import random
import shutil
import string
import sys
import threading
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
    cache_key,
    canonical_serialization,
)

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


# --- cache keys ----------------------------------------------------------------


def test_digest_determinism_and_field_sensitivity():
    assert cache_key(_request()) == cache_key(_request())
    assert cache_key(_request()) != cache_key(_request(temperature=0.5))
    assert cache_key(_request()) != cache_key(_request(content="other"))
    assert cache_key(_request()) != cache_key(_request(max_tokens=100))
    assert len(cache_key(_request())) == 64


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
        assert cache_key(request) == expected


def test_canonical_serialization_is_compact_and_ordered():
    text = canonical_serialization(_request("hi"))
    assert text.startswith('{"model":"gpt-4","temperature":0.0,"messages":')
    assert " " not in text.split('"messages"')[0]


def test_cache_key_serialises_a_request_once(monkeypatch, tmp_path):
    serialised = []

    def counting(request):
        serialised.append(request)
        return canonical_serialization(request)

    monkeypatch.setattr(gateway, "canonical_serialization", counting)
    request = _request("keyed by every layer")
    digest = cache_key(request)
    backend = CachingBackend(ScriptedBackend({digest: "scripted"}), tmp_path / "store")
    assert backend.complete(request).content == "scripted"
    assert cache_key(request) == digest
    assert serialised == [request]
    assert cache_key(replace(request, temperature=0.5)) != digest
    assert len(serialised) == 2


def test_no_digest_collisions_across_10k_random_requests():
    rng = random.Random(2024)
    seen = {}
    for i in range(10_000):
        content = "".join(rng.choices(string.ascii_letters + " ", k=rng.randrange(1, 40)))
        request = _request(
            f"{i}:{content}", temperature=rng.choice([0.0, 0.5, 1.0])
        )
        digest = cache_key(request)
        assert digest not in seen
        seen[digest] = True


# --- scripted mock --------------------------------------------------------------


def test_scripted_mock_by_digest():
    request = _request("what is the demand")
    backend = ScriptedBackend({cache_key(request): "[pickup] 500 [dropoff] 300 [reasoning] test"})
    assert backend.complete(request).content == "[pickup] 500 [dropoff] 300 [reasoning] test"
    assert backend.call_count == 1


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


def test_cache_layout(tmp_path):
    store = tmp_path / "store"
    backend = CachingBackend(CountingBackend(), store)
    request = _request("layout probe")
    backend.complete(request)
    digest = cache_key(request)
    path = store / "sha256" / digest[:2] / f"{digest}.json"
    assert path.exists()
    doc = json.loads(path.read_text())
    assert doc["request"]["model"] == "gpt-4"
    assert doc["response"]["content"] == "cached reply"


def test_corrupted_entry_is_refetched_and_overwritten(tmp_path):
    store = tmp_path / "store"
    inner = CountingBackend()
    backend = CachingBackend(inner, store)
    request = _request("heal me")
    backend.complete(request)
    digest = cache_key(request)
    path = store / "sha256" / digest[:2] / f"{digest}.json"
    path.write_text("{ corrupted")
    response = backend.complete(request)
    assert response.content == "cached reply"
    assert inner.calls == 2
    assert json.loads(path.read_text())["response"]["content"] == "cached reply"


def test_cache_entry_bytes_mode_and_no_temp_files(tmp_path):
    store = tmp_path / "store"
    CachingBackend(CountingBackend(), store).complete(_request("mode probe"))
    digest = cache_key(_request("mode probe"))
    path = store / "sha256" / digest[:2] / f"{digest}.json"
    doc = json.loads(path.read_bytes())
    assert path.read_bytes() == json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    assert path.stat().st_mode & 0o777 == 0o600
    assert [p.name for p in (store / "sha256").rglob("*") if p.is_file()] == [path.name]


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
    files = [p for p in (store / "sha256").rglob("*") if p.is_file()]
    assert [p.name for p in files] == [f"{cache_key(_request('race'))}.json"]
    assert json.loads(files[0].read_text())["response"]["content"] == "cached reply"
    assert CachingBackend(CountingBackend("other"), store).complete(_request("race")).content \
        == "cached reply"


def test_each_shard_directory_is_created_once(tmp_path, monkeypatch):
    store = tmp_path / "store"
    backend = CachingBackend(CountingBackend(), store)
    requests = [_request(f"shard {i}") for i in range(400)]

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
    shards = {cache_key(r)[:2] for r in requests}
    assert {p.name for p in (store / "sha256").iterdir()} == shards

    # New requests into the shards that now exist make no directory.
    made = []
    mkdir = os.mkdir

    def counting(path, *args, **kwargs):
        made.append(str(path))
        return mkdir(path, *args, **kwargs)

    fresh = [r for r in map(_request, (f"again {i}" for i in range(400)))
             if cache_key(r)[:2] in shards]
    monkeypatch.setattr(os, "mkdir", counting)
    for request in fresh + requests[:50]:
        backend.complete(request)
    assert made == []
    assert backend.misses == 400 + len(fresh) and backend.hits == 50
    assert all(backend._path(cache_key(r)).is_file() for r in fresh)


def test_entry_is_written_after_its_shard_directory_is_removed(tmp_path):
    store = tmp_path / "store"
    backend = CachingBackend(CountingBackend(), store)
    by_shard = {}
    for i in itertools.count():
        request = _request(f"pair {i}")
        first = by_shard.setdefault(cache_key(request)[:2], request)
        if first is not request:
            break
    backend.complete(first)
    shutil.rmtree(store / "sha256" / cache_key(first)[:2])
    assert backend.complete(request).content == "cached reply"
    assert backend._path(cache_key(request)).is_file()
    assert CachingBackend(CountingBackend("other"), store).complete(request).content \
        == "cached reply"


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
    script = {"fail_times": 0, "status": 200}
    seen = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        type(self).seen.append({
            "path": self.path,
            "auth": self.headers.get("Authorization"),
            "body": body,
        })
        if type(self).script["fail_times"] > 0:
            type(self).script["fail_times"] -= 1
            self.send_response(503)
            self.end_headers()
            self.wfile.write(b"overloaded")
            return
        status = type(self).script["status"]
        if status != 200:
            self.send_response(status)
            self.end_headers()
            self.wfile.write(b"nope")
            return
        payload = type(self).script["payload"] or {
            "choices": [{"message": {"content": "live reply"}, "finish_reason": "stop"}],
            "usage": {"prompt_tokens": 7, "completion_tokens": 2},
        }
        raw = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    # shutdown() waits for the serve loop's next poll, so a short poll keeps
    # teardown fast (the default 0.5 s adds half a second to every test).
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    _StubHandler.script = {"fail_times": 0, "status": 200, "payload": None}
    _StubHandler.seen = []
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


def _http_backend(base_url, retries=2):
    return HttpBackend(BackendConfig(
        base_url=base_url,
        api_key="test-key",
        timeout_s=5.0,
        max_retries=retries,
        retry_backoff_s=0.01,
    ))


def test_http_backend_wire_format(stub_server):
    backend = _http_backend(stub_server)
    response = backend.complete(_request("ping", temperature=0.0))
    assert response.content == "live reply"
    assert response.usage == TokenUsage(7, 2)
    (seen,) = _StubHandler.seen
    assert seen["path"] == "/v1/chat/completions"
    assert seen["auth"] == "Bearer test-key"
    assert seen["body"]["temperature"] == 0
    assert seen["body"]["messages"] == [{"role": "user", "content": "ping"}]
    assert "max_tokens" not in seen["body"]


def test_http_backend_retries_transient_then_succeeds(stub_server):
    _StubHandler.script["fail_times"] = 2
    backend = _http_backend(stub_server, retries=3)
    assert backend.complete(_request("retry")).content == "live reply"
    assert len(_StubHandler.seen) == 3


def test_http_backend_terminal_4xx_no_retry(stub_server):
    _StubHandler.script["status"] = 404
    backend = _http_backend(stub_server)
    with pytest.raises(ProtocolError) as info:
        backend.complete(_request("nope"))
    assert info.value.status == 404
    assert len(_StubHandler.seen) == 1


def test_http_backend_retryable_status_exhausts_to_protocol_error(stub_server):
    _StubHandler.script["fail_times"] = 99
    backend = _http_backend(stub_server, retries=1)
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
def test_http_backend_malformed_completion_is_protocol_error(stub_server, payload):
    _StubHandler.script["payload"] = payload
    backend = _http_backend(stub_server)
    with pytest.raises(ProtocolError) as info:
        backend.complete(_request("malformed"))
    assert info.value.exit_code == 4
    assert len(_StubHandler.seen) == 1  # a malformed body is terminal, not retried


def test_http_backend_accepts_truncated_empty_content_and_null_usage(stub_server):
    _StubHandler.script["payload"] = {
        "choices": [{"message": {"content": ""}, "finish_reason": "length"}],
        "usage": {"prompt_tokens": None, "completion_tokens": None},
    }
    response = _http_backend(stub_server).complete(_request("truncated"))
    assert (response.content, response.finish_reason) == ("", "length")
    assert response.usage == TokenUsage(0, 0)


def test_http_backend_transport_error_after_retries():
    backend = _http_backend("http://127.0.0.1:9", retries=1)  # closed port
    with pytest.raises(TransportError):
        backend.complete(_request("unreachable"))


def test_http_backend_requires_api_key(monkeypatch):
    monkeypatch.delenv("LLM_API_KEY", raising=False)
    with pytest.raises(ConfigError):
        HttpBackend(BackendConfig(base_url="http://example.invalid"))


def test_http_backend_reads_key_from_environment(monkeypatch, stub_server):
    monkeypatch.setenv("LLM_API_KEY", "env-key")
    backend = HttpBackend(BackendConfig(
        base_url=stub_server, timeout_s=5.0, max_retries=0, retry_backoff_s=0.01
    ))
    backend.complete(_request("env"))
    assert _StubHandler.seen[-1]["auth"] == "Bearer env-key"
