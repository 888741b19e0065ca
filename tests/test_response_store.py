"""The response store end to end: each answerer's replies kept apart, the
older one-file-per-reply layout adopted by `live`, and every reply a run
stores readable and parseable through `gateway.read_store`."""

import json
import shutil
import threading
from contextlib import contextmanager
from dataclasses import replace
from datetime import date, time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from mpe.baselines import GbdtParams
from mpe.cli import main
from mpe.events import EventRecord
from mpe.gateway import (
    BackendConfig,
    CachingBackend,
    ChatMessage,
    ChatRequest,
    HttpBackend,
    read_store,
)
from mpe.heuristic import HeuristicBackend
from mpe.parsing import parse_formatted_event, parse_prediction, render_prediction_reply
from mpe.pipeline import STAGES, artifact_path, build_backend, run_pipeline, run_stage
from mpe.trips import DateRange

PRE_PREDICT = ("ingest", "format_events", "decompose")
EVENT_PROMPT = "Format the following public event record."


def _short(small_config, out, **overrides):
    """The small dataset over a two-week test range, into `out`."""
    return replace(small_config, **{
        "output_dir": out,
        "cache_dir": None,
        "test_range": DateRange(date(2021, 7, 1), date(2021, 7, 14)),
        "gbdt": GbdtParams(n_trees=20),
        **overrides,
    })


def _heuristic(body: dict) -> str:
    request = ChatRequest(
        body["model"], tuple(ChatMessage(m["role"], m["content"]) for m in body["messages"]),
        body["temperature"], body.get("max_tokens"),
    )
    return HeuristicBackend().complete(request).content


class _Model(BaseHTTPRequestHandler):
    """Answers each chat completion with `server.answer(body)`, and keeps
    each body it was asked in `server.seen`."""

    protocol_version = "HTTP/1.1"

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.seen.append(body)
        raw = json.dumps({
            "choices": [{"message": {"content": self.server.answer(body)},
                         "finish_reason": "stop"}],
            "usage": {"prompt_tokens": 3, "completion_tokens": 1},
        }).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def log_message(self, *args):
        pass


@contextmanager
def _model(answer):
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Model)
    server.answer, server.seen = answer, []
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    try:
        yield server, f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()


def _live(url: str) -> BackendConfig:
    return BackendConfig(base_url=url, api_key="test-key", retry_backoff_s=0.01)


def test_a_mock_run_over_a_heuristic_store_exits_4(small_config, tmp_path, capsys):
    """A store filled by the heuristic backend answers nothing for an empty
    mock script, so the run fails as it does without a store."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_short(small_config, tmp_path / "out").to_dict()))
    store, empty = tmp_path / "S", tmp_path / "empty.json"
    empty.write_text("{}")
    assert main(["run", "--config", str(config), "--cache-dir", str(store)]) == 0
    assert list(read_store(store))
    code = main([
        "run", "--config", str(config), "--cache-dir", str(store),
        "--output-dir", str(tmp_path / "mock_out"), "--backend", "mock",
        "--mock-script", str(empty),
    ])
    assert code == 4
    assert "no scripted reply" in capsys.readouterr().err


def test_editing_a_mock_script_under_one_cache_dir_changes_the_predictions(
    small_config, tmp_path
):
    config = _short(small_config, tmp_path / "out")
    run_pipeline(config, PRE_PREDICT)
    script = tmp_path / "script.json"
    mock = replace(config, backend_kind="mock", mock_script=script, cache_dir=tmp_path / "S")
    predictions = artifact_path(config, "predictions")

    outputs = []
    for pickup in (100, 300):
        script.write_text(json.dumps({
            "Task: predict the daily taxi travel demand":
                render_prediction_reply(pickup, pickup + 100, "scripted"),
        }))
        assert not run_stage("predict", mock).skipped
        outputs.append(predictions.read_bytes())
    assert outputs[0] != outputs[1]
    assert b"300" in outputs[1] and b"300" not in outputs[0]
    assert len({namespace for namespace, *_ in read_store(mock.cache_dir)}) == 2


def test_two_live_endpoints_sharing_one_store_each_get_their_own_replies(tmp_path):
    store = tmp_path / "store"
    request = ChatRequest("gpt-4", (ChatMessage("user", "who answers?"),))

    def ask(url: str) -> str:
        backend = CachingBackend(HttpBackend(_live(url)), store)
        try:
            return backend.complete(request).content
        finally:
            backend.close()

    with _model(lambda body: "from a") as (a, url_a), _model(lambda body: "from b") as (b, url_b):
        assert ask(url_a) == "from a"
        assert ask(url_b) == "from b"
        assert [ask(url_a), ask(url_b), ask(url_a + "/")] == ["from a", "from b", "from a"]
        assert len(a.seen) == len(b.seen) == 1
    namespaces = sorted(namespace for namespace, *_ in read_store(store))
    assert len(namespaces) == 2 and all(n.startswith("live-") for n in namespaces)


def test_a_live_store_in_the_older_layout_answers_a_live_resume(small_config, tmp_path):
    """The store as live filled it before segments, one file per reply at
    `sha256/<2-hex>/<digest>.json`, serves a resume with no request, and
    keeps every one of its files."""
    store = tmp_path / "store"
    stages = (*PRE_PREDICT, "predict")
    with _model(_heuristic) as (server, url):
        first = _short(small_config, tmp_path / "first", backend_kind="live",
                       backend=_live(url), cache_dir=store)
        run_pipeline(first, stages)
        asked = len(server.seen)
        for _, digest, request, response in read_store(store):
            path = store / "sha256" / digest[:2] / f"{digest}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps({"request": request, "response": {
                "content": response.content, "finish_reason": response.finish_reason,
                "usage": response.usage._asdict()}}, sort_keys=True, separators=(",", ":")))
        for namespace in store.glob("live-*"):
            shutil.rmtree(namespace)
        old = sorted(store.glob("sha256/*/*.json"))
        assert 0 < len(old) <= asked  # two threads may have asked one prompt at once

        resumed = replace(first, output_dir=tmp_path / "resumed")
        assert not any(r.skipped for r in run_pipeline(resumed, stages))
        assert len(server.seen) == asked
    assert artifact_path(resumed, "predictions").read_bytes() == \
        artifact_path(first, "predictions").read_bytes()
    assert sorted(store.glob("sha256/*/*.json")) == old


def test_every_stored_reply_parses_and_each_miss_is_one_entry(small_config, tmp_path):
    """What the benchmark's `unparseable` count checks, over every stage:
    each reply the heuristic backend stored parses as its prompt asks."""
    # On one thread no two calls miss on one prompt at once, so each miss
    # leaves one entry.
    config = _short(small_config, tmp_path / "out", cache_dir=tmp_path / "store", concurrency=1)
    backend = build_backend(config)
    run_pipeline(config, STAGES, backend)
    backend.close()
    entries = list(read_store(config.cache_dir))
    assert len(entries) == backend.misses > 0
    probe = EventRecord("probe", None, date(2000, 1, 1), time(0), time(0))
    kinds = set()
    for namespace, _, request, response in entries:
        assert namespace == HeuristicBackend.namespace
        prompt = request["messages"][0]["content"]
        kinds.add(prompt.startswith(EVENT_PROMPT))
        if prompt.startswith(EVENT_PROMPT):
            parse_formatted_event(response.content, probe)
        else:
            parse_prediction(response.content, date(2000, 1, 1))
    assert kinds == {True, False}
