"""Local chat-completion stub for the `live` workload.

Serves POST /v1/chat/completions with `mpe.heuristic`'s responder at a
fixed service time of DELAY_S after the request arrives; at most
`--workers` handler threads serve a request at once. The first attempt of
a seeded ~2% of request bodies is answered with 429, so the client's retry
path runs; its retry succeeds. A separate control port answers GET /stats
with the chat counters, so reading them never waits for a chat worker.

Usage: python3 bench/stub.py --src src --seed 1 --workers 2
It prints "<chat port> <control port>" on the first line of stdout and
serves until terminated.
"""

from __future__ import annotations

import argparse
import hashlib
import http.server
import json
import sys
import threading
import time

RETRY_SHARE = 0.02
# At 10 ms the client's own CPU time was about half of each request, and
# one slow minute of a shared 2-core host spread run_s over ten seeds by
# 0.27; a longer fixed wait dilutes that drift.
DELAY_S = 0.020


class Stats:
    def __init__(self):
        self.lock = threading.Lock()
        self.connections = 0
        self.attempts = 0
        self.retries_served = 0
        self.prompt_tokens = 0
        self.service_s = 0.0
        self.service_ms: list[float] = []

    def snapshot(self) -> dict:
        with self.lock:
            return {
                "connections": self.connections,
                "attempts": self.attempts,
                "retries_served": self.retries_served,
                "prompt_tokens": self.prompt_tokens,
                "service_s": self.service_s,
                "service_ms": list(self.service_ms),
            }


class StubServer(http.server.ThreadingHTTPServer):
    """One thread per connection; at most `workers` of them serve a request
    at once, so an idle keep-alive connection never blocks another."""

    daemon_threads = True

    def __init__(self, address, handler, *, workers: int, seed: int, backend):
        super().__init__(address, handler)
        self.serving = threading.BoundedSemaphore(workers)
        self.seed = seed
        self.backend = backend
        self.stats = Stats()
        self.refused: set[str] = set()

    def first_attempt_refused(self, body: bytes) -> bool:
        """True on the first attempt of a seeded share of request bodies."""
        digest = hashlib.sha256(f"{self.seed}:".encode() + body).hexdigest()
        if int(digest[:8], 16) / 0x1_0000_0000 >= RETRY_SHARE:
            return False
        with self.stats.lock:
            if digest in self.refused:
                return False
            self.refused.add(digest)
            return True


class _JsonHandler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    timeout = 10  # closes a keep-alive connection left idle
    # Small replies must not wait for the client's delayed ACK.
    disable_nagle_algorithm = True

    def log_message(self, *_):
        pass

    def _send(self, status: int, doc: dict) -> None:
        data = json.dumps(doc).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


class Handler(_JsonHandler):
    counted = False

    def do_POST(self):
        server: StubServer = self.server
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        with server.serving:
            self._serve(server, body)

    def _serve(self, server: "StubServer", body: bytes) -> None:
        stats = server.stats
        with stats.lock:
            stats.attempts += 1
            if not self.counted:
                stats.connections += 1
        self.counted = True
        if self.path != "/v1/chat/completions":
            self._send(404, {"error": "not found"})
            return
        if server.first_attempt_refused(body):
            with stats.lock:
                stats.retries_served += 1
            self._send(429, {"error": {"message": "rate limited"}})
            return
        t0 = time.perf_counter()
        response = server.backend.complete(_request(json.loads(body)))
        # The reply leaves at a fixed service time, however long the
        # responder took, so the stub's own speed does not show in latency.
        time.sleep(max(0.0, t0 + DELAY_S - time.perf_counter()))
        reply = {
            "choices": [{
                "message": {"role": "assistant", "content": response.content},
                "finish_reason": response.finish_reason,
            }],
            "usage": {
                "prompt_tokens": response.usage.prompt_tokens,
                "completion_tokens": response.usage.completion_tokens,
            },
        }
        elapsed = time.perf_counter() - t0
        with stats.lock:
            stats.prompt_tokens += response.usage.prompt_tokens
            stats.service_s += elapsed
            stats.service_ms.append(elapsed * 1e3)
        self._send(200, reply)


class ControlHandler(_JsonHandler):
    def do_GET(self):
        if self.path != "/stats":
            self._send(404, {"error": "not found"})
            return
        self._send(200, self.server.stats.snapshot())


def _request(doc: dict):
    from mpe.gateway import ChatMessage, ChatRequest

    return ChatRequest(
        model=doc["model"],
        messages=tuple(ChatMessage(m["role"], m["content"]) for m in doc["messages"]),
        temperature=doc.get("temperature", 0.0),
        max_tokens=doc.get("max_tokens"),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the mpe package")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workers", type=int, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from mpe.heuristic import HeuristicBackend

    server = StubServer(
        ("127.0.0.1", 0), Handler,
        workers=args.workers, seed=args.seed,
        backend=HeuristicBackend(),
    )
    control = http.server.HTTPServer(("127.0.0.1", 0), ControlHandler)
    control.stats = server.stats
    threading.Thread(target=control.serve_forever, daemon=True).start()
    print(server.server_address[1], control.server_address[1], flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
        control.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
