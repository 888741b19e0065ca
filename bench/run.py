"""Benchmark of the mpe pipeline on deterministic synthetic inputs.

Usage, from the root of a checkout of the repository:

    python3 bench/run.py --workload stock|city|live --seed N --seconds S --trace 0|1

Each sequence of a workload runs in a fresh child process (bench/child.py)
through the public entry points `PipelineConfig.from_file`, `build_backend`,
`run_stage` and `run_pipeline`. With --trace 0 the run makes the
workload's minimum number of sequences, and more until S seconds have
passed, and reports the medians of the end-to-end metrics; with
--trace 1 it runs one untraced and one traced sequence and reports the
per-layer metrics. Every sequence's outputs are checked. The last line of
stdout is one JSON object: correct, attempted, failed and metrics. Inputs,
keyed by a digest of src/mpe and by seed, and scratch files live under
.bench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
from tracer import LAYER_NAMES, STAGE_PREFIX  # noqa: E402

ALL_STAGES = ("ingest", "format_events", "decompose", "predict", "evaluate", "ablate", "report")
SETUP_PROBES = 6  # set-up only children per run, besides one per sequence
# Re-runs take ~10 ms; they repeat until this much time is measured, so one
# slow moment of a shared machine does not set the median.
RERUN_BUDGET_S = 1.0
STUB_RETRY_BACKOFF_S = 0.01
CHILD_TIMEOUT_S = 170
DUMMY_API_KEY = "bench-dummy-key"


@dataclass(frozen=True)
class Workload:
    dataset: str  # "stock" or "city"
    stages: tuple[str, ...]
    live: bool = False  # HttpBackend against the local stub, then a resume phase
    cache: bool = True
    min_sequences: int = 1


WORKLOADS = {
    # Over ten seeds, one-sequence runs spread 0.16-0.21 in run_s on stock,
    # whose GBDT fit follows the shared host's speed; city and live spread
    # under 0.08. Two stock sequences per run average the faster swings.
    "stock": Workload("stock", ALL_STAGES, min_sequences=2),
    "city": Workload("city", ("ingest", "decompose"), cache=False),
    "live": Workload(
        "stock", ("ingest", "format_events", "decompose", "predict", "ablate"), live=True
    ),
}
# Artifacts a live run must reproduce byte for byte from the stock config.
REFERENCE_ARTIFACTS = ("predictions.csv", "ablation_report.csv")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class Harness:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.src = root / "src"
        self.work = root / ".bench_work"
        self.name = workload
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.digest = inputs.source_digest(self.src)
        self.concurrency = nproc()
        self.run_dir = self.work / "runs" / f"{workload}-{seed}-{os.getpid()}"
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    # -- inputs --------------------------------------------------------------

    def prepare(self) -> None:
        sys.path.insert(0, str(self.src))
        data = inputs.dataset_dir(self.work, self.digest, self.seed)
        self.sizes = inputs.stock(data, self.seed)
        if self.wl.dataset == "city":
            self.sizes = inputs.city(data, self.seed)
        self.truth = inputs.flows(self.sizes["truth"])
        if self.run_dir.exists():
            shutil.rmtree(self.run_dir)
        self.run_dir.mkdir(parents=True)
        # Written only by _make_reference, from the code under test; a stock
        # run checks against it when a live run of this seed made it.
        self.reference_path = data / "reference.json"
        if self.wl.live and not self.reference_path.exists():
            self._make_reference()

    def _config(self, seq_dir: Path, out: str, base_url: str | None, wl: Workload) -> Path:
        overrides = {
            "output_dir": str(seq_dir / out),
            "cache_dir": str(seq_dir / "cache") if wl.cache else None,
            "concurrency": self.concurrency,
        }
        if wl.live:
            overrides["backend"] = {
                "kind": "live",
                "base_url": base_url or "http://127.0.0.1:9",
                "retry_backoff_s": STUB_RETRY_BACKOFF_S,
            }
        path = seq_dir / f"config_{out}.json"
        path.write_text(json.dumps(inputs.pipeline_config(self.sizes, **overrides), indent=2))
        return path

    def _make_reference(self) -> None:
        """Run the live stages under the stock config, outside any timing."""
        stock = Workload("stock", self.wl.stages)
        res = self._sequence("reference", stock, trace=False)
        ref = {name: res["digests"][name] for name in REFERENCE_ARTIFACTS}
        inputs.write_json(self.reference_path, ref)

    # -- processes -----------------------------------------------------------

    def _child(self, job: dict, seq_dir: Path, env: dict) -> dict:
        job_path = seq_dir / "job.json"
        job["result"] = str(seq_dir / "result.json")
        job_path.write_text(json.dumps(job))
        log_path = seq_dir / "child.log"
        with open(log_path, "w") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "child.py"), str(job_path), repr(spawned)],
                stdout=log, stderr=subprocess.STDOUT, env=env, cwd=self.root,
            )
            try:
                code = proc.wait(timeout=CHILD_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if code != 0:
            sys.stderr.write(log_path.read_text()[-4000:])
            raise RuntimeError(f"{self.name}: child exited with {code}")
        return json.loads(Path(job["result"]).read_text())

    def _env(self) -> dict:
        env = dict(os.environ)
        env["LLM_API_KEY"] = DUMMY_API_KEY
        return env

    def _start_stub(self):
        proc = subprocess.Popen(
            [
                sys.executable, str(BENCH / "stub.py"), "--src", str(self.src),
                "--seed", str(self.seed), "--workers", str(self.concurrency),
            ],
            stdout=subprocess.PIPE, text=True, env=self._env(), cwd=self.root,
        )
        line = proc.stdout.readline().split()
        if len(line) != 2:
            proc.kill()
            proc.wait()
            raise RuntimeError("stub server did not report its ports")
        return proc, f"http://127.0.0.1:{line[0]}", f"http://127.0.0.1:{line[1]}"

    @staticmethod
    def _stop(proc) -> None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()

    def setup_probe(self, index: int) -> float:
        seq_dir = self.run_dir / f"setup{index}"
        seq_dir.mkdir()
        job = {
            "mode": "setup", "src": str(self.src), "trace": False,
            "config": str(self._config(seq_dir, "out", None, self.wl)),
        }
        setup_s = self._child(job, seq_dir, self._env())["setup_s"]
        shutil.rmtree(seq_dir)
        return setup_s

    def _sequence(self, label: str, wl: Workload, trace: bool) -> dict:
        """One fresh sequence: empty output directory, empty cache."""
        seq_dir = self.run_dir / label
        seq_dir.mkdir()
        stub = None
        try:
            base_url = control = None
            if wl.live:
                stub, base_url, control = self._start_stub()
            job = {
                "mode": "sequence", "src": str(self.src), "trace": trace,
                "stages": list(wl.stages),
                "rerun_budget_s": RERUN_BUDGET_S,
                "config": str(self._config(seq_dir, "out", base_url, wl)),
                "stub_control": control,
                "spans": str(self.work / "traces" / f"{self.name}-{self.seed}.jsonl"),
            }
            if wl.live:
                job["resume_config"] = str(self._config(seq_dir, "out_resume", base_url, wl))
            if trace:
                Path(job["spans"]).parent.mkdir(parents=True, exist_ok=True)
            res = self._child(job, seq_dir, self._env())
        finally:
            if stub is not None:
                self._stop(stub)
        res["daily_demand"] = inputs.flows(seq_dir / "out" / "daily_demand.csv")
        shutil.rmtree(seq_dir)
        return res

    # -- checks --------------------------------------------------------------

    def _check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)
            self.failed += 1

    def check(self, label: str, res: dict, first: dict | None) -> None:
        stages = self.wl.stages
        requests = _requests(res["cold"]["backend"])
        self.attempted += len(stages) * (1 + len(res["rerun"]["s"])) + requests
        self.failed += res["cache"]["unparseable"]
        self._check(not any(res["cold"]["skipped"].values()), f"{label}: a cold stage skipped")
        self._check(
            all(n == len(stages) for n in res["rerun"]["stages_skipped"]),
            f"{label}: rerun did not skip every stage",
        )
        self._check(
            res["daily_demand"] == self.truth,
            f"{label}: daily_demand.csv differs from truth.csv",
        )
        if first is not None:
            self._check(res["digests"] == first["digests"], f"{label}: artifacts differ between sequences")
        ref = inputs.load_json(self.reference_path)
        if ref is not None and self.wl.dataset == "stock":  # city makes no predictions
            mine = {n: res["digests"].get(n) for n in REFERENCE_ARTIFACTS}
            self._check(mine == ref, f"{label}: predictions/ablation differ from the stock run")
        if self.wl.live:
            resume = res["resume"]
            self.attempted += len(stages) + _requests(resume["backend"]) - requests
            self._check(
                resume["stub"]["attempts"] == res["rerun"]["stub"]["attempts"]
                and res["rerun"]["stub"]["attempts"] == res["cold"]["stub"]["attempts"],
                f"{label}: rerun or resume reached the model",
            )
            self._check(
                resume["digests"] == res["digests"], f"{label}: resume changed the artifacts"
            )

    # -- runs ----------------------------------------------------------------

    def measure(self, seconds: float) -> dict:
        setups = [self.setup_probe(i) for i in range(SETUP_PROBES)]
        seqs: list[dict] = []
        start = time.monotonic()
        while len(seqs) < self.wl.min_sequences or time.monotonic() - start < seconds:
            res = self._sequence(f"seq{len(seqs)}", self.wl, trace=False)
            self.check(f"seq{len(seqs)}", res, seqs[0] if seqs else None)
            seqs.append(res)
        setups += [s["setup_s"] for s in seqs]
        med = statistics.median
        metrics = {
            "setup_s": (med(setups), "s"),
            "run_s": (med(s["cold"]["s"] for s in seqs), "s"),
            "rerun_s": (med(t for s in seqs for t in s["rerun"]["s"]), "s"),
            "peak_rss_mb": (med(s["peak_rss_mb"] for s in seqs), "MB"),
        }
        info = self._stage_info(seqs)
        return {"metrics": metrics, "info": info, "sequences": seqs}

    def _stage_info(self, seqs: list[dict]) -> dict:
        """Workload-specific figures: printed, recorded, not gated."""
        med = statistics.median
        info = {}
        for stage in self.wl.stages:
            info[f"{stage}_s"] = (med(s["cold"]["stage_s"][stage] for s in seqs), "s")
        if self.wl.live:
            info["resume_s"] = (med(s["resume"]["s"] for s in seqs), "s")
        if self.wl.cache:
            info["backend_calls"] = (med(s["cold"]["backend"]["misses"] for s in seqs), "count")
            tokens = [
                s["cold"]["stub"]["prompt_tokens"] if self.wl.live else s["cache"]["prompt_tokens"]
                for s in seqs
            ]
            info["prompt_tokens"] = (med(tokens), "count")
        info["failed_share"] = (self.failed / self.attempted, f"of {self.attempted}")
        info["sequences"] = (len(seqs), "count")
        return info

    def trace(self) -> dict:
        untraced = self._sequence("untraced", self.wl, trace=False)
        self.check("untraced", untraced, None)
        traced = self._sequence("traced", self.wl, trace=True)
        self.check("traced", traced, untraced)
        return {
            "metrics": layer_metrics(self.wl, untraced, traced, self.failed, self.attempted),
            "layers": traced["layers"],
            "sequences": [untraced, traced],
        }

    def cleanup(self) -> None:
        shutil.rmtree(self.run_dir, ignore_errors=True)


def _requests(counts: dict) -> int:
    if counts["hits"] is None:
        return 0
    return counts["hits"] + counts["misses"]


def layer_metrics(wl: Workload, untraced: dict, traced: dict, failed: int, attempted: int) -> dict:
    """Per-layer figures of the traced sequence. Busy times are shares of the
    traced cold run, so a layer a workload never calls reads 0 rather than
    a time that cannot vary."""
    layers = traced["layers"]
    run_s = traced["cold"]["s"]

    def get(name: str, key: str = "s"):
        return layers.get(name, {}).get(key, 0)

    m: dict[str, tuple[float, str]] = {}
    for name in LAYER_NAMES:
        m[f"{name}.calls"] = (get(name, "calls"), "count")
        m[f"{name}.share"] = (get(name) / run_s, "ratio")
    m["parsing.parse_prediction.failures"] = (get("parsing.parse_prediction", "failures"), "count")

    ingest = traced["cold"]["stats"]["ingest"]
    rows = ingest["trips"] + ingest["rejects"]
    m["trips.rows"] = (rows, "count")
    m["trips.rejects"] = (ingest["rejects"], "count")
    m["trips.rows_per_s"] = (
        rows / (get("trips.parse_trip_records") + get("trips.aggregate_daily_demand")), "1/s"
    )

    model = "http.complete" if wl.live else "heuristic.complete"
    m["heuristic.complete.calls"] = (get("heuristic.complete", "calls"), "count")
    m["heuristic.complete.share"] = (get("heuristic.complete") / run_s, "ratio")
    backend = traced["cold"]["backend"]
    requests = _requests(backend)
    hits = backend["hits"] or 0
    m["gateway.requests"] = (requests, "count")
    m["gateway.cache.hits"] = (hits, "count")
    m["gateway.cache.misses"] = (backend["misses"] or 0, "count")
    m["gateway.cache.hit_rate"] = (hits / requests if requests else 0.0, "ratio")
    m["gateway.inner.calls"] = (get(model, "calls"), "count")
    m["gateway.inner.share"] = (get(model) / run_s, "ratio")
    m["gateway.cache.overhead_share"] = (
        (get("gateway.complete") - get(model)) / run_s if requests else 0.0, "ratio"
    )
    stub = traced["cold"]["stub"]
    tokens = stub["prompt_tokens"] if stub else traced["cache"]["prompt_tokens"]
    m["gateway.prompt_tokens"] = (tokens, "count")
    resume = traced.get("resume")
    resume_requests = _requests(resume["backend"]) - requests if resume else 0
    m["gateway.resume.requests"] = (resume_requests, "count")
    m["gateway.resume.cache.hits"] = (
        resume["backend"]["hits"] - hits if resume else 0, "count"
    )

    if stub:
        service = sorted(stub["service_ms"])
        client_ms = get("http.complete", "p50_ms")
        overhead_ms = client_ms - service[len(service) // 2]
        m["http.attempts"] = (stub["attempts"], "count")
        m["http.retries"] = (stub["retries_served"], "count")
        m["http.connections"] = (stub["connections"], "count")
        m["http.connections_per_request"] = (stub["connections"] / stub["attempts"], "ratio")
        m["http.server_share"] = (stub["service_s"] / run_s, "ratio")
        m["http.client_overhead_share"] = (overhead_ms / client_ms, "ratio")
        m["http.resume.attempts"] = (resume["stub"]["attempts"] - stub["attempts"], "count")
    else:
        for key in ("attempts", "retries", "connections", "resume.attempts"):
            m[f"http.{key}"] = (0, "count")
        for key in ("connections_per_request", "server_share", "client_overhead_share"):
            m[f"http.{key}"] = (0.0, "ratio")

    for stage in ALL_STAGES:
        span = STAGE_PREFIX + stage
        m[f"{span}.share"] = (get(span) / run_s, "ratio")
        m[f"{span}.self_share"] = (get(span, "self_s") / run_s, "ratio")
    m["pipeline.rerun.stages_skipped"] = (min(traced["rerun"]["stages_skipped"]), "count")

    m["failed_share"] = (failed / attempted, "ratio")
    m["ops.attempted"] = (attempted, "count")
    m["traced.run_s"] = (run_s, "s")
    m["tracing.overhead_s"] = (run_s - untraced["cold"]["s"], "s")
    m["tracing.spans"] = (traced["spans"], "count")
    return m


def provenance(h: Harness) -> dict:
    import numpy

    sizes = {k: v for k, v in h.sizes.items() if k not in ("trips", "events", "truth", "config")}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc(),
        "concurrency": h.concurrency,
        "commit": git_commit(h.root),
        "source_digest": h.digest,
        "seed": h.seed,
        "dataset": sizes,
    }


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def declared_metrics(root: Path, trace: bool) -> dict[str, str]:
    doc = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def print_layers(layers: dict) -> None:
    print(f"{'span':<40} {'calls':>7} {'busy_s':>9} {'self_s':>9} {'p50_ms':>9}  tail")
    for name in sorted(layers):
        e = layers[name]
        tail = f"p{e['tail_q']:g}={e['tail_ms']:.3f}ms" if "tail_q" in e else "-"
        print(
            f"{name:<40} {e['calls']:>7} {e['s']:>9.4f} {e['self_s']:>9.4f}"
            f" {e['p50_ms']:>9.3f}  {tail} (n={e['calls']})"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mpe pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "mpe" / "__init__.py").is_file():
        print("error: no mpe source tree under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    declared = declared_metrics(root, bool(args.trace))

    h = Harness(root, args.workload, args.seed)
    try:
        h.prepare()
        outcome = h.trace() if args.trace else h.measure(args.seconds)
    finally:
        h.cleanup()

    metrics = outcome["metrics"]
    if set(metrics) != set(declared) or any(metrics[k][1] != declared[k] for k in declared):
        print("error: reported metrics do not match BENCHMARK.json", file=sys.stderr)
        return 3
    prov = provenance(h)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    if args.trace:
        print_layers(outcome["layers"])
    info = {k: v for k, v in outcome.get("info", {}).items() if k not in metrics}
    for name, (value, unit) in list(metrics.items()) + list(info.items()):
        print(f"{name:<42} {value:>14.6g} {unit}")
    for failure in h.failures:
        print(f"check failed: {failure}")

    record = {
        "provenance": prov,
        "metrics": metrics,
        "info": outcome.get("info", {}),
        "failures": h.failures,
        "digests": [s["digests"] for s in outcome["sequences"]],
        "cache": [s["cache"] for s in outcome["sequences"]],
    }
    results = h.work / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True)
    )
    print(json.dumps({
        "correct": not h.failures,
        "attempted": h.attempted,
        "failed": h.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
