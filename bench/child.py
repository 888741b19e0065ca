"""One workload sequence in a fresh process: set up, run the stages cold,
re-run them (every stage must skip), and optionally resume into a fresh
output directory against the warm response cache.

Usage: python3 bench/child.py <job.json> <monotonic time the parent spawned it>
The job names the source tree, the configs, the stages and the result file.
Set-up time runs from the spawn to the config loaded and the backend built.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import sys
import time
import urllib.request
from datetime import date, time as clock
from pathlib import Path

MIN_RERUNS = 5


def stub_stats(url: str | None) -> dict | None:
    if url is None:
        return None
    with urllib.request.urlopen(url + "/stats", timeout=30) as resp:
        return json.loads(resp.read())


def run_cold(stages, config, backend, tracer) -> dict:
    from mpe.pipeline import run_stage

    times, skipped, stats = {}, {}, {}
    start = time.perf_counter()
    for stage in stages:
        t = time.perf_counter()
        with tracer.stage(stage) if tracer else contextlib.nullcontext():
            result = run_stage(stage, config, backend)
        times[stage] = time.perf_counter() - t
        skipped[stage] = result.skipped
        stats[stage] = result.stats
    return {
        "s": time.perf_counter() - start,
        "stage_s": times,
        "skipped": skipped,
        "stats": stats,
    }


def run_reruns(stages, config, backend, budget_s: float) -> dict:
    """Re-run the sequence, every stage up to date, at least MIN_RERUNS
    times and until `budget_s` of re-run time is measured."""
    from mpe.pipeline import run_pipeline

    times, skipped = [], []
    while len(times) < MIN_RERUNS or sum(times) < budget_s:
        t = time.perf_counter()
        results = run_pipeline(config, stages, backend)
        times.append(time.perf_counter() - t)
        skipped.append(sum(1 for r in results if r.skipped))
    return {"s": times, "stages_skipped": skipped}


def backend_counts(backend) -> dict:
    return {"hits": getattr(backend, "hits", None), "misses": getattr(backend, "misses", None)}


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every artifact; the manifest holds timestamps and is left out."""
    return {
        str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


def scan_cache(cache_dir: Path | None) -> dict:
    """Entries, tokens and unparseable replies in the response cache."""
    from mpe.errors import MalformedReplyError
    from mpe.events import EventRecord
    from mpe.parsing import parse_formatted_event, parse_prediction

    counts = {"entries": 0, "prompt_tokens": 0, "unparseable": 0}
    if cache_dir is None or not cache_dir.exists():
        return counts
    probe = EventRecord("probe", None, date(2000, 1, 1), clock(0), clock(0))
    for path in cache_dir.rglob("*.json"):
        doc = json.loads(path.read_text())
        counts["entries"] += 1
        counts["prompt_tokens"] += doc["response"]["usage"]["prompt_tokens"]
        content = doc["response"]["content"]
        prompt = doc["request"]["messages"][0]["content"]
        try:
            if prompt.startswith("Format the following public event record."):
                parse_formatted_event(content, probe)
            else:
                parse_prediction(content, date(2000, 1, 1))
        except MalformedReplyError:
            counts["unparseable"] += 1
    return counts


def main(argv) -> int:
    job = json.loads(Path(argv[1]).read_text())
    spawned = float(argv[2])
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    import mpe

    if not Path(mpe.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported mpe from {mpe.__file__}, not from {src}")
    from mpe.pipeline import PipelineConfig, build_backend

    config = PipelineConfig.from_file(job["config"])
    backend = build_backend(config)
    result = {"setup_s": time.monotonic() - spawned}
    if job["mode"] == "setup":
        Path(job["result"]).write_text(json.dumps(result))
        return 0

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.patch_layers()
        tracer.wrap_backend(backend)

    def enter(phase: str) -> None:
        if tracer:
            tracer.phase = phase

    stages = job["stages"]
    url = job.get("stub_control")
    enter("cold")
    result["cold"] = run_cold(stages, config, backend, tracer)
    result["cold"]["backend"] = backend_counts(backend)
    result["cold"]["stub"] = stub_stats(url)
    enter("rerun")
    result["rerun"] = run_reruns(stages, config, backend, job["rerun_budget_s"])
    result["rerun"]["stub"] = stub_stats(url)
    if job.get("resume_config"):
        enter("resume")
        resume_config = PipelineConfig.from_file(job["resume_config"])
        result["resume"] = run_cold(stages, resume_config, backend, None)
        result["resume"]["backend"] = backend_counts(backend)
        result["resume"]["stub"] = stub_stats(url)
        result["resume"]["digests"] = digests(resume_config.output_dir)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result["digests"] = digests(config.output_dir)
    result["cache"] = scan_cache(config.cache_dir)
    if tracer:
        from tracer import summarize

        tracer.write(job["spans"])
        result["layers"] = summarize(tracer.spans, "cold")
        result["spans"] = len(tracer.spans)
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
