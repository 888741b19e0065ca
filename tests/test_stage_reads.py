"""Each stage opens only what `_STAGE_DEFS` declares it reads or writes.

A file a stage reads but does not declare is missing from its skip check,
so editing that file would leave the stage's stale outputs in place."""

import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from datetime import date
from pathlib import Path

from mpe import pipeline
from mpe.baselines import GbdtParams
from mpe.pipeline import STAGES, _STAGE_DEFS, artifact_path
from mpe.prompts import DEFAULT_TEMPLATES
from mpe.trips import DateRange

# Runs every stage in turn under an audit hook, and prints what each opened
# or listed: the child's own interpreter start-up and config load come first,
# so only what a stage itself touches is recorded.
CHILD = """
import json, os, sys
from mpe.pipeline import STAGES, PipelineConfig, run_stage

config = PipelineConfig.from_file(sys.argv[1])
stage, seen = None, []

def hook(event, args):
    if stage is not None and event in ("open", "os.listdir", "os.scandir"):
        path = "." if args[0] is None else args[0]
        if not isinstance(path, int):  # an open file descriptor names no path
            seen.append((stage, event, os.fsdecode(path)))

sys.addaudithook(hook)
for stage in STAGES:
    run_stage(stage, config)
stage = None
print(json.dumps(seen))
"""

TEMP = re.compile(r"\.(.+)\.\d+-\d+\.tmp")
PYTHON_FILES = (".py", ".pyc", ".so")


def _real(path) -> str:
    return os.path.realpath(os.fsdecode(path))


def _under(path: str, roots) -> bool:
    return any(path == root or path.startswith(root + os.sep) for root in roots)


def test_each_stage_opens_only_what_it_declares(small_config, tmp_path):
    templates = tmp_path / "templates"
    templates.mkdir()
    for name in ("event_format", "prediction"):
        (templates / f"{name}.txt").write_text(getattr(DEFAULT_TEMPLATES, name), encoding="utf-8")
    script = tmp_path / "script.json"
    script.write_text(json.dumps({
        "Format the following public event record.": "[Category] Live Event [Summary] A show.",
        "Task: predict the daily taxi travel demand": "[pickup] 300 [dropoff] 200 [reasoning] ok.",
    }))
    config = replace(
        small_config,
        output_dir=tmp_path / "out",
        cache_dir=tmp_path / "cache",
        backend_kind="mock",
        mock_script=script,
        template_dir=templates,
        test_range=DateRange(date(2021, 7, 1), date(2021, 7, 14)),
        gbdt=GbdtParams(n_trees=5),
    )
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config.to_dict()), encoding="utf-8")
    src = str(Path(pipeline.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    done = subprocess.run(
        [sys.executable, "-P", "-c", CHILD, str(config_path)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])

    python_roots = {_real(p) for p in (sys.prefix, sys.base_prefix, sys.exec_prefix, src)}
    python_roots |= {_real(p) for p in sys.path if p}
    template_files = {_real(templates / f"{name}.txt") for name in ("event_format", "prediction")}
    declared = {}
    for stage, stage_def in _STAGE_DEFS.items():
        files = declared[stage] = {
            _real(artifact_path(config, item) if isinstance(item, str) else item)
            for item in (*stage_def.reads(config), *stage_def.reads_if_present(config))
        }
        if files & template_files:
            # `config.templates()` checks every template before the first model
            # call, so a bad one exits 2 early; only the stage's own template
            # reaches its outputs.
            files |= template_files
        files |= {_real(artifact_path(config, name)) for name in stage_def.writes}
        files.add(_real(config.output_dir / "manifest.json"))
    undeclared = set()
    for stage, event, path in seen:
        path = _real(path)
        temp = TEMP.fullmatch(os.path.basename(path))
        if temp:
            path = os.path.join(os.path.dirname(path), temp.group(1))
        if (path in declared[stage] or _under(path, [_real(config.cache_dir)])
                or path.endswith(PYTHON_FILES) or _under(path, python_roots)):
            continue
        undeclared.add((stage, event, path))
    assert sorted(undeclared) == [], "\n".join(map(str, sorted(undeclared)))
    assert {stage for stage, _, _ in seen} == set(STAGES)
