"""CLI: stage commands, overrides, dry-run, and exit codes."""

import json
import shutil
from datetime import date
from pathlib import Path

import pytest

from mpe.cli import main
from mpe.pipeline import DEFAULT_RUN_STAGES, PipelineConfig


@pytest.fixture(scope="module")
def cli_dataset(tmp_path_factory):
    """Tiny dataset generated through the synth command itself."""
    root = tmp_path_factory.mktemp("cli_synth")
    code = main([
        "synth", "--out", str(root),
        "--start", "2021-01-04", "--train-end", "2021-04-30", "--end", "2021-06-15",
    ])
    assert code == 0
    return root


def test_synth_writes_dataset_and_config(cli_dataset):
    for name in ("trips.csv", "events.json", "truth.csv", "config.json"):
        assert (cli_dataset / name).exists()
    config = PipelineConfig.from_file(cli_dataset / "config.json")
    assert config.test_range.start == date(2021, 5, 1)


def test_dry_run_prints_plan_without_artifacts(cli_dataset, capsys):
    code = main(["run", "--config", str(cli_dataset / "config.json"), "--dry-run"])
    assert code == 0
    out = capsys.readouterr().out
    assert "ingest: run" in out
    assert not (cli_dataset / "out" / "daily_demand.csv").exists()


def test_stage_commands_run_in_order(cli_dataset, capsys):
    config_arg = ["--config", str(cli_dataset / "config.json")]
    for stage in ("ingest", "format_events", "decompose", "predict", "evaluate", "report"):
        assert main([stage] + config_arg) == 0, stage
    out = capsys.readouterr().out
    assert "report: done" in out
    assert (cli_dataset / "out" / "summary.txt").exists()


def test_rerun_reports_skipped(cli_dataset, capsys):
    assert main(["ingest", "--config", str(cli_dataset / "config.json")]) == 0
    assert "skipped (up to date)" in capsys.readouterr().out


def test_missing_config_exits_2(tmp_path, capsys):
    code = main(["ingest", "--config", str(tmp_path / "none.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_precondition_violation_exits_3(cli_dataset, tmp_path, capsys):
    code = main([
        "predict", "--config", str(cli_dataset / "config.json"),
        "--output-dir", str(tmp_path / "fresh"),
    ])
    assert code == 3
    assert "run `decompose` first" in capsys.readouterr().err


def test_backend_error_exits_4(cli_dataset, tmp_path, capsys):
    script = tmp_path / "empty_script.json"
    script.write_text("{}")
    main(["ingest", "--config", str(cli_dataset / "config.json"),
          "--output-dir", str(tmp_path / "o")])
    main(["decompose", "--config", str(cli_dataset / "config.json"),
          "--output-dir", str(tmp_path / "o")])
    code = main([
        "predict", "--config", str(cli_dataset / "config.json"),
        "--output-dir", str(tmp_path / "o"),
        "--backend", "mock", "--mock-script", str(script),
        "--cache-dir", str(tmp_path / "cache"),
        "--ablation", "na",
    ])
    assert code == 4
    assert "no scripted reply" in capsys.readouterr().err


def test_fallback_budget_exits_5(cli_dataset, tmp_path, capsys):
    config_doc = json.loads((cli_dataset / "config.json").read_text())
    config_doc["fallback_budget"] = 0.2
    config_doc["trip_source"] = str(cli_dataset / "trips.csv")
    config_doc["event_source"] = str(cli_dataset / "events.json")
    config_doc["output_dir"] = str(tmp_path / "o")
    config_doc["cache_dir"] = str(tmp_path / "cache")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_doc))
    script = tmp_path / "script.json"
    script.write_text(json.dumps({
        "Task: predict the daily taxi travel demand": "never tagged",
    }))
    for stage in ("ingest", "decompose"):
        assert main([stage, "--config", str(config_path)]) == 0
    code = main([
        "predict", "--config", str(config_path),
        "--backend", "mock", "--mock-script", str(script), "--ablation", "na",
    ])
    assert code == 5
    assert "fallback rate" in capsys.readouterr().err


def _config_with_sources(cli_dataset, tmp_path, **sources) -> str:
    """A copy of the dataset's config that reads `sources` in its place."""
    config_doc = json.loads((cli_dataset / "config.json").read_text())
    config_doc["trip_source"] = str(cli_dataset / "trips.csv")
    config_doc["event_source"] = str(cli_dataset / "events.json")
    config_doc.update({key: str(path) for key, path in sources.items()})
    config_doc["output_dir"] = str(tmp_path / "o")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_doc))
    return str(config_path)


def _statuses(capsys, argv) -> dict[str, str]:
    """Stage -> status, from the lines `main(argv)` prints for the stages:
    a plan's run, skip, blocked or not reached, or a run's done (as run) or
    skipped (as skip)."""
    assert main(argv) == 0
    lines = [line.split(": ", 1) for line in capsys.readouterr().out.splitlines()
             if not line.startswith(" ")]
    words = {"done": "run", "skipped": "skip", "not": "not reached"}
    return {stage: words.get(rest.split()[0], rest.split()[0]) for stage, rest in lines}


def test_dry_run_on_a_fresh_directory_plans_every_stage_to_run(cli_dataset, tmp_path, capsys):
    config_path = _config_with_sources(cli_dataset, tmp_path)
    plan = _statuses(capsys, ["run", "--config", config_path, "--with-ablate", "--dry-run"])
    assert plan == dict.fromkeys(
        ("ingest", "format_events", "decompose", "predict", "evaluate", "ablate", "report"),
        "run",
    )
    assert _statuses(capsys, ["predict", "--config", config_path, "--dry-run"]) == \
        {"predict": "blocked"}
    assert not (tmp_path / "o").exists()


def test_stages_after_a_blocked_one_are_not_reached_in_plan_or_run(cli_dataset, tmp_path, capsys):
    config_path = _config_with_sources(cli_dataset, tmp_path, event_source=tmp_path / "none.json")
    plan = _statuses(capsys, ["run", "--config", config_path, "--dry-run"])
    assert plan == {"ingest": "run", "format_events": "blocked", "decompose": "not reached",
                    "predict": "not reached", "evaluate": "not reached",
                    "report": "not reached"}
    assert main(["run", "--config", config_path]) == 2
    assert sorted(p.name for p in (tmp_path / "o").glob("*.*")) == \
        ["daily_demand.csv", "ingest_rejects.jsonl", "manifest.json"]


def _widen_the_radius(config_path: Path, out: Path) -> list[str]:
    config_doc = json.loads(config_path.read_text())
    config_doc["venue"]["radius_m"] = 3500
    config_path.write_text(json.dumps(config_doc))
    return []


def _delete_the_decomposition(config_path: Path, out: Path) -> list[str]:
    (out / "decomposition.csv").unlink()
    return []


def _add_an_event_on_a_test_day(config_path: Path, out: Path) -> list[str]:
    events = config_path.parent / "events.json"
    records = json.loads(events.read_text())
    records.append({**records[0], "date": "2021-06-10"})  # a day without events
    events.write_text(json.dumps(records))
    return []


def _copy_the_output_dir(config_path: Path, out: Path) -> list[str]:
    shutil.copytree(out, out.with_name("copied"))
    return ["--output-dir", str(out.with_name("copied"))]


def _move_the_output_dir(config_path: Path, out: Path) -> list[str]:
    out.rename(out.with_name("moved"))
    return ["--output-dir", str(out.with_name("moved"))]


@pytest.mark.parametrize("edit, plan, run", [
    pytest.param(_widen_the_radius, "run skip run run run run", None, id="radius"),
    pytest.param(_add_an_event_on_a_test_day, "skip run run run run run", None,
                 id="event_source_edited"),
    pytest.param(_copy_the_output_dir, "skip skip skip skip skip skip", None,
                 id="output_dir_copied"),
    pytest.param(_move_the_output_dir, "skip skip skip skip skip skip", None,
                 id="output_dir_moved"),
    # `decompose` writes the bytes it wrote before, so the run skips every
    # stage after it; the plan runs nothing, so it shows them to run, unchecked.
    pytest.param(_delete_the_decomposition, "skip skip run run run run",
                 "skip skip run skip skip skip", id="decomposition_deleted"),
])
def test_dry_run_after_an_edit_plans_what_the_run_does(
    cli_dataset, tmp_path, capsys, edit, plan, run
):
    shutil.copyfile(cli_dataset / "events.json", tmp_path / "events.json")
    config_path = Path(_config_with_sources(
        cli_dataset, tmp_path, event_source=tmp_path / "events.json"))
    assert main(["run", "--config", str(config_path)]) == 0
    capsys.readouterr()
    argv = ["run", "--config", str(config_path), *edit(config_path, tmp_path / "o")]
    planned = _statuses(capsys, [*argv, "--dry-run"])
    assert planned == dict(zip(DEFAULT_RUN_STAGES, plan.split()))
    assert _statuses(capsys, argv) == dict(zip(DEFAULT_RUN_STAGES, (run or plan).split()))


def test_event_source_that_is_not_utf8_exits_2(cli_dataset, tmp_path, capsys):
    events = tmp_path / "events.json"
    events.write_bytes(
        b'[{"title": "Caf\xe9 Night", "description": null, "date": "2021-05-03",'
        b' "start_time": "19:00", "end_time": "22:00"}]'
    )
    config_path = _config_with_sources(cli_dataset, tmp_path, event_source=events)
    assert main(["ingest", "--config", config_path]) == 0
    capsys.readouterr()
    assert main(["decompose", "--config", config_path]) == 2
    assert "error: cannot read event source" in capsys.readouterr().err


def test_trip_source_that_is_not_utf8_exits_2(cli_dataset, tmp_path, capsys):
    trips = tmp_path / "trips.csv"
    trips.write_bytes(
        (cli_dataset / "trips.csv").read_bytes()
        + b"2021-05-03 10:00:00,2021-05-03 10:20:00,-73.95,40.70,-73.95,40.70,Caf\xe9\r\n"
    )
    config_path = _config_with_sources(cli_dataset, tmp_path, trip_source=trips)
    assert main(["ingest", "--config", config_path]) == 2
    assert "error: cannot read trip source" in capsys.readouterr().err


def test_trip_header_without_coordinates_exits_2(cli_dataset, tmp_path, capsys):
    trips = tmp_path / "trips.csv"
    trips.write_text("pickup_datetime,dropoff_datetime\n2021-05-03 10:00:00,2021-05-03 10:20:00\n")
    config_path = _config_with_sources(cli_dataset, tmp_path, trip_source=trips)
    assert main(["ingest", "--config", config_path]) == 2
    assert "error: trip CSV header missing columns" in capsys.readouterr().err


def test_catalog_entry_without_date_exits_2(cli_dataset, tmp_path, capsys):
    events = tmp_path / "events.json"
    events.write_text(json.dumps([{"title": "Night Game", "description": None}]))
    config_path = _config_with_sources(cli_dataset, tmp_path, event_source=events)
    assert main(["ingest", "--config", config_path]) == 0
    capsys.readouterr()
    assert main(["decompose", "--config", config_path]) == 2
    assert "error: event 0: missing date" in capsys.readouterr().err


def test_template_with_an_unknown_placeholder_exits_2_before_any_model_call(
    cli_dataset, tmp_path, capsys
):
    templates = tmp_path / "templates"
    templates.mkdir()
    (templates / "prediction.txt").write_text("Predict {target_date}, {bogus}")
    script = tmp_path / "empty_script.json"
    script.write_text("{}")  # a model call would exit 4
    config_path = _config_with_sources(cli_dataset, tmp_path, template_dir=templates)
    assert main(["ingest", "--config", config_path]) == 0
    capsys.readouterr()
    code = main([
        "format_events", "--config", config_path,
        "--backend", "mock", "--mock-script", str(script),
        "--cache-dir", str(tmp_path / "cache"),
    ])
    assert code == 2
    assert "has an unknown placeholder {bogus}" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("temperature", 3), ("max_tokens", 0), ("time_bins", 0), ("text_dim", 0),
    ("linear_ridge_lambda", -1), ("max_description_words", -5),
    ("ablate_models", ["llm", "gbtd"]),
])
def test_out_of_range_config_value_exits_2_before_any_stage(
    cli_dataset, tmp_path, capsys, field, value
):
    config_path = Path(_config_with_sources(cli_dataset, tmp_path))
    config_path.write_text(json.dumps({**json.loads(config_path.read_text()), field: value}))
    assert main(["run", "--config", str(config_path), "--with-ablate"]) == 2
    assert f"error: {field} must be" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_live_base_url_without_a_scheme_exits_2_before_any_stage(
    cli_dataset, tmp_path, capsys, monkeypatch
):
    monkeypatch.setenv("LLM_API_KEY", "test-key")
    config_path = Path(_config_with_sources(cli_dataset, tmp_path))
    config_doc = json.loads(config_path.read_text())
    config_doc["backend"] = {"kind": "live", "base_url": "api.example.com"}
    config_path.write_text(json.dumps(config_doc))
    assert main(["run", "--config", str(config_path), "--with-ablate"]) == 2
    assert "base_url must be an http(s) URL with a host: 'api.example.com'" \
        in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("where", ["flag", "config"])
def test_cache_backend_kind_exits_2_before_any_stage(cli_dataset, tmp_path, capsys, where):
    config_path = Path(_config_with_sources(cli_dataset, tmp_path))
    flag = ["--backend", "cache"]
    if where == "config":
        config_path.write_text(json.dumps({**json.loads(config_path.read_text()),
                                           "backend": {"kind": "cache"}}))
        flag = []
    assert main(["run", "--config", str(config_path), "--with-ablate", *flag]) == 2
    err = capsys.readouterr().err
    assert "not 'cache'" in err and "'live' keeps its replies under cache_dir" in err
    assert not (tmp_path / "o").exists()


def test_bad_ablation_name_exits_2(cli_dataset, capsys):
    code = main([
        "ingest", "--config", str(cli_dataset / "config.json"), "--ablation", "zz",
    ])
    assert code == 2


def test_ablate_via_cli(cli_dataset, capsys):
    config_arg = ["--config", str(cli_dataset / "config.json")]
    assert main(["ablate"] + config_arg) == 0
    report = (cli_dataset / "out" / "ablation_report.csv").read_text()
    assert "na/r_i" in report and "c_t_h_prime/o" in report


def test_ablate_backend_error_exits_4(cli_dataset, tmp_path, capsys):
    script = tmp_path / "empty_script.json"
    script.write_text("{}")
    config_path = _config_with_sources(cli_dataset, tmp_path)
    for stage in ("ingest", "format_events", "decompose"):
        assert main([stage, "--config", config_path]) == 0, stage
    capsys.readouterr()
    code = main([
        "ablate", "--config", config_path,
        "--backend", "mock", "--mock-script", str(script),
        "--cache-dir", str(tmp_path / "cache"),
    ])
    assert code == 4
    assert "no scripted reply" in capsys.readouterr().err
