"""The one writer: atomic bytes, text and CSV, and who may put bytes on disk."""

import ast
import csv
import os
from dataclasses import replace
from pathlib import Path

import pytest

from mpe import ioutil
from mpe.ioutil import atomic_write_bytes, atomic_write_text, write_csv
from mpe.pipeline import artifact_path, run_stage

SRC = Path(ioutil.__file__).resolve().parent


def test_failed_write_leaves_old_file_and_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "artifact.json"
    atomic_write_bytes(path, b"old")

    def failing(fd, data):
        raise OSError("disk full")

    monkeypatch.setattr(ioutil.os, "write", failing)
    with pytest.raises(OSError, match="disk full"):
        atomic_write_bytes(path, b"new")
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]


def test_missing_parent_directory_is_made(tmp_path):
    path = tmp_path / "a" / "b" / "artifact.txt"
    atomic_write_text(path, "café\n")
    assert path.read_bytes() == "café\n".encode("utf-8")
    assert path.stat().st_mode & 0o777 == 0o600
    assert os.listdir(path.parent) == ["artifact.txt"]


def test_stage_artifact_has_mode_0600(small_config, tmp_path):
    config = replace(small_config, output_dir=tmp_path / "out")
    run_stage("ingest", config)
    path = artifact_path(config, "daily_demand")
    assert path.stat().st_mode & 0o777 == 0o600


def test_write_csv_bytes_equal_csv_writer_on_a_file(tmp_path):
    header = ["date", "note, with comma", 'say "hi"']
    rows = [
        ["2021-01-04", "a,b", 'one "quoted" word'],
        ["2021-01-05", "line\nbreak", "cr\r\nlf"],
        [1, 2.5, ""],
        ["café", None, " padded "],
    ]
    ours, reference = tmp_path / "ours.csv", tmp_path / "reference.csv"
    write_csv(ours, header, iter(rows))
    with open(reference, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    assert ours.read_bytes() == reference.read_bytes()


PRIMITIVES = {"os.replace", "os.open", "csv.writer"}


def _disk_writes(tree: ast.AST) -> set[str]:
    """The temp-then-rename and CSV-writing primitives a module uses."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            found.add(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.Import):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.update(f"{node.module}.{a.name}" for a in node.names)
    return {name for name in found if name in PRIMITIVES or name.startswith("tempfile")}


def test_only_ioutil_renames_temp_files_or_builds_csv_writers():
    found = {
        path.name: _disk_writes(ast.parse(path.read_text()))
        for path in sorted(SRC.rglob("*.py"))
    }
    assert found.pop("ioutil.py") == PRIMITIVES
    # synthetic.py writes generated inputs with the default mode, not artifacts.
    assert found.pop("synthetic.py") <= {"csv.writer"}
    assert {name: used for name, used in found.items() if used} == {}
