"""The one text module: atomic bytes, text and CSV written and read as UTF-8,
and who may put bytes on disk or decode them."""

import ast
import codecs
import csv
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from datetime import date
from pathlib import Path

import pytest

from mpe import ioutil
from mpe.config import encode
from mpe.events import parse_event_records, serialize_event_records
from mpe.ioutil import atomic_write_bytes, atomic_write_text, read_csv, read_text, write_csv
from mpe.pipeline import artifact_path, run_stage
from mpe.trips import DateRange

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


def _modules() -> dict[str, ast.AST]:
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.rglob("*.py"))
    }


def _dotted_names(tree: ast.AST) -> set[str]:
    """Every `module.attribute` a module names, and every name it imports."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            found.add(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.Import):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.update(f"{node.module}.{a.name}" for a in node.names)
    return found


def _disk_writes(tree: ast.AST) -> set[str]:
    """The temp-then-rename and CSV-writing primitives a module uses."""
    return {
        name for name in _dotted_names(tree)
        if name in PRIMITIVES or name.startswith("tempfile")
    }


def test_only_ioutil_renames_temp_files_or_builds_csv_writers():
    found = {name: _disk_writes(tree) for name, tree in _modules().items()}
    assert found.pop("ioutil.py") == PRIMITIVES
    # synthetic.py writes generated inputs with the default mode, not artifacts.
    assert found.pop("synthetic.py") <= {"csv.writer"}
    assert {name: used for name, used in found.items() if used} == {}


TEXT_CALLS = {"open", "read_text", "write_text", "TextIOWrapper"}


def _text_io(tree: ast.AST) -> list[tuple[str, str, bool]]:
    """Each call that opens, reads or writes a file as text: its name, its
    mode, and whether it passes encoding="utf-8". Binary opens, os.open and
    the readers and writers of mpe.ioutil are left out."""
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            if getattr(func.value, "id", None) in ("os", "ioutil"):
                continue
            name = func.attr
        elif isinstance(func, ast.Name) and func.id in ("open", "TextIOWrapper"):
            name = func.id  # a bare read_text or write_text is mpe.ioutil's
        else:
            continue
        if name not in TEXT_CALLS:
            continue
        keywords = {k.arg: k.value for k in node.keywords}
        mode = {"read_text": "r", "write_text": "w"}.get(name, "r")
        if name == "open":  # open(file, mode) or path.open(mode)
            args = node.args[1:] if isinstance(func, ast.Name) else node.args
            given = keywords.get("mode", args[0] if args else None)
            mode = given.value if isinstance(given, ast.Constant) else mode
        if "b" in mode:
            continue
        encoding = keywords.get("encoding")
        utf8 = isinstance(encoding, ast.Constant) and encoding.value == "utf-8"
        calls.append((name, mode, utf8))
    return calls


def test_text_io_outside_ioutil_names_utf8():
    calls = {name: _text_io(tree) for name, tree in _modules().items()}
    calls.pop("ioutil.py")
    assert {
        name: [call for call in found if not call[2]] for name, found in calls.items()
        if not all(utf8 for _, _, utf8 in found)
    } == {}
    # Only synthetic.py's input writers open text files; trips.py wraps the
    # trip file it was handed in binary.
    opened = {
        name: {mode for call, mode, _ in found if call != "TextIOWrapper"}
        for name, found in calls.items()
    }
    assert {name: modes for name, modes in opened.items() if modes} == {"synthetic.py": {"w"}}
    wrappers = {
        name for name, found in calls.items() if any(c == "TextIOWrapper" for c, _, _ in found)
    }
    assert wrappers == {"trips.py"}


def test_only_ioutil_builds_csv_dict_readers():
    readers = {
        name for name, tree in _modules().items() if "csv.DictReader" in _dotted_names(tree)
    }
    assert readers == {"ioutil.py"}


def test_no_module_imports_locale():
    users = {
        name for name, tree in _modules().items()
        if any(used.split(".")[0] == "locale" for used in _dotted_names(tree))
    }
    assert users == set()


def test_read_csv_reads_what_write_csv_wrote(tmp_path):
    path = tmp_path / "rows.csv"
    write_csv(path, ["date", "note"], [["2021-01-04", "Beyoncé, live"], ["2021-01-05", "a\r\nb"]])
    assert read_csv(path) == [
        {"date": "2021-01-04", "note": "Beyoncé, live"},
        {"date": "2021-01-05", "note": "a\r\nb"},
    ]
    assert "Beyoncé" in read_text(path)


def test_non_utf8_text_raises_value_error(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes("Café".encode("latin-1"))
    with pytest.raises(ValueError):
        read_text(path)
    with pytest.raises(ValueError):
        read_csv(path)


# The child prints its locale's encoding, then runs ingest through report.
_CHILD = (
    "import locale, sys\n"
    "from mpe.cli import main\n"
    "print(locale.getpreferredencoding(False), flush=True)\n"
    "sys.exit(main(['run', '--config', sys.argv[1]]))\n"
)
_LOCALES = {
    "utf-8": {"LC_ALL": "C.UTF-8"},
    "ascii": {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"},
}


def _run_in_locale(config_path: Path, locale_env: dict) -> str:
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith(("LC_", "PYTHONUTF8", "PYTHONIO"))
    }
    env.update(locale_env, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, str(config_path)],
        env=env, capture_output=True, text=True, encoding="utf-8", errors="replace",
    )
    assert done.returncode == 0, done.stderr
    return codecs.lookup(done.stdout.split("\n", 1)[0]).name


def test_artifacts_do_not_depend_on_the_locale(small_config, tmp_path):
    """Event text with raw non-ASCII UTF-8 runs ingest through report to the
    same bytes under a UTF-8 locale and under an ASCII one."""
    events = parse_event_records(read_text(small_config.event_source))
    text = serialize_event_records([
        replace(e, title=f"{e.title} · Beyoncé", description=f"Mötley Crüe: {e.description}")
        for e in events
    ])
    assert not text.isascii()
    atomic_write_text(tmp_path / "events.json", text)
    digests = {}
    for name, locale_env in _LOCALES.items():
        root = tmp_path / name
        config = replace(
            small_config, event_source=tmp_path / "events.json",
            output_dir=root / "out", cache_dir=root / "cache",
            test_range=DateRange(date(2021, 7, 1), date(2021, 7, 14)),
        )
        atomic_write_text(root / "config.json", json.dumps(encode(config)))
        assert _run_in_locale(root / "config.json", locale_env) == name
        digests[name] = {
            str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(config.output_dir.rglob("*"))
            if path.is_file() and path.name != "manifest.json"
        }
    assert len(digests["utf-8"]) >= 10
    assert digests["utf-8"] == digests["ascii"]
