"""The one place that reads and writes text: UTF-8 whatever the locale, CSV
in csv.writer's default dialect both ways, every artifact and manifest written
to a temp file, then renamed onto no file, and store segments appended to."""

from __future__ import annotations

import csv
import io
import os
import threading
from pathlib import Path
from typing import Iterable, Sequence


def atomic_write_bytes(path, data: bytes) -> None:
    """Write `data` to `path` through a temp name unique to this process and
    thread, remove `path`, then rename the temp file onto no file, which ext4
    (`auto_da_alloc`) does not force to disk; the file has mode 0600. A missing
    parent directory is made, and the write tried once more."""
    path = Path(path)
    tmp = path.parent / f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    try:
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def open_append(path) -> int:
    """A new file at `path`, mode 0600, open to append only; its parent is made if missing."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    return os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_APPEND, 0o600)


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_csv(path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """`header`, then `rows`, in csv.writer's default dialect."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write_text(path, buf.getvalue())


def read_text(path) -> str:
    """The file's text, decoded as UTF-8 whatever the locale."""
    return Path(path).read_text(encoding="utf-8")


def read_csv(path) -> list[dict[str, str]]:
    """The rows of a UTF-8 CSV in csv.writer's default dialect, as dicts
    keyed by its header row."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))
