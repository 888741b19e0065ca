"""The one writer of artifacts and cache entries: temp file, then rename."""

from __future__ import annotations

import csv
import io
import os
import threading
from pathlib import Path
from typing import Iterable, Sequence


def atomic_write_bytes(path, data: bytes) -> None:
    """Write `data` to `path` through a temp name unique to this process and
    thread, then rename it over `path`; the file has mode 0600. A missing
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
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_csv(path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """`header`, then `rows`, in csv.writer's default dialect."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write_text(path, buf.getvalue())
