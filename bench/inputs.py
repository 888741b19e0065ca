"""Deterministic benchmark inputs, generated once per seed and reused.

`stock` is the default `mpe synth` dataset. `city` is the same dataset with
about ten decoy trips per stock row, 2-20 km from the venue and interleaved
by date, which mimics city-wide trip records where almost no row falls
inside the venue radius. Inputs are cached under the work directory, keyed
by a digest of the `mpe` source and by seed, and are never part of a timed
region.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import shutil
from datetime import date
from pathlib import Path

import numpy as np

START = date(2021, 1, 4)
TRAIN_END = date(2021, 12, 31)
END = date(2022, 12, 31)
DECOYS_PER_ROW = 10
DECOY_RING_M = (2_000.0, 20_000.0)


def source_digest(src: Path) -> str:
    """sha256 over the paths and bytes of every Python file of the mpe package."""
    h = hashlib.sha256()
    for path in sorted((src / "mpe").rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def dataset_dir(work: Path, digest: str, seed: int) -> Path:
    """Inputs and reference artifacts of one seed under one version of the code."""
    return work / "data" / digest[:16] / str(seed)


def write_json(path: Path, doc: dict) -> None:
    """Write `doc` so that a concurrent reader never sees a partial file."""
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(doc, indent=2, sort_keys=True))
    tmp.replace(path)


def load_json(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def stock(data: Path, seed: int) -> dict:
    """The default synthetic dataset for `seed` under `data`: trips, events,
    truth, config."""
    out = data / "stock"
    done = out / "sizes.json"
    sizes = load_json(done)
    if sizes is None:
        if out.exists():
            shutil.rmtree(out)
        from mpe.synthetic import generate_files
        from mpe.trips import DateRange

        generate_files(out, DateRange(START, END), TRAIN_END, seed=seed)
        sizes = _sizes(out / "trips.csv", out / "events.json", out / "truth.csv")
        write_json(done, sizes)
    return _with_paths(sizes, out / "trips.csv", out)


def city(data: Path, seed: int) -> dict:
    """Stock trips with decoys interleaved by date; same events and truth."""
    base = data / "stock"
    stock(data, seed)
    out = data / "city"
    done = out / "sizes.json"
    sizes = load_json(done)
    if sizes is None:
        if out.exists():
            shutil.rmtree(out)
        out.mkdir(parents=True)
        _write_city_trips(base / "trips.csv", out / "trips.csv", seed)
        sizes = _sizes(out / "trips.csv", base / "events.json", base / "truth.csv")
        write_json(done, sizes)
    return _with_paths(sizes, out / "trips.csv", base)


def _with_paths(sizes: dict, trips: Path, base: Path) -> dict:
    """Sizes plus absolute input paths; the paths are not cached, so the
    work directory may move."""
    return dict(
        sizes,
        trips=str(trips.resolve()),
        events=str((base / "events.json").resolve()),
        truth=str((base / "truth.csv").resolve()),
        config=str((base / "config.json").resolve()),
    )


def _write_city_trips(src: Path, dst: Path, seed: int) -> None:
    """Copy `src` and follow every row that starts with a date by
    DECOYS_PER_ROW trips on that date starting and ending 2-20 km from the
    venue."""
    from mpe.synthetic import SYNTH_VENUE

    with open(src, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    days = []
    for row in rows:
        stamp = row[0]
        days.append(stamp[:10] if len(stamp) >= 10 and stamp[4] == "-" else None)

    rng = np.random.default_rng([seed, 7])
    n_rows = sum(1 for d in days if d is not None)
    n = n_rows * DECOYS_PER_ROW
    lat0, lon0 = SYNTH_VENUE.center.lat, SYNTH_VENUE.center.lon
    coords = []
    for _ in range(2):  # pickup, then dropoff
        angle = rng.random(n) * 2 * math.pi
        dist = DECOY_RING_M[0] + rng.random(n) * (DECOY_RING_M[1] - DECOY_RING_M[0])
        lat = lat0 + dist * np.cos(angle) / 111_320.0
        lon = lon0 + dist * np.sin(angle) / (111_320.0 * math.cos(math.radians(lat0)))
        coords.append((lat, lon))
    # Minutes after midnight: starts 06:00-22:59, 5-40 minute trips, so
    # both ends stay on the row's date.
    start = rng.integers(360, 1380, size=n)
    end = start + rng.integers(5, 41, size=n)

    def clock(minutes) -> list[str]:
        return [f"{m // 60:02d}:{m % 60:02d}:00" for m in minutes.tolist()]

    start_s, end_s = clock(start), clock(end)
    plat = [f"{v:.6f}" for v in coords[0][0].tolist()]
    plon = [f"{v:.6f}" for v in coords[0][1].tolist()]
    dlat = [f"{v:.6f}" for v in coords[1][0].tolist()]
    dlon = [f"{v:.6f}" for v in coords[1][1].tolist()]

    k = 0
    with open(dst, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        lines = []
        for row, day in zip(rows, days):
            writer.writerow(row)
            if day is None:
                continue
            for j in range(k, k + DECOYS_PER_ROW):
                lines.append(
                    f"{day} {start_s[j]},{day} {end_s[j]},{plon[j]},{plat[j]},{dlon[j]},{dlat[j]}\r\n"
                )
            k += DECOYS_PER_ROW
            fh.write("".join(lines))
            lines.clear()


def _sizes(trips: Path, events: Path, truth: Path) -> dict:
    with open(trips, "rb") as fh:
        rows = sum(1 for _ in fh) - 1
    catalog = json.loads(events.read_text())
    with open(truth, newline="") as fh:
        days = sum(1 for _ in csv.DictReader(fh))
    return {
        "rows": rows,
        "bytes": trips.stat().st_size,
        "days": days,
        "events_n": len(catalog),
        "unique_events": len({(e["title"], e.get("description")) for e in catalog}),
    }


def pipeline_config(sizes: dict, **overrides) -> dict:
    """A pipeline config document for the dataset, with absolute sources."""
    doc = json.loads(Path(sizes["config"]).read_text())
    doc["trip_source"] = sizes["trips"]
    doc["event_source"] = sizes["events"]
    doc.update(overrides)
    return doc


def flows(path: Path | str) -> dict[str, tuple[int, int]]:
    """Daily (outflow, inflow) by date from truth.csv or daily_demand.csv."""
    with open(path, newline="") as fh:
        return {r["date"]: (int(r["outflow"]), int(r["inflow"])) for r in csv.DictReader(fh)}
