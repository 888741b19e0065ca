import concurrent.futures
import os
import sys
import time
from datetime import date
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from mpe.pipeline import PipelineConfig
from mpe.synthetic import generate_files
from mpe.trips import DateRange

REPO_ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT_DIR = REPO_ROOT / "prompts" / "snapshots"


class YieldingCallCount:
    """Backend mixin that yields the interpreter between reading and writing
    ``call_count``.

    That widens the read-modify-write window so that an unguarded
    increment loses updates visibly instead of rarely.
    """

    @property
    def call_count(self):
        value = self._count
        time.sleep(0)
        return value

    @call_count.setter
    def call_count(self, value):
        self._count = value


@pytest.fixture(scope="session")
def small_dataset_dir(tmp_path_factory) -> Path:
    """7.5-month synthetic dataset: train Jan-Jun 2021, test Jul-Aug 15."""
    root = tmp_path_factory.mktemp("synth_small")
    generate_files(
        root,
        DateRange(date(2021, 1, 4), date(2021, 8, 15)),
        train_end=date(2021, 6, 30),
    )
    return root


@pytest.fixture(scope="session")
def small_config(small_dataset_dir) -> PipelineConfig:
    return PipelineConfig.from_file(small_dataset_dir / "config.json")


@pytest.fixture
def pools(monkeypatch) -> list:
    """The arguments of each process pool made, with two CPUs usable
    whatever the host has."""
    made = []
    real = concurrent.futures.ProcessPoolExecutor

    def counting(*args, **kwargs):
        made.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counting)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    return made
