"""The benchmark tracer names layer functions by module and attribute; a
rename in `mpe` must not silently drop a layer from `--trace 1`."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _layer_functions():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYER_FUNCTIONS


@pytest.mark.parametrize("module_name, attr", _layer_functions())
def test_tracer_layer_resolves_to_a_callable(module_name, attr):
    assert module_name.split(".")[0] == "mpe"
    assert callable(getattr(importlib.import_module(module_name), attr, None))
