"""Each module of the package imports alone, and the package imports none."""

import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(
    "mpe" if p.stem == "__init__" else f"mpe.{p.stem}" for p in (SRC / "mpe").glob("*.py")
)

# Run isolated (-I: no PYTHONPATH, no user site, no script directory), so that
# src is the one directory of this repository on the path.
CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
__import__(sys.argv[2])
print(" ".join(sorted(m for m in sys.modules if m == "mpe" or m.startswith("mpe."))))
"""


def _import_alone(module: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-I", "-c", CHILD, str(SRC), module],
        capture_output=True, text=True, timeout=60,
    )


def test_each_module_imports_alone_in_a_fresh_interpreter():
    """An import cycle that a fixed import order in the package would hide
    fails here. One child per module, at most two at a time."""
    assert len(MODULES) > 10
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = dict(zip(MODULES, pool.map(_import_alone, MODULES)))
    failed = {m: r.stderr.strip().splitlines()[-1:] for m, r in results.items() if r.returncode}
    assert failed == {}
    assert results["mpe"].stdout.split() == ["mpe"]  # the package loads no submodule
    assert results["mpe.errors"].stdout.split() == ["mpe", "mpe.errors"]
