"""Demo scripts: every ghznet name they import exists, and the quick one runs.

The other demos are left to be run by hand: ``coupling_error_correction.py``
takes seconds and writes a CSV into the working directory, and
``large_network_scaling.py`` takes seconds too.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ghznet

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = Path(ghznet.__file__).resolve().parent.parent


def ghznet_imports(path: Path) -> list[tuple[str, str | None]]:
    """(module, name) for each ``from ghznet... import name``, and
    (module, None) for each ``import ghznet...``, in the demo's source."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ghznet":
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(a.name, None) for a in node.names if a.name.split(".")[0] == "ghznet"]
    return found


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_imported_names_resolve(demo):
    imports = ghznet_imports(DEMOS / demo)
    assert imports, f"{demo} imports nothing from ghznet"
    for module, name in imports:
        mod = importlib.import_module(module)
        assert name is None or hasattr(mod, name), f"{demo}: {module}.{name} is gone"


def test_eigenvalue_ladder_runs(tmp_path):
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    run = subprocess.run(
        [sys.executable, str(DEMOS / "eigenvalue_ladder.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert "N = 6" in run.stdout
