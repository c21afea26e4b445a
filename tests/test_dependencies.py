"""Declared dependencies match imports.

Every ``repro`` module must import with nothing but the standard library
and the runtime dependencies ``pyproject.toml`` declares. The check runs
in a child interpreter in which every other installed top-level module
is blocked through ``sys.modules``, so an undeclared import fails there
as it would on a clean install.
"""

from __future__ import annotations

import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(repro.__file__).resolve().parents[1]

tomllib = pytest.importorskip("tomllib")


def declared_modules() -> list[str]:
    """Top-level module names of the declared runtime dependencies."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return [
        re.split(r"[<>=!~\[; ]", dep, maxsplit=1)[0].replace("-", "_").lower()
        for dep in project["dependencies"]
    ]


CHILD = textwrap.dedent(
    """
    import importlib, pkgutil, sys
    src, allowed = sys.argv[1], set(sys.argv[2].split(","))
    sys.path.insert(0, src)
    blocked = sorted(
        m.name for m in pkgutil.iter_modules()
        if m.name not in sys.stdlib_module_names and m.name not in allowed
        and not m.name.startswith("_")
    )
    for name in blocked:
        sys.modules[name] = None
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    print(len(blocked))
    """
)


def test_every_module_imports_with_undeclared_modules_blocked():
    allowed = ",".join(["repro", *declared_modules()])
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(SRC), allowed],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    # the environment really has undeclared modules to block (networkx,
    # scipy, pytest, ...), so the import above proved something
    assert int(proc.stdout.split()[-1]) > 0


def test_graph_export_without_networkx_names_the_extra():
    code = textwrap.dedent(
        """
        import sys
        sys.path.insert(0, sys.argv[1])
        sys.modules["networkx"] = None
        import numpy as np
        from repro import KnnResult
        from repro.errors import ConfigurationError
        from repro.trees import knn_graph
        try:
            knn_graph(KnnResult(np.zeros((1, 1)), np.zeros((1, 1), dtype=int)))
        except ConfigurationError as exc:
            assert "graph" in str(exc), exc
        else:
            raise SystemExit("no ConfigurationError")
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(SRC)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
