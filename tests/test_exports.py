"""Every exported name resolves, so a deletion cannot leave a stale export behind."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import hydrodisc

MODULES = ["hydrodisc"] + [
    f"hydrodisc.{info.name}" for info in pkgutil.iter_modules(hydrodisc.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


def test_failure_classes_are_defined_once_in_specfun():
    """Both failure classes live in specfun; the package exports those same classes."""
    assert hydrodisc.AccuracyError is hydrodisc.specfun.AccuracyError
    assert hydrodisc.ConvergenceError is hydrodisc.specfun.ConvergenceError
    for name in set(MODULES) - {"hydrodisc", "hydrodisc.specfun"}:
        exported = set(getattr(importlib.import_module(name), "__all__", ()))
        assert not exported & {"AccuracyError", "ConvergenceError"}, name


def test_library_does_not_import_scipy_optimize():
    """The package, its CLI and its acceptance battery load no scipy.optimize module."""
    code = (
        "import sys, hydrodisc, hydrodisc.cli, hydrodisc.acceptance\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))"
    )
    src = os.path.dirname(os.path.dirname(hydrodisc.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_readme_library_example_runs(capsys):
    """The python block under README's "## Library" heading runs and prints its two lines."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(block, f"{readme}:Library", "exec"), {})
    first, second = capsys.readouterr().out.splitlines()
    energy, cr_pos, cr_mom = map(float, first.split())
    assert energy < 0.0 < min(cr_pos, cr_mom)
    assert second.startswith("FreeMeasures(")
