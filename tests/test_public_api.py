"""Public-API hygiene: __all__ consistency and import surface."""

import importlib
import re
from pathlib import Path

import pytest

PACKAGES = [
    "repro",
    "repro.topology",
    "repro.cluster",
    "repro.mapreduce",
    "repro.core",
    "repro.schedulers",
    "repro.simulator",
    "repro.experiments",
    "repro.analysis",
    "repro.obs",
    "repro.faults",
    "repro.workload",
    "repro.speculation",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_resolve(name):
    """Every name a package exports in __all__ must actually exist."""
    module = importlib.import_module(name)
    assert hasattr(module, "__all__"), f"{name} lacks __all__"
    for symbol in module.__all__:
        assert hasattr(module, symbol), f"{name}.{symbol} missing"


@pytest.mark.parametrize("name", PACKAGES)
def test_docstrings_present(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} lacks a module docstring"


def test_version_string():
    import repro

    parts = repro.__version__.split(".")
    assert len(parts) == 3
    assert all(p.isdigit() for p in parts)
    # A regex, not tomllib: the package still supports Python 3.10.
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    declared = re.search(
        r'^version\s*=\s*"([^"]+)"', pyproject.read_text(), re.MULTILINE
    )
    assert declared is not None, "pyproject.toml declares no version"
    assert declared.group(1) == repro.__version__


def test_scheduler_factory_covers_cli_choices():
    """Every scheduler the CLI offers must be constructible."""
    from repro.schedulers import SCHEDULERS, make_scheduler

    for name in SCHEDULERS:
        scheduler = make_scheduler(name, seed=0)
        assert scheduler is not None


def test_no_private_leaks_in_all():
    for name in PACKAGES:
        module = importlib.import_module(name)
        for symbol in module.__all__:
            if symbol.startswith("__") and symbol.endswith("__"):
                continue  # dunders like __version__ are fine
            assert not symbol.startswith("_"), f"{name} exports private {symbol}"
