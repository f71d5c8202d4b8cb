"""Every backticked ``repro.…`` name in the prose docs must resolve.

A doc pointer to a deleted or renamed module, class or function fails
here.  A name resolves when its longest importable prefix imports and the
rest is reachable by ``getattr``; a dataclass field without a default (no
class attribute) counts as the last component.
"""

import dataclasses
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    ROOT / "EXPERIMENTS.md",
    *sorted((ROOT / "docs").glob("*.md")),
]
# The dotted prefix of an inline code span that starts with ``repro.``;
# whatever follows it inside the span (``()``, ``/bcube``, ``.*``) is ignored.
NAME = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)[^`\n]*`")
NAMES = sorted({m.group(1) for doc in DOCS for m in NAME.finditer(doc.read_text())})


def resolves(name: str) -> bool:
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
            break
        except ModuleNotFoundError:
            continue
    rest = parts[cut:]
    for i, attr in enumerate(rest):
        if hasattr(obj, attr):
            obj = getattr(obj, attr)
        elif i == len(rest) - 1 and dataclasses.is_dataclass(obj):
            return attr in {f.name for f in dataclasses.fields(obj)}
        else:
            return False
    return True


def test_docs_reference_the_package():
    assert NAMES, "no backticked repro.* names found in the docs"


@pytest.mark.parametrize("name", NAMES)
def test_doc_reference_resolves(name):
    assert resolves(name), f"{name} is cited in the docs but does not resolve"
