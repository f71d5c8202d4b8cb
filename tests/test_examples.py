"""Every runnable example exits cleanly with the invariant checker on.

The examples import public names from across the package, so a rename or
deletion that breaks one fails here rather than going unnoticed.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_found():
    assert EXAMPLES, "no examples/*.py found"


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script, tmp_path):
    # cwd is a scratch dir: some examples write their artefacts next to it.
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env={"PYTHONPATH": str(ROOT / "src"), "REPRO_CHECK_INVARIANTS": "1"},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
