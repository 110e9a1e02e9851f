import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _checkout_python(args):
    # Run the child from this checkout with the interpreter running the
    # tests, and put this checkout's src first on its path, so that no
    # installed copy of fbmcf is needed.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          cwd=ROOT, env=env, timeout=600)


@pytest.fixture
def checkout_python():
    """Runs `python <args>` against this checkout; returns the CompletedProcess."""
    return _checkout_python
