"""Every script in demos/ runs to completion against this checkout."""

from pathlib import Path

import pytest

DEMOS = sorted(p.name for p in (Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4, DEMOS


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, checkout_python):
    proc = checkout_python([f"demos/{name}"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip(), proc.stderr
