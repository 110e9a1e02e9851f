"""Every scenario in scenarios/ runs to completion under this checkout's CLI."""

import json
from pathlib import Path

import pytest
import yaml

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
# run scenarios are mappings; a query file such as density_queries.yaml is a list
RUNS = sorted(p.name for p in SCENARIOS.glob("*.yaml")
              if isinstance(yaml.safe_load(p.read_text()), dict))


def test_scenarios_found():
    assert {"equatorial_disk.yaml", "shrinking_sphere.yaml", "trough_tilted.yaml"} <= set(RUNS)


@pytest.mark.parametrize("name", RUNS)
def test_scenario_runs(name, tmp_path, checkout_python):
    out = tmp_path / "out"
    proc = checkout_python(["-m", "fbmcf.cli", "run", f"scenarios/{name}", "--out", str(out)])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(out / "trajectory.json") as fh:
        assert json.load(fh)["stop_reason"] == "completed"


def test_density_queries_run_on_shrinking_sphere(tmp_path, checkout_python):
    out = tmp_path / "sphere"
    proc = checkout_python(["-m", "fbmcf.cli", "run", "scenarios/shrinking_sphere.yaml",
                            "--out", str(out)])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    proc = checkout_python(["-m", "fbmcf.cli", "monitor", str(out),
                            "scenarios/density_queries.yaml"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for name in ("density_origin.csv", "scan_hotspots.csv"):
        assert (out / name).stat().st_size > 0, name
