"""Smoke test of scripts/bench.py on a coarse grid and a short run."""

import json


def test_bench_script_writes_rows(checkout_python, tmp_path):
    proc = checkout_python(["scripts/bench.py", "--pr", "0", "--grid", "16",
                            "--seconds", "0.5", "--out", str(tmp_path)])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads((tmp_path / "BENCH_0.json").read_text())
    assert set(report["workloads"]) == {"trough-curved", "store-query"}
    for name, rows in report["workloads"].items():
        e2e = rows["end_to_end"]
        assert e2e["failed"] == 0 and e2e["attempted"] >= 3, name
        assert e2e["untraced_wall_s"]["unit"] == "s" and e2e["untraced_wall_s"]["value"] > 0
        assert rows["layers"]["geometry.fundamental_forms.calls"]["value"] > 0, name
    # one chart evaluation per trough run, whose later steps read the patch's
    # chart memo; none on a flat support
    trough = report["workloads"]["trough-curved"]["layers"]
    assert trough["support.chart_frames.calls"]["value"] == 1
    assert trough["geometry.fundamental_forms.calls"]["value"] > 1
    assert 0 < trough["support.chart_frames.share_of_fundamental_forms"]["value"] < 1
    store = report["workloads"]["store-query"]["layers"]
    assert store["support.chart_frames.calls"]["value"] == 0
    # each repetition saves one trajectory: 21 snapshot OBJs and, after the
    # reload, the rescaled frame; the analytic series integrates 21 snapshots
    assert store["io.save_trajectory.calls"]["value"] == 1
    assert store["io.write_obj.calls"]["value"] == 22
    assert store["analytic.AnalyticSurface.integral.calls"]["value"] == 21
    assert trough["io.save_trajectory.calls"]["value"] == 1
    assert trough["io.write_obj.calls"]["value"] >= 1
    assert trough["analytic.AnalyticSurface.integral.calls"]["value"] == 0
    for layer in ("io.write_obj", "io.save_trajectory"):
        for rows in (store, trough):
            assert rows[f"{layer}.ms_per_call"]["value"] > 0, layer
            assert rows[f"{layer}.ms_per_call"]["unit"] == "ms", layer
    assert store["analytic.AnalyticSurface.integral.ms_per_call"]["value"] > 0
    # the trough's RKL2 stages take Euler sub-steps, no explicit `step` (the step rows
    # below time it); the store run queries two densities from `fbmcf monitor` and
    # one analytic series, and scans once
    assert trough["flow.step.calls"]["value"] == 0
    # `fbmcf monitor` evaluates its two density series through monotonicity_reports
    # in one pass, so the traced monotonicity_report is the analytic series alone
    assert store["monitors.singular_set_scan.calls"]["value"] == 1
    assert store["monitors.monotonicity_report.calls"]["value"] == 1
    assert store["monitors.monotonicity_report.ms_per_call"]["value"] > 0
    # one fresh-process stride-1 run per t_end, on the same grid
    memory = report["run_memory"]
    assert [row["t_end"]["value"] for row in memory] == [0.0173, 0.0692, 0.1384]
    units = {"t_end": "sim_t", "steps": "count", "peak_rss_mb": "MB", "wall_s": "s"}
    for row in memory:
        assert {key: row[key]["unit"] for key in units} == units
        assert all(row[key]["value"] > 0 for key in units)
    steps = [row["steps"]["value"] for row in memory]
    assert steps == sorted(steps) and steps[0] < steps[-1]
    # one run per support to t_end 0.01: each step takes at least two stages, every
    # stage calls the flow operator once, and every step and the initial surface build
    # one geometry
    scheme = report["scheme"]
    assert [row["phi"] for row in scheme] == ["sphere_cap:2", "paraboloid:0.5"]
    for row in scheme:
        assert row["grid"] == {"value": 16, "unit": "1/h"}
        steps, stages = row["steps"]["value"], row["stages"]["value"]
        assert steps > 0 and stages >= 2 * steps
        assert row["geometry_builds"] == {"value": steps + 1, "unit": "count"}
        assert row["operator_calls"] == {"value": stages, "unit": "count"}
        assert row["wall_s"]["unit"] == "s" and row["wall_s"]["value"] > 0
    # in-process timings and page faults on each support, at half, once and twice the
    # grid's 1/h: of the chart kernel, of the difference quotients and the flow operator
    # against the whole kernel, and of one explicit step
    for section, keys in (("chart_kernel", ("chart_frames", "fundamental_forms")),
                          ("operator", ("derivative_planes", "operator", "fundamental_forms")),
                          ("step", ("step",))):
        kernel = report[section]
        assert [row["phi"] for row in kernel] == ["flat", "paraboloid:0.5", "sphere_cap:2"] * 3
        assert [row["grid"]["value"] for row in kernel] == [8] * 3 + [16] * 3 + [32] * 3
        for row in kernel:
            for key in keys:
                ms, faults = row[f"{key}_ms"], row[f"{key}_faults"]
                assert ms["unit"] == "ms" and ms["value"] > 0, (section, row["phi"], key)
                assert faults["unit"] == "count" and faults["value"] >= 0, (section, row["phi"], key)
    # a fresh-process trough run after a sphere-cap phase: faults per step
    faults = report["run_faults"]
    assert faults["grid"]["value"] == 16 and faults["steps"]["value"] > 0
    assert faults["stages"]["value"] >= 2 * faults["steps"]["value"]
    for key in ("faults_per_step", "faults_per_stage"):
        assert faults[key]["unit"] == "count" and faults[key]["value"] >= 0
    assert faults["sphere_cap_faults_per_call"]["value"] >= 0
    # fresh-process `fbmcf monitor` runs on the stored 21-snapshot run, alternating the
    # workload's query file and its copy with a wider scan
    monitor = report["monitor_memory"]
    assert [row["scan_r_grid"] for row in monitor] == [[0.1, 0.15, 0.2], [0.05, 0.2]] * 3
    units = {"snapshots": "count", "peak_rss_mb": "MB", "wall_s": "s"}
    for row in monitor:
        assert {key: row[key]["unit"] for key in units} == units
        assert row["snapshots"]["value"] == 21
        assert row["peak_rss_mb"]["value"] > 0 and row["wall_s"]["value"] > 0
    # in-process scan timings and traced peaks at four shapes
    scans = report["scan_kernel"]
    assert [row["r_grid"] for row in scans] == [[0.1, 0.15, 0.2], [0.05, 0.2], [0.05, 0.4],
                                                [0.1, 0.15, 0.2]]
    assert [row["grid"]["value"] for row in scans] == [16, 16, 8, 8]
    for row in scans:
        assert row["grid"]["unit"] == "1/h" and row["candidates"]["unit"] == "count"
        assert row["scan_ms"]["unit"] == "ms" and row["scan_ms"]["value"] > 0
        assert row["scan_peak_mb"]["unit"] == "MB" and row["scan_peak_mb"]["value"] > 0
    # in-process save_trajectory timings on each workload's trajectory and on a
    # sphere-cap run, at half, once and twice the grid's 1/h, with the chart
    # evaluations of one save
    writer = report["writer"]
    assert [row["trajectory"] for row in writer] == ["trough-curved", "store-query",
                                                     "sphere_cap:2"] * 3
    assert [row["grid"]["value"] for row in writer] == [8] * 3 + [16] * 3 + [32] * 3
    for row in writer:
        assert row["grid"]["unit"] == "1/h" and row["snapshots"]["unit"] == "count"
        assert row["save_trajectory_ms"]["unit"] == "ms" and row["save_trajectory_ms"]["value"] > 0
        assert row["chart_frames"]["unit"] == "count"
    snapshots = [row["snapshots"]["value"] for row in writer]
    assert snapshots == [7, 21, 7] * 3
    # the flat and memoised trough charts are not evaluated to write a file; the
    # sphere cap's, which no memo keeps, once per snapshot, as none holds its geometry
    assert [row["chart_frames"]["value"] for row in writer] == [0, 0, 7] * 3
    # in-process density timings on the store-query workload's last snapshot, at
    # half, once and twice the grid's 1/h, and of its analytic hemisphere series
    density = report["density"]
    assert [row["grid"]["value"] for row in density] == [8, 16, 32]
    for row in density:
        assert row["grid"]["unit"] == "1/h"
        for key in ("interior_density_value_ms", "boundary_density_value_ms"):
            assert row[key]["unit"] == "ms" and row[key]["value"] > 0, key
    series = report["analytic_series"]
    assert series["snapshots"] == {"value": 21, "unit": "count"}
    assert series["series_ms"]["unit"] == "ms" and series["series_ms"]["value"] > 0
