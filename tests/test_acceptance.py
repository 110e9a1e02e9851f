"""Acceptance gate: every numbered criterion must pass.

Each test prints one line of the form

    criterion N PASS: <name> -- <detail>

so the full pass/fail table is visible in the pytest output.
"""

import pytest

from fbmcf.acceptance import CRITERIA, _sphere_run, criterion_3, run_all


@pytest.fixture(scope="module")
def results():
    out = run_all(fast=False)
    return {r["criterion"]: r for r in out}


@pytest.mark.parametrize("num,name", [(n, name) for n, name, _ in CRITERIA],
                         ids=[f"criterion_{n:02d}" for n, _, _ in CRITERIA])
def test_criterion(results, num, name, capsys):
    r = results[num]
    verdict = "PASS" if r["passed"] else "FAIL"
    with capsys.disabled():
        print(f"\ncriterion {num} {verdict}: {name} -- {r['detail']}")
    assert r["passed"], f"criterion {num} ({name}): {r['detail']}"


def test_criterion_3_keeps_no_geometry_on_the_cached_run(geometry_log):
    # criterion 3 reads the geometry of every snapshot of the cached sphere run;
    # a stored snapshot keeps only its heights, so at most the last geometry
    # read outlives the criterion
    snaps = _sphere_run(64, 0.02, 5).snapshots
    built = geometry_log.builds
    assert criterion_3()[0]
    assert len(snaps) > 2 and geometry_log.builds - built >= len(snaps) - 1
    assert geometry_log.alive() <= 1
