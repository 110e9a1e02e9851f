"""Acceptance gate: every numbered criterion must pass.

Each test prints one line of the form

    criterion N PASS: <name> -- <detail>

so the full pass/fail table is visible in the pytest output.
"""

import pytest

from fbmcf import geometry
from fbmcf.acceptance import CRITERIA, _sphere_run, criterion_3, criterion_10, run_all


@pytest.fixture(scope="module")
def results():
    out = run_all()
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


def test_criterion_10_fails_on_one_sided_edge_rows(monkeypatch):
    # one-sided y2 = 0 rows of d2, d22 and d12 in place of the ghost row: the flow no
    # longer holds its Neumann edge, and the edge residual stops falling with h
    planes = geometry._derivative_planes

    def one_sided(U, h, out=None):
        du, d2u = planes(U, h, out=out)
        d1 = du[0]
        du[1, :, 0] = (-3 * U[:, 0] + 4 * U[:, 1] - U[:, 2]) / (2 * h)
        d2u[1, 1, :, 0] = (2 * U[:, 0] - 5 * U[:, 1] + 4 * U[:, 2] - U[:, 3]) / h**2
        d2u[0, 1, :, 0] = d2u[1, 0, :, 0] = (-3 * d1[:, 0] + 4 * d1[:, 1] - d1[:, 2]) / (2 * h)
        return du, d2u

    monkeypatch.setattr(geometry, "_derivative_planes", one_sided)
    passed, detail = criterion_10()
    assert not passed and "control = 0.400000" in detail, detail
