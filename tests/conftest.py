import gc
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from fbmcf import geometry

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


class GeometryLog:
    """Stands in for `geometry.fundamental_forms`: counts its builds in `builds` and keeps a
    weak reference to each geometry it builds and, with the build's number, to the surface
    it was built for.  A reference is dropped once what it names is gone, so the log grows
    with the surfaces a run keeps, not with its kernel calls.  With `exclusive` set, a build
    that starts while an earlier logged geometry is alive fails."""

    def __init__(self, real):
        self.real, self.builds, self.geometries, self.surfaces = real, 0, [], []
        self.exclusive = False

    def __call__(self, surface):
        if self.exclusive:
            assert self.alive() == 0, "a build started while another geometry was alive"
        g = self.real(surface)
        self.geometries = [ref for ref in self.geometries if ref() is not None]
        self.geometries.append(weakref.ref(g))
        self.surfaces = [(k, ref) for k, ref in self.surfaces if ref() is not None]
        self.surfaces.append((self.builds, weakref.ref(surface)))
        self.builds += 1
        return g

    def alive(self):
        """How many logged geometries outlive a garbage collection."""
        gc.collect()
        return sum(ref() is not None for ref in self.geometries)

    def built_for(self, surfaces):
        """The index in surfaces of each logged build of one of them, in build order."""
        index = {id(s): k for k, s in enumerate(surfaces)}
        return [index[id(ref())] for _, ref in self.surfaces if id(ref()) in index]


@pytest.fixture
def geometry_log(monkeypatch):
    """A GeometryLog in place of `geometry.fundamental_forms` for one test."""
    log = GeometryLog(geometry.fundamental_forms)
    monkeypatch.setattr(geometry, "fundamental_forms", log)
    return log
