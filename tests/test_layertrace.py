"""The benchmark's layer tracer still wraps names the package defines."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Runs in a fresh interpreter: Tracer.install() patches the package's
# modules for good.
SCRIPT = r"""
import inspect, json, sys
import stellar_match.cli
from stellar_match import tov
from stellar_match.eos import EosSpec
import layertrace

owners = [m for name, m in sorted(sys.modules.items())
          if name.startswith("stellar_match")]
owners += [c for m in list(owners) for c in vars(m).values()
           if inspect.isclass(c) and c.__module__.startswith("stellar_match")]
before = [dict(vars(o)) for o in owners]
tracer = layertrace.Tracer()
tracer.install()
wrapped, problems = [], []
for owner, old in zip(owners, before):
    for name, value in vars(owner).items():
        if name in old and value is old[name]:
            continue
        label = "%s.%s" % (owner.__name__, name)
        wrapped.append(label)
        if name not in old:
            problems.append(label + " did not exist")
        elif getattr(value, "__wrapped__", None) is not old[name]:
            problems.append(label + " is not a wrapper of the original")
tov.shoot_from_center(EosSpec(2.0, c_light=1.0, lambda_coeffs=(0.2, -0.1)), 1e-3)
# Shots through the wrapped names the commands call, so their spans count
# the solves and the steps of each tov._solve result.
import stellar_match.matching as matching
rel53 = EosSpec(5.0 / 3.0, c_light=1.0)
surface, _ = matching.shoot_from_center(rel53, 1e-4)
matching.shoot_from_boundary(rel53, surface.radius, surface.mass)
matching.shoot_from_center(EosSpec(2.0, c_light=1.0, lambda_coeffs=(0.2, -0.1)), 2e-3)
shots = [{k: sp["attrs"].get(k, 0) for k in ("solves", "steps")}
         for sp in tracer.spans if sp["name"] in ("tov.fwd", "tov.inward")]
metrics = tracer.metrics(0.0)["metrics"]
# A scan through the name the match command calls: 9 grid shots, then
# refinement levels of 8 and more midpoints, the larger ones run as lanes.
grid = matching.LogGrid(1e-4, 1e-2, 4)
curves = stellar_match.cli.scan_components(rel53, grid)
sagitta = [sp["attrs"]["kept"] for sp in tracer.spans
           if sp["name"] == "matching.sagitta"]
print(json.dumps({"wrapped": wrapped, "problems": problems,
                  "hot": {k: v[0] for k, v in tracer.hot.items()},
                  "shots": shots, "metrics": metrics, "sagitta": sagitta,
                  "grid": len(grid.values()),
                  "vertices": [len(c.points) for c in curves]}))
"""


@pytest.fixture(scope="module")
def traced():
    path = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    path += [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_layertrace_wraps_existing_attributes(traced):
    got = traced
    assert got["problems"] == []
    for name in ("stellar_match.tov.tov_rhs", "stellar_match.tov._solve",
                 "EosSpec.enthalpy_of_pressure", "stellar_match.cli.main"):
        assert name in got["wrapped"]
    # A forward shot goes through the wrapped right-hand side and EOS
    # conversions, so the counters of a traced run are not silently zero.
    assert got["hot"]["tov.rhs"] > 0
    assert got["hot"]["eos.conv"] > 0
    # Each tov._solve result exposes its accepted steps as `t`, with more
    # than the start point, so the step counters are not silently zero
    # either: two forward shots (one lambda-EOS) and one inward shot.
    assert len(got["shots"]) == 3
    for shot in got["shots"]:
        assert shot["solves"] >= 1
        assert shot["steps"] > shot["solves"]
    for name in ("tov.fwd.steps", "tov.inward.steps", "tov.rhs.calls"):
        assert got["metrics"][name] > 0


def test_layertrace_sees_the_batched_scan(traced):
    # The scan's refinement runs level by level, with the larger levels as
    # lanes, behind the same two wrapped names; the sagitta span still
    # counts the vertices it adds.
    for name in ("stellar_match.matching._refine_sagitta",
                 "stellar_match.cli.scan_components"):
        assert name in traced["wrapped"]
    [kept] = traced["sagitta"]
    [vertices] = traced["vertices"]
    assert kept > 0
    assert kept == vertices - traced["grid"]
