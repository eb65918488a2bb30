"""Outside-in layer tracing for the benchmark's traced runs.

``Tracer.install`` replaces the module attributes each caller looks up
with timing wrappers, so nothing in ``src/`` changes.  Calls that happen
a few hundred times per command become spans (name, start, end, parent,
run id), kept in memory and written out at the end.  Calls that happen
hundreds of thousands of times (the TOV right-hand side, profile lookups,
EOS conversions) only add to a call count and a time total, which is
charged to the enclosing span as child time.  A span's self time is its
duration minus that child time and the durations of its child spans.
"""

import functools
import json
import os
import time

import numpy as np

import stellar_match.cli as cli
import stellar_match.lane_emden as lane_emden
import stellar_match.matching as matching
import stellar_match.surface_fit as surface_fit
import stellar_match.tov as tov
from stellar_match.eos import EosSpec

EOS_CONVERSIONS = (
    "density_of_pressure",
    "enthalpy_of_pressure",
    "density_of_enthalpy",
    "pressure_of_enthalpy",
)
CASES = ("case00", "case01", "case10", "case11", "none")
# Prefix of a span or counter name -> layer (module) it belongs to.
LAYERS = ("cli", "matching", "tov", "eos", "lane_emden", "distortion", "surface_fit", "reports")


def _pct_ms(durations, q):
    return float(np.percentile(durations, q)) * 1e3 if durations else 0.0


class Tracer:
    def __init__(self):
        self.spans = []
        self.hot = {}
        self._stack = []
        self._next_id = 0
        self._run = 0

    # -- spans -------------------------------------------------------------

    def _open(self, name):
        frame = {
            "id": self._next_id,
            "name": name,
            "run": self._run,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": time.perf_counter(),
            "child_s": 0.0,
            "attrs": {},
        }
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame):
        frame["end"] = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1]["child_s"] += frame["end"] - frame["start"]
        self.spans.append(frame)

    def _span(self, name, fn, before=None, after=None):
        """Wrap fn in a span.  before(args) -> state; after(attrs, args,
        result, state) records attributes once the span has closed."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:
                self._run += 1
            state = before(args) if before else None
            frame = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                frame["attrs"]["error"] = type(exc).__name__
                raise
            finally:
                self._close(frame)
            if after:
                after(frame["attrs"], args, result, state)
            return result

        return wrapper

    def _counted(self, name, fn, outermost=False):
        """Count calls and time without a span.  With ``outermost``, calls
        made from inside another call of the same counter pass straight
        through, so nested conversions are neither counted nor timed twice."""
        stats = self.hot.setdefault(name, [0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if outermost and stats[2]:
                return fn(*args, **kwargs)
            stats[2] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stats[2] -= 1
                stats[0] += 1
                stats[1] += dt
                if stack:
                    stack[-1]["child_s"] += dt

        return wrapper

    def _steps(self, fn):
        """Integrations and their accepted steps, charged to the open shot span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sol = fn(*args, **kwargs)
            if self._stack:
                attrs = self._stack[-1]["attrs"]
                attrs["solves"] = attrs.get("solves", 0) + 1
                attrs["steps"] = attrs.get("steps", 0) + len(sol.t) - 1
            return sol

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        def sweep_after(attrs, args, report, state):
            attrs["count"] = report.summary["count"]

        def sagitta_before(args):
            return len(args[1])

        def sagitta_after(attrs, args, result, before):
            attrs["kept"] = len(args[1]) - before

        def inward_after(attrs, args, result, state):
            attrs["case"] = result[0].case or "none"

        def fit_after(attrs, args, fit, state):
            attrs["iterations"] = fit.iterations

        def write_after(attrs, args, result, state):
            attrs["bytes"] = os.path.getsize(args[0])

        s = self._span
        plan = [
            (cli, "main", s("cli.main", cli.main)),
            (cli, "load_config", s("cli.load_config", cli.load_config)),
            (cli, "scan_components", s("matching.scan", cli.scan_components)),
            (cli, "ae_failure_sweep", s("matching.sweep", cli.ae_failure_sweep, after=sweep_after)),
            (matching, "_refine_sagitta",
             s("matching.sagitta", matching._refine_sagitta, sagitta_before, sagitta_after)),
            (matching, "shoot_from_center", s("tov.fwd", matching.shoot_from_center)),
            (matching, "shoot_from_boundary",
             s("tov.inward", matching.shoot_from_boundary, after=inward_after)),
            (matching, "distance_to_curves",
             self._counted("matching.distance", matching.distance_to_curves)),
            (tov, "tov_rhs", self._counted("tov.rhs", tov.tov_rhs)),
            (tov, "_solve", self._steps(tov._solve)),
            (lane_emden, "solve", s("lane_emden.solve", lane_emden.solve)),
            (lane_emden.LaneEmdenSolution, "theta_at",
             self._counted("lane_emden.theta_at", lane_emden.LaneEmdenSolution.theta_at)),
            (cli, "solve_distortion", s("distortion.solve", cli.solve_distortion)),
            (surface_fit, "level_surface",
             s("distortion.level_surface", surface_fit.level_surface)),
            (cli, "fit_ellipsoid", s("surface_fit.fit", cli.fit_ellipsoid, after=fit_after)),
            (surface_fit, "fit_ellipsoid",
             s("surface_fit.fit", surface_fit.fit_ellipsoid, after=fit_after)),
            (cli, "stratification_report",
             s("surface_fit.stratification", cli.stratification_report)),
        ]
        for name in ("write_json", "write_jsonl", "write_table"):
            plan.append((cli, name, s("reports.write", getattr(cli, name), after=write_after)))
        for name in EOS_CONVERSIONS:
            plan.append((EosSpec, name,
                         self._counted("eos.conv", getattr(EosSpec, name), outermost=True)))
        for owner, attr, wrapper in plan:
            setattr(owner, attr, wrapper)

    # -- results -----------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sp in sorted(self.spans, key=lambda sp: sp["id"]):
                rec = {k: sp[k] for k in ("id", "name", "run", "parent", "start", "end")}
                rec["self_s"] = sp["end"] - sp["start"] - sp["child_s"]
                rec.update(sp["attrs"])
                fh.write(json.dumps(rec, sort_keys=True) + "\n")

    def metrics(self, cpu_s):
        """Per-layer metrics of everything traced so far, plus the self
        time of each layer, which together cover the traced commands."""
        by_id = {sp["id"]: sp for sp in self.spans}

        def named(name):
            return [sp for sp in self.spans if sp["name"] == name]

        def under(sp, ancestor):
            parent = sp["parent"]
            while parent is not None:
                if by_id[parent]["name"] == ancestor:
                    return True
                parent = by_id[parent]["parent"]
            return False

        def dur(sp):
            return sp["end"] - sp["start"]

        def self_s(sp):
            return dur(sp) - sp["child_s"]

        def total(spans, key=None):
            return float(sum(sp["attrs"].get(key, 0) if key else dur(sp) for sp in spans))

        def hot(name):
            calls, seconds, _depth = self.hot.get(name, (0, 0.0, 0))
            return calls, seconds

        fwd, inward = named("tov.fwd"), named("tov.inward")
        scans, sweeps, sagitta = named("matching.scan"), named("matching.sweep"), named("matching.sagitta")
        fits, writes = named("surface_fit.fit"), named("reports.write")
        levels = named("distortion.level_surface")
        eos_calls, eos_s = hot("eos.conv")
        rhs_calls, rhs_s = hot("tov.rhs")
        dist_calls, _ = hot("matching.distance")
        shot_s = total(fwd) + total(inward)
        sagitta_tried = sum(1 for sp in fwd if under(sp, "matching.sagitta"))
        out = {
            "eos.conv.calls": eos_calls,
            "eos.conv.s": eos_s,
            "tov.rhs.calls": rhs_calls,
            "tov.rhs.us": rhs_s / rhs_calls * 1e6 if rhs_calls else 0.0,
            "tov.rhs.share": rhs_s / shot_s if shot_s else 0.0,
            "tov.fwd.calls": len(fwd),
            "tov.fwd.p50_ms": _pct_ms([dur(sp) for sp in fwd], 50),
            "tov.fwd.p90_ms": _pct_ms([dur(sp) for sp in fwd], 90),
            "tov.fwd.steps": int(total(fwd, "steps")),
        }
        for case in CASES:
            got = [dur(sp) for sp in inward if sp["attrs"].get("case", "none") == case]
            out["tov.inward.%s.calls" % case] = len(got)
            out["tov.inward.%s.p50_ms" % case] = _pct_ms(got, 50)
            out["tov.inward.%s.p90_ms" % case] = _pct_ms(got, 90)
        out.update({
            "tov.inward.solves": int(total(inward, "solves")),
            "tov.inward.steps": int(total(inward, "steps")),
            "matching.scan.s": total(scans),
            "matching.scan.shots": sum(1 for sp in fwd if under(sp, "matching.scan")),
            "matching.scan.sagitta_kept":
                total(sagitta, "kept") / sagitta_tried if sagitta_tried else 0.0,
            "matching.sweep.s": total(sweeps),
            "matching.sweep.self_s":
                total(sweeps) - total(sp for sp in inward if under(sp, "matching.sweep")),
            "matching.sampler.accept_ratio":
                total(sweeps, "count") / dist_calls if dist_calls else 0.0,
            "lane_emden.solve.s": total(named("lane_emden.solve")),
            "lane_emden.theta_at.calls": hot("lane_emden.theta_at")[0],
            "distortion.solve.s": total(named("distortion.solve")),
            "distortion.level_surface.calls": len(levels),
            "distortion.level_surface.s": total(levels),
            "surface_fit.fit.calls": len(fits),
            "surface_fit.fit.iterations": int(total(fits, "iterations")),
            "surface_fit.fit.s": total(fits),
            "surface_fit.stratification.self_s":
                float(sum(self_s(sp) for sp in named("surface_fit.stratification"))),
            "reports.write.calls": len(writes),
            "reports.write.s": total(writes),
            "reports.bytes": int(total(writes, "bytes")),
            "cli.load_config.s": total(named("cli.load_config")),
            "cli.self_s": float(sum(self_s(sp) for sp in named("cli.main"))),
            "proc.cpu_s": cpu_s,
        })
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for sp in self.spans:
            layer_self[sp["name"].split(".")[0]] += self_s(sp)
        for name, (_calls, seconds, _depth) in self.hot.items():
            layer_self[name.split(".")[0]] += seconds
        return {"metrics": out, "layer_self_s": layer_self}
