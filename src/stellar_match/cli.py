"""Command-line front end: configuration, batch commands, artifact files.

One YAML config file with nested sections drives every command; any value
can be overridden from the command line with repeatable
``--set section.key=value`` flags, plus shortcuts for the common ones
(--seed, --out, --format).  ``SCHEMA`` lists every key with its type,
bound and default.  Artifacts are CSV for anything plottable and canonical
JSON for scalars and reports; every file embeds the fully resolved config
and a content hash, so identical configs produce byte-identical outputs.

Exit codes: 0 on success (shot classifications and failure labels are
data, not errors), 1 on validity or admissibility violations and
infrastructure failures, 2 on malformed configuration.  Errors go to
stderr as one-line JSON objects.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import fields

import numpy as np
import yaml

from . import __version__, lane_emden
from .distortion import (
    FIRST_ORDER_ADVISORY_B,
    LEVEL_MARGIN,
    N_MIN,
    ZETA_GRID_POINTS,
    dimensional_scale,
    solve_distortion,
    surface_curve,
)
from .eos import EosSpec
from .errors import ConfigError, ShootFailureError, StellarMatchError
from .matching import (
    NEAR_DELTA_DEFAULT,
    SAMPLER_KINDS,
    SWEEP_COUNT_DEFAULT,
    LogGrid,
    SweepSampler,
    ae_failure_sweep,
    scan_components,
)
from .reports import sanitize, write_json, write_jsonl, write_table
from .surface_fit import (
    fit_ellipsoid,
    scaling_from_pairs,
    scaling_ladder_problem,
    stratification_report,
)
from .tov import ShootConfig, shoot_from_boundary, shoot_from_center

LOCK_NAME = ".stellar-match.lock"


# -- config schema ---------------------------------------------------------


def _fail(path, message):
    raise ConfigError("%s: %s" % (path, message))


def _bounded(v, path, bound, fmt):
    op, limit = bound
    if not (v > limit if op == ">" else v >= limit):
        _fail(path, ("must be %s " + fmt + ", got " + fmt) % (op, limit, v))
    return v


def _number(v, path, bound):
    if v is None:
        _fail(path, "value required")
    if isinstance(v, bool) or not isinstance(v, (int, float, str)):
        _fail(path, "expected a number, got %r" % (v,))
    try:
        # YAML 1.1 reads bare "1e-3" as a string; accept numeric strings.
        v = float(v)
    except (ValueError, OverflowError):
        _fail(path, "expected a number, got %r" % (v,))
    if not math.isfinite(v):
        _fail(path, "must be finite, got %r" % v)
    return v if bound is None else _bounded(v, path, bound, "%g")


def _integer(v, path, bound):
    if isinstance(v, str):
        try:
            v = int(v)
        except ValueError:
            _fail(path, "expected an integer, got %r" % (v,))
    if isinstance(v, bool) or not isinstance(v, int):
        _fail(path, "expected an integer, got %r" % (v,))
    return _bounded(v, path, bound, "%d")


def _numbers(v, path, bound):
    if not isinstance(v, (list, tuple)):
        _fail(path, "expected a list, got %r" % (v,))
    return [_number(x, "%s[%d]" % (path, i), bound) for i, x in enumerate(v)]


def _light_speed(v, path, bound):
    # The one non-finite value allowed anywhere: c = inf, nonrelativistic.
    if v is None or v == "inf" or v == math.inf:
        return "inf"
    return _number(v, path, bound)


def _choice(v, path, allowed):
    if v not in allowed:
        _fail(path, "must be one of %s, got %r" % (sorted(allowed), v))
    return v


def _choices(v, path, allowed):
    if not isinstance(v, (list, tuple)) or not v:
        _fail(path, "expected a nonempty list")
    return [_choice(x, path, allowed) for x in v]


def _path(v, path, bound):
    if not isinstance(v, str) or not v:
        _fail(path, "expected a nonempty path")
    return v


def _solver_keys():
    """One tov.* row per field of ShootConfig, default included: every
    field is a positive float (a tolerance or a scale factor)."""
    return tuple(("tov." + f.name, _number, (">", 0.0), f.default)
                 for f in fields(ShootConfig))


# Every settable value: (section.key, type rule, bound, default).  None is
# accepted exactly where the default is None.  Cross-field rules live in
# _validate_config.
SCHEMA = (
    ("eos.gamma", _number, (">", 1.0), 2.0),
    ("eos.A", _number, (">", 0.0), 1.0),
    ("eos.c", _light_speed, (">", 0.0), "inf"),
    ("eos.lambda", _numbers, None, []),
    ("eos.rho_max", _number, (">", 0.0), None),
    *_solver_keys(),
    ("sweep.p_lo", _number, (">", 0.0), 1e-5),
    ("sweep.p_hi", _number, (">", 0.0), 1e-2),
    ("sweep.per_decade", _number, (">=", 2.0), LogGrid.per_decade),
    ("sweep.seed", _integer, (">=", 0), SweepSampler.seed),
    ("sweep.count", _integer, (">=", 1), SWEEP_COUNT_DEFAULT),
    ("sweep.kind", _choice, SAMPLER_KINDS, SweepSampler.kind),
    ("sweep.min_distance", _number, (">", 0.0), SweepSampler.min_distance),
    ("sweep.near_delta", _number, (">", 0.0), NEAR_DELTA_DEFAULT),
    ("distortion.n", _number, (">=", N_MIN), None),
    ("distortion.rho_o", _number, (">", 0.0), 1.0),
    ("distortion.grav", _number, (">", 0.0), 1.0),
    ("distortion.b", _numbers, (">=", 0.0), [1e-4, 3.1623e-4, 1e-3, 3.1623e-3, 1e-2]),
    ("distortion.zeta_points", _integer, (">=", 5), ZETA_GRID_POINTS),
    ("distortion.levels", _numbers, None, [0.2, 0.5, 0.8]),
    ("distortion.level_margin", _number, (">", 0.0), LEVEL_MARGIN),
    ("output.directory", _path, None, "out"),
    ("output.formats", _choices, ("csv", "json"), ["csv", "json"]),
)


def _defaults():
    nested = {}
    for key, _rule, _bound, default in SCHEMA:
        section, name = key.split(".")
        nested.setdefault(section, {})[name] = default
    return nested


DEFAULT_CONFIG = _defaults()


# -- config loading --------------------------------------------------------


def _validate_config(data):
    unknown = set(data) - set(DEFAULT_CONFIG)
    if unknown:
        raise ConfigError(
            "unknown config section(s): %s" % ", ".join(sorted(map(str, unknown)))
        )
    for section, defaults in DEFAULT_CONFIG.items():
        given = data.get(section, {})
        if not isinstance(given, dict):
            _fail(section, "must be a mapping")
        bad = set(given) - set(defaults)
        if bad:
            _fail(section, "unknown key(s): %s" % ", ".join(sorted(map(str, bad))))

    merged = {section: {} for section in DEFAULT_CONFIG}
    for key, rule, bound, default in SCHEMA:
        section, name = key.split(".")
        value = data.get(section, {}).get(name, default)
        if not (value is None and default is None):
            value = rule(value, key, bound)
        merged[section][name] = value

    try:
        ShootConfig(**merged["tov"])
    except ValueError as exc:
        _fail("tov.r_floor_factor, tov.dr_factor", str(exc))
    s, d = merged["sweep"], merged["distortion"]
    if s["p_hi"] <= s["p_lo"]:
        _fail("sweep.p_hi", "must exceed sweep.p_lo")
    if not d["b"]:
        _fail("distortion.b", "expected a nonempty list")
    for lev in d["levels"]:
        if not (0.0 < lev < 1.0):
            _fail("distortion.levels", "levels must lie in (0, 1), got %g" % lev)
    # A stated polytropic index must agree with the one the EOS exponent
    # implies.
    if d["n"] is not None:
        derived = 1.0 / (merged["eos"]["gamma"] - 1.0)
        if abs(d["n"] - derived) > 1e-9 * max(1.0, derived):
            _fail(
                "distortion.n",
                "contradicts eos.gamma: n = %g but 1/(gamma-1) = %g"
                % (d["n"], derived),
            )
    return merged


def _put(data, section, key, value):
    given = data.setdefault(section, {})
    if not isinstance(given, dict):
        _fail(section, "must be a mapping")
    given[key] = value


def _apply_set(data, assignment):
    if "=" not in assignment:
        raise ConfigError("--set expects section.key=value, got %r" % assignment)
    target, raw = assignment.split("=", 1)
    parts = target.strip().split(".")
    if len(parts) != 2:
        raise ConfigError("--set expects section.key=value, got %r" % assignment)
    try:
        value = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        raise ConfigError("--set value %r is not parseable: %s" % (raw, exc))
    _put(data, *parts, value)


class RunConfig:
    """Validated run configuration with typed accessors."""

    def __init__(self, data):
        self.data = data

    def __getitem__(self, section):
        return self.data[section]

    def resolved(self):
        return sanitize(self.data)

    def eos_spec(self):
        e = self.data["eos"]
        c = math.inf if e["c"] == "inf" else float(e["c"])
        return EosSpec(gamma=e["gamma"], A=e["A"], c_light=c, lambda_coeffs=e["lambda"])

    def shoot_config(self):
        return ShootConfig(**self.data["tov"])

    def polytrope_n(self):
        """distortion.n, or else 1/(gamma - 1), held to the same bound."""
        d = self.data["distortion"]
        if d["n"] is not None:
            return d["n"]
        n = 1.0 / (self.data["eos"]["gamma"] - 1.0)
        if not n >= N_MIN:
            _fail(
                "eos.gamma",
                "implies n = 1/(gamma-1) = %g, but the surface pipeline "
                "needs n >= %g" % (n, N_MIN),
            )
        return n

    def table_format(self):
        return self.data["output"]["formats"][0]

    def out_dir(self):
        return self.data["output"]["directory"]


def load_config(path=None, sets=(), seed=None, out=None, fmt=None):
    """Load, override, and validate a run configuration.

    Resolution order for each value: file, then --set overrides, then the
    shortcut flags.
    """
    data = {}
    if path is not None:
        try:
            with open(path) as fh:
                data = yaml.safe_load(fh) or {}
        except OSError as exc:
            raise ConfigError("cannot read config file %s: %s" % (path, exc))
        except yaml.YAMLError as exc:
            raise ConfigError("config file %s is not valid YAML: %s" % (path, exc))
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    for assignment in sets:
        _apply_set(data, assignment)
    if seed is not None:
        _put(data, "sweep", "seed", seed)
    if out is not None:
        _put(data, "output", "directory", out)
    if fmt is not None:
        _put(data, "output", "formats", [fmt])
    return RunConfig(_validate_config(data))


# -- output plumbing -------------------------------------------------------


def _stale_lock(lock_path):
    """True if the lockfile is empty or holds the pid of a process that no
    longer exists.  ``output_lock`` gives the lock its name only after the
    pid is in it, so a lock with a live owner is never empty.  Any other
    content that is not a pid is never stale."""
    try:
        with open(lock_path) as fh:
            text = fh.read()
        if not text:
            return True
        pid = int(text)
        if pid <= 0 or os.name != "posix":
            return False
        os.kill(pid, 0)  # signal 0 delivers nothing: an existence check
    except ProcessLookupError:
        return True
    except (OSError, ValueError, OverflowError):
        return False
    return False


@contextmanager
def output_lock(directory):
    """Exclusive ownership of an output directory via a lockfile.  The pid
    is written to a temp file first and hard-linked into place, so the
    lock is never seen empty.  A lock left behind by a process that has
    died is taken over."""
    os.makedirs(directory, exist_ok=True)
    lock_path = os.path.join(directory, LOCK_NAME)
    tmp_path = "%s.%d.tmp" % (lock_path, os.getpid())
    with open(tmp_path, "w") as fh:
        fh.write("%d\n" % os.getpid())
    try:
        for attempt in range(2):
            try:
                os.link(tmp_path, lock_path)
                break
            except FileExistsError:
                if attempt or not _stale_lock(lock_path):
                    raise StellarMatchError(
                        "output directory %s is locked by another run (%s present)"
                        % (directory, LOCK_NAME)
                    )
                try:
                    os.unlink(lock_path)
                except FileNotFoundError:
                    pass
    finally:
        os.unlink(tmp_path)
    try:
        yield directory
    finally:
        try:
            os.unlink(lock_path)
        except OSError:
            pass


def _emit(obj, stream=None):
    print(json.dumps(sanitize(obj), sort_keys=True), file=stream or sys.stderr)


def _write_rows(cfg, out, stem, columns, rows):
    fmt = cfg.table_format()
    write_table(os.path.join(out, "%s.%s" % (stem, fmt)), columns, rows, cfg.resolved(), fmt)


# -- commands --------------------------------------------------------------


def cmd_eos_check(cfg):
    """Validate the EOS inequalities, report bounds, fail on a requested
    range the EOS cannot cover."""
    eos = cfg.eos_spec()
    requested = cfg["eos"]["rho_max"]
    error = None if requested is None else eos.requested_range_error(requested)
    report = {
        "eos": eos.describe(),
        "requested_rho_max": requested,
        "valid_on_requested_range": error is None,
        "config": cfg.resolved(),
    }
    with output_lock(cfg.out_dir()) as out:
        write_json(os.path.join(out, "eos_check.json"), report)
    print(
        "eos-check: valid for rho in (0, %g], binding constraint: %s"
        % (eos.rho_valid_max, eos.validity_binding)
    )
    if error is not None:
        raise error
    return 0


def _write_trajectory(cfg, out, stem, trajectory):
    rows = [list(map(float, row)) for row in trajectory.as_rows()]
    _write_rows(cfg, out, stem, ("r", "m", "P", "rho", "h", "F", "H"), rows)


def cmd_shoot_center(cfg, p_center):
    """Forward shot from a central pressure; writes the trajectory table
    and a boundary-data summary.  Guard exits are recorded as outcomes."""
    eos = cfg.eos_spec()
    with output_lock(cfg.out_dir()) as out:
        try:
            surface, trajectory = shoot_from_center(
                eos, p_center, config=cfg.shoot_config()
            )
        except ShootFailureError as exc:
            report = {
                "outcome": exc.label,
                "message": str(exc),
                "p_center": p_center,
                "config": cfg.resolved(),
            }
            write_json(os.path.join(out, "center_shot.json"), report)
            print("shoot-center: no surface reached (%s)" % exc.label)
            return 0
        report = {
            "outcome": "surface",
            "p_center": p_center,
            "radius": surface.radius,
            "mass": surface.mass,
            "compactness": surface.compactness,
            "g_surface": surface.g_surface,
            "config": cfg.resolved(),
        }
        write_json(os.path.join(out, "center_shot.json"), report)
        _write_trajectory(cfg, out, "center_shot_trajectory", trajectory)
    print(
        "shoot-center: R = %.12g, M = %.12g (P_c = %g)"
        % (surface.radius, surface.mass, p_center)
    )
    return 0


def cmd_shoot_boundary(cfg, radius, mass):
    """Inward shot from boundary data; writes the trajectory table and the
    four-case classification.  All classification outcomes exit 0."""
    eos = cfg.eos_spec()
    with output_lock(cfg.out_dir()) as out:
        cls, trajectory = shoot_from_boundary(
            eos, radius, mass, config=cfg.shoot_config()
        )
        report = {
            "radius": radius,
            "mass": mass,
            "case": cls.case,
            "exit": cls.exit,
            "r_exit": cls.r_exit,
            "m_exit": cls.m_exit,
            "p_exit": cls.p_exit,
            "p_center": cls.p_center,
            "diagnostics": cls.diagnostics,
            "config": cfg.resolved(),
        }
        write_json(os.path.join(out, "boundary_shot.json"), report)
        _write_trajectory(cfg, out, "boundary_shot_trajectory", trajectory)
    print(
        "shoot-boundary: case = %s, exit = %s"
        % (cls.case if cls.case else "none", cls.exit)
    )
    return 0


def cmd_match(cfg):
    """Scan matching curves, then sweep boundary data against them."""
    eos = cfg.eos_spec()
    s = cfg["sweep"]
    with output_lock(cfg.out_dir()) as out:
        curves = scan_components(
            eos,
            LogGrid(s["p_lo"], s["p_hi"], s["per_decade"]),
            config=cfg.shoot_config(),
        )
        curve_rows = []
        for curve in curves:
            curve_rows.extend(list(row) for row in curve.as_rows())
        _write_rows(cfg, out, "curves", ("P_O", "R", "M", "2M/R"), curve_rows)
        if not curves:
            summary = {
                "note": "no components found: every central pressure failed",
                "count": 0,
                "cases": {},
                "curves": [],
                "eos": eos.describe(),
                "config": cfg.resolved(),
            }
            write_jsonl(
                os.path.join(out, "sweep.jsonl"),
                {"kind": "sweep_samples", "config": cfg.resolved()},
                [],
            )
            write_json(os.path.join(out, "sweep_summary.json"), summary)
            print("match: no components; sweep skipped")
            return 0
        sampler = SweepSampler(
            kind=s["kind"], seed=s["seed"], min_distance=s["min_distance"]
        )
        report = ae_failure_sweep(
            eos,
            curves,
            sampler,
            count=s["count"],
            near_delta=s["near_delta"],
            config=cfg.shoot_config(),
        )
        write_jsonl(
            os.path.join(out, "sweep.jsonl"),
            {"kind": "sweep_samples", "config": cfg.resolved()},
            report.sample_rows(),
        )
        summary = dict(report.summary)
        summary["config"] = cfg.resolved()
        write_json(os.path.join(out, "sweep_summary.json"), summary)
    print(
        "match: %d component(s), %d sample(s), far Case11 count %d"
        % (len(curves), report.summary["count"], report.summary["far_case11_count"])
    )
    return 0


def cmd_surface(cfg):
    """Distortion pipeline: base profile, responses, surface curve, fits,
    residual scaling, and level stratification."""
    d = cfg["distortion"]
    n = cfg.polytrope_n()
    gamma = 1.0 + 1.0 / n
    b_values = d["b"]
    advisory = any(b > FIRST_ORDER_ADVISORY_B for b in b_values)
    if advisory:
        _emit(
            {
                "warning": "rotation parameter beyond first-order range",
                "b_max": max(b_values),
            }
        )
    base = lane_emden.solve(n)
    dist = solve_distortion(base)
    zeta = np.linspace(-1.0, 1.0, d["zeta_points"])
    # Level surfaces and the exported curve stay inside the first-order
    # range even when the requested ladder goes beyond it.
    b_ref = min(max(b_values), FIRST_ORDER_ADVISORY_B)
    curve = surface_curve(dist, b_ref, zeta)

    fits = []
    for b in b_values:
        sc = surface_curve(dist, b, zeta)
        fits.append(fit_ellipsoid(np.column_stack([sc.zeta, sc.values])))

    scaling = None
    scaling_note = None
    if scaling_ladder_problem(b_values) is None:
        scaling = scaling_from_pairs(
            [(b, fit.rms_residual) for b, fit in zip(b_values, fits)],
            roundoff_scale=dist.base.xi1,
        ).describe()
        scaling["slope_in_range"] = bool(abs(scaling["slope"] - 2.0) <= 0.1)
    else:
        scaling_note = (
            "residual scaling skipped: needs >= 4 increasing b in (0, %g] "
            "spanning two decades" % FIRST_ORDER_ADVISORY_B
        )

    strat = stratification_report(
        dist, b_ref, d["levels"], zeta=zeta, margin=d["level_margin"]
    )
    report = {
        "n": n,
        "gamma": gamma,
        "xi1": base.xi1,
        "mu1": base.mu1,
        "a2": dist.a2,
        "c0": curve.c0,
        "c1": curve.c1,
        "c2": curve.c2,
        "b_ref": b_ref,
        "b_max_requested": max(b_values),
        "first_order_advisory": advisory,
        "length_scale": dimensional_scale(d["rho_o"], cfg["eos"]["A"], gamma, d["grav"]),
        "fits": [{"b": b, "fit": fit.describe()} for b, fit in zip(b_values, fits)],
        "scaling": scaling,
        "scaling_note": scaling_note,
        "stratification": [
            {"theta_star": theta, "fit": fit.describe()} for theta, fit in strat
        ],
        "config": cfg.resolved(),
    }
    with output_lock(cfg.out_dir()) as out:
        write_json(os.path.join(out, "surface_report.json"), report)
        _write_rows(
            cfg, out, "surface_curve", ("zeta", "Xi1"), [list(row) for row in curve.as_rows()]
        )
        prof = dist.profile()
        _write_rows(
            cfg,
            out,
            "distortion_profile",
            ("xi", "h0", "psi2"),
            np.column_stack([prof["xi"], prof["h0"], prof["psi2"]]).tolist(),
        )
    slope_text = "%.4f" % scaling["slope"] if scaling else "skipped"
    print(
        "surface: n = %g, A2 = %.10g, c = (%.6g, %.6g, %.6g), slope = %s"
        % (n, dist.a2, curve.c0, curve.c1, curve.c2, slope_text)
    )
    return 0


# -- entry point -----------------------------------------------------------


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="YAML config file")
    common.add_argument("--out", metavar="DIR", help="output directory")
    common.add_argument("--seed", type=int, metavar="N", help="sweep RNG seed")
    common.add_argument("--format", choices=("csv", "json"), help="table format")
    common.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        dest="overrides",
        help="override one config value (repeatable)",
    )

    parser = argparse.ArgumentParser(
        prog="stellar-match",
        description="Matter-vacuum matching and rotating-surface analysis "
        "for polytropes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("eos-check", parents=[common], help="validate EOS inequalities")
    p_center = sub.add_parser(
        "shoot-center", parents=[common], help="forward shot from a central pressure"
    )
    p_center.add_argument("--p-center", type=float, required=True, metavar="P")
    p_boundary = sub.add_parser(
        "shoot-boundary", parents=[common], help="inward shot from boundary data"
    )
    p_boundary.add_argument("--radius", type=float, required=True, metavar="R")
    p_boundary.add_argument("--mass", type=float, required=True, metavar="M")
    sub.add_parser(
        "match", parents=[common], help="matching curves and the failure sweep"
    )
    sub.add_parser(
        "surface", parents=[common], help="distorted surface and ellipsoid fits"
    )
    sub.add_parser("version", help="print version and exit")
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "version":
        print(__version__)
        return 0
    try:
        cfg = load_config(
            path=args.config,
            sets=args.overrides,
            seed=args.seed,
            out=args.out,
            fmt=args.format,
        )
        if args.command == "eos-check":
            return cmd_eos_check(cfg)
        if args.command == "shoot-center":
            return cmd_shoot_center(cfg, args.p_center)
        if args.command == "shoot-boundary":
            return cmd_shoot_boundary(cfg, args.radius, args.mass)
        if args.command == "match":
            return cmd_match(cfg)
        if args.command == "surface":
            return cmd_surface(cfg)
        raise ConfigError("unknown command %r" % args.command)
    except ConfigError as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)})
        return 2
    except (StellarMatchError, OSError) as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)})
        return 1


if __name__ == "__main__":
    sys.exit(main())
