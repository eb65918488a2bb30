"""Command-line interface: config handling, artifacts, exit codes."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from stellar_match import __version__, lane_emden, ode
from stellar_match.cli import DEFAULT_CONFIG, LOCK_NAME, load_config, main, output_lock
from stellar_match.distortion import solve_distortion
from stellar_match.eos import EosSpec
from stellar_match.errors import ConfigError, StellarMatchError
from stellar_match.reports import canonical_json
from stellar_match.surface_fit import fit_ladder
from stellar_match.tov import (CASE00, CASE01, CASE10, CASE11,
                               EXIT_CENTER_FLOOR, EXIT_CENTER_MASSIVE,
                               EXIT_HORIZON, EXIT_PRESSURE_CEILING,
                               EXIT_SLOPE_STALL, EXIT_VACUUM, ShootConfig)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stderr_error(err):
    lines = [line for line in err.strip().splitlines() if line]
    return json.loads(lines[-1])


REL_GAMMA53 = ("--set", "eos.gamma=1.6666666666666667", "--set", "eos.c=1.0")


# -- config ----------------------------------------------------------------


def test_load_config_defaults():
    cfg = load_config()
    assert cfg["eos"]["gamma"] == DEFAULT_CONFIG["eos"]["gamma"]
    assert cfg.eos_spec().nonrelativistic
    assert cfg.polytrope_n() == pytest.approx(1.0)


def test_load_config_from_file(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(
        "eos:\n  gamma: 1.5\n  c: inf\nsweep:\n  p_lo: 1e-4\n  seed: 7\n"
    )
    cfg = load_config(path=str(path))
    assert cfg["eos"]["gamma"] == 1.5
    assert cfg["sweep"]["p_lo"] == 1e-4
    assert cfg["sweep"]["seed"] == 7
    assert cfg.polytrope_n() == pytest.approx(2.0)


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("eos:\n  gamma2: 2.0\n")
    from stellar_match.errors import ConfigError

    with pytest.raises(ConfigError):
        load_config(path=str(path))


@settings(max_examples=60, deadline=None)
@given(r_floor_factor=st.floats(1e-9, 2.0))
@example(r_floor_factor=1.0)
def test_cli_and_shoot_config_agree_on_the_radius_floor(r_floor_factor):
    tov = {"r_floor_factor": r_floor_factor}
    sets = ["tov.%s=%r" % item for item in tov.items()]
    try:
        ShootConfig(**dict(DEFAULT_CONFIG["tov"], **tov))
    except ValueError:
        with pytest.raises(ConfigError, match="tov.r_floor_factor"):
            load_config(sets=sets)
        return
    cfg = load_config(sets=sets)
    assert cfg.shoot_config() == ShootConfig(**cfg["tov"])
    assert {key: cfg["tov"][key] for key in tov} == tov
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.shoot_config().r_floor_factor = 0.5


def test_threads_flag_is_gone(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["match", "--out", str(tmp_path / "o"), "--threads", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "assignment",
    [
        "sweep.threads=2",
        "sweep.count",
        "sweep.count=",
        "a.b.c=1",
        "nosuch.key=1",
        "sweep.count=true",
        "sweep.kind=[random]",
        "distortion.b=[]",
    ],
)
def test_malformed_set_exits_2(capsys, tmp_path, assignment):
    code, _, err = run(capsys, "match", "--out", str(tmp_path / "o"), "--set", assignment)
    assert code == 2
    assert stderr_error(err)["error"] == "ConfigError"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text", ["- 1\n", "sweep: 5\n"])
def test_malformed_config_file_exits_2(capsys, tmp_path, text):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    code, _, err = run(
        capsys, "match", "--config", str(path), "--out", str(tmp_path / "o"),
        "--set", "sweep.count=1",
    )
    assert code == 2
    assert stderr_error(err)["error"] == "ConfigError"


@pytest.mark.parametrize(
    "command, assignment",
    [
        ("match", "sweep.p_hi=.inf"),
        ("match", "sweep.p_hi=inf"),
        ("match", "sweep.per_decade=.inf"),
        ("eos-check", "eos.lambda=[.nan]"),
        ("eos-check", "eos.A=.inf"),
        ("eos-check", "eos.c=.nan"),
        ("eos-check", "eos.c=-.inf"),
        ("shoot-center", "tov.rtol=.inf"),
    ],
)
def test_non_finite_config_numbers_rejected(capsys, tmp_path, command, assignment):
    extra = ("--p-center", "1e-4") if command == "shoot-center" else ()
    code, _, err = run(
        capsys, command, *extra, "--out", str(tmp_path / "o"), "--set", assignment
    )
    assert code == 2
    error = stderr_error(err)
    assert error["error"] == "ConfigError"
    assert error["message"].startswith(assignment.split("=")[0])
    assert "finite" in error["message"]


def test_infinite_light_speed_means_nonrelativistic():
    cfg = load_config(sets=["eos.c=.inf"])
    assert cfg["eos"]["c"] == "inf"
    assert cfg.eos_spec().nonrelativistic


def test_contradictory_polytrope_index(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "surface",
        "--out",
        str(tmp_path / "o"),
        "--set",
        "eos.gamma=2.0",
        "--set",
        "distortion.n=3.0",
    )
    assert code == 2
    assert stderr_error(err)["error"] == "ConfigError"


def test_missing_config_file(capsys, tmp_path):
    code, _, err = run(
        capsys, "eos-check", "--config", str(tmp_path / "nope.yaml")
    )
    assert code == 2
    assert stderr_error(err)["error"] == "ConfigError"


# -- eos-check -------------------------------------------------------------


def test_eos_check_valid(capsys, tmp_path):
    out = tmp_path / "o"
    code, stdout, _ = run(capsys, "eos-check", "--out", str(out))
    assert code == 0
    assert "valid for rho" in stdout
    report = json.loads((out / "eos_check.json").read_text())
    assert report["valid_on_requested_range"] is True
    assert "content_sha256" in report
    assert report["config"]["eos"]["gamma"] == 2.0


def test_eos_check_bounded_range_failure(capsys, tmp_path):
    out = tmp_path / "o"
    code, _, err = run(
        capsys,
        "eos-check",
        "--out",
        str(out),
        *REL_GAMMA53,
        "--set",
        "eos.rho_max=10.0",
    )
    assert code == 1
    assert stderr_error(err)["error"] == "EosValidityError"
    report = json.loads((out / "eos_check.json").read_text())
    assert report["valid_on_requested_range"] is False


def test_eos_check_malformed_config(capsys, tmp_path):
    code, _, err = run(
        capsys, "eos-check", "--out", str(tmp_path / "o"), "--set", "eos.gamma=0.5"
    )
    assert code == 2
    assert stderr_error(err)["error"] == "ConfigError"


# -- shooting --------------------------------------------------------------


def test_shoot_round_trip(capsys, tmp_path):
    out1, out2 = tmp_path / "fwd", tmp_path / "bwd"
    code, stdout, _ = run(
        capsys, "shoot-center", "--p-center", "1e-4", "--out", str(out1), *REL_GAMMA53
    )
    assert code == 0
    fwd = json.loads((out1 / "center_shot.json").read_text())
    assert fwd["outcome"] == "surface"
    header = (out1 / "center_shot_trajectory.csv").read_text().splitlines()
    assert header[0].startswith("# config:")
    assert header[1].startswith("# content_sha256:")
    assert header[2] == "r,m,P,rho,h,F,H"

    code, stdout, _ = run(
        capsys,
        "shoot-boundary",
        "--radius",
        repr(fwd["radius"]),
        "--mass",
        repr(fwd["mass"]),
        "--out",
        str(out2),
        *REL_GAMMA53,
    )
    assert code == 0
    bwd = json.loads((out2 / "boundary_shot.json").read_text())
    assert bwd["case"] == "case11"
    assert abs(bwd["p_center"] / 1e-4 - 1.0) < 1e-5


def test_center_shot_matches_polytrope_scales(capsys, tmp_path):
    # Nonrelativistic gamma = 2 boundary data must reproduce the classic
    # profile: R = a xi1 and M = 4 pi rho_c a^3 mu1.
    out = tmp_path / "o"
    p_center = 0.5
    code, _, _ = run(
        capsys,
        "shoot-center",
        "--p-center",
        str(p_center),
        "--out",
        str(out),
        "--set",
        "eos.gamma=2.0",
    )
    assert code == 0
    rep = json.loads((out / "center_shot.json").read_text())
    eos = EosSpec(gamma=2.0)
    rho_c = math.sqrt(p_center)
    base = lane_emden.solve(1.0)
    a = eos.length_scale(rho_c)
    assert abs(rep["radius"] / (a * base.xi1) - 1.0) < 1e-6
    assert abs(rep["mass"] / (4.0 * math.pi * rho_c * a**3 * base.mu1) - 1.0) < 1e-6


def test_shoot_boundary_inadmissible(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "shoot-boundary",
        "--radius",
        "1.0",
        "--mass",
        "0.6",
        "--out",
        str(tmp_path / "o"),
        *REL_GAMMA53,
    )
    assert code == 1
    assert stderr_error(err)["error"] == "AdmissibilityError"


@pytest.mark.parametrize("mass", ["1e-3", "1e-12"])
def test_shoot_boundary_at_c_inf_without_a_horizon_event(capsys, tmp_path,
                                                        mass):
    # the c = inf shots build no horizon event, which could not fire there,
    # and no pressure ceiling; P stays finite at every r > 0, so a positive
    # mass at the center floor is a center blow-up
    code, out, _ = run(capsys, "shoot-boundary", "--radius", "1.0",
                       "--mass", mass, "--out", str(tmp_path / "o"))
    assert code == 0
    assert "case = case10, exit = center_floor\n" in out


def test_degenerate_shot_inputs_are_labelled_errors(tmp_path):
    # a zero, NaN or infinite central pressure, at gamma 2 and 5/3, and
    # non-finite boundary data end in one labelled error, not a traceback
    # or a solve whose NaN steps never collapse
    cases = [
        (["shoot-center", "--p-center", "0"], "EosValidityError"),
        (["shoot-center", "--p-center", "0", *REL_GAMMA53], "EosValidityError"),
        (["shoot-center", "--p-center", "nan"], "EosValidityError"),
        (["shoot-center", "--p-center", "inf"], "EosValidityError"),
        (["shoot-boundary", "--radius", "inf", "--mass", "0.1"], "AdmissibilityError"),
        (["shoot-boundary", "--radius", "1", "--mass", "nan"], "AdmissibilityError"),
    ]
    for argv, error in cases:
        out = run_python("-m", "stellar_match.cli", *argv,
                         "--out", str(tmp_path / "o"))
        assert sole_error_record(out, 1)["error"] == error, argv


@pytest.mark.parametrize("radius, mass", [
    ("1e-150", "0.1"), ("1e-110", "1e-111"), ("1e100", "1e99")])
def test_extreme_boundary_data_are_labelled_errors(tmp_path, radius, mass):
    # the pressure scale p_ref = M^2/R^4 or its slope floor is not a
    # finite positive float at these (R, M), and the shot is refused with
    # one JSON error line, with no traceback and no numpy warning
    out = run_python("-W", "error::RuntimeWarning", "-m", "stellar_match.cli",
                     "shoot-boundary", "--radius", radius, "--mass", mass,
                     "--out", str(tmp_path / "o"))
    record = sole_error_record(out, 1)
    assert record["error"] == "AdmissibilityError"
    assert "p_ref" in record["message"]


# (case, exit) pairs an inward shot can report: the four cases, each on
# the exit that decides it, and the labelled exits outside the taxonomy
INWARD_VERDICTS = {
    (CASE00, EXIT_PRESSURE_CEILING), (CASE01, EXIT_SLOPE_STALL),
    (CASE10, EXIT_CENTER_FLOOR), (CASE11, EXIT_CENTER_FLOOR),
    (None, EXIT_CENTER_MASSIVE), (None, EXIT_HORIZON), (None, EXIT_VACUUM),
}


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(log_r=st.floats(-160.0, 160.0),
       log_compactness=st.floats(-14.0, math.log10(0.49)),
       c=st.sampled_from(["inf", "1", "10"]),
       gamma=st.sampled_from(["2", repr(5.0 / 3.0), "1.5"]))
def test_shoot_boundary_gives_a_verdict_or_a_labelled_refusal(
        capsys, tmp_path, log_r, log_compactness, c, gamma):
    # any boundary data from tiny to huge R, at any compactness below the
    # horizon, on each EOS: exit 0 with a verdict of the taxonomy at a
    # finite radius, or exit 1 or 2 with one JSON error line; a traceback
    # (or a numpy warning, an error under the test settings) escapes main
    radius = 10.0 ** log_r
    mass = radius * 10.0 ** log_compactness
    code, _, err = run(capsys, "shoot-boundary", "--radius", repr(radius),
                       "--mass", repr(mass), "--out", str(tmp_path / "o"),
                       "--set", "eos.c=" + c, "--set", "eos.gamma=" + gamma)
    if code == 0:
        rep = json.loads((tmp_path / "o" / "boundary_shot.json").read_text())
        assert (rep["case"], rep["exit"]) in INWARD_VERDICTS, rep
        assert isinstance(rep["r_exit"], float) and math.isfinite(rep["r_exit"])
    else:
        assert code in (1, 2)
        lines = err.splitlines()
        assert len(lines) == 1, lines
        assert set(json.loads(lines[0])) == {"error", "message"}


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(log_p=st.floats(-40.0, 10.0), c=st.sampled_from(["inf", "1", "10"]),
       gamma=st.sampled_from(["2", repr(5.0 / 3.0), "1.5"]),
       corrected=st.booleans())
def test_shoot_center_gives_a_surface_or_a_labelled_refusal(
        capsys, tmp_path, log_p, c, gamma, corrected):
    # any central pressure from tiny to huge, on each EOS (the lambda
    # correction only at a finite c): exit 0 with a surface at finite R,
    # M > 0, whose trajectory ends on it at h = 0 exactly, or with a guard
    # outcome; or exit 1 or 2 with one JSON error line.  A traceback (or a
    # numpy warning, an error under the test settings) escapes main
    sets = ["--set", "eos.c=" + c, "--set", "eos.gamma=" + gamma]
    if corrected and c != "inf":
        sets += ["--set", "eos.lambda=[0.2,-0.1]"]
    out = tmp_path / "o"
    code, _, err = run(capsys, "shoot-center", "--p-center",
                       repr(10.0 ** log_p), "--out", str(out), *sets)
    if code == 0:
        rep = json.loads((out / "center_shot.json").read_text())
        if rep["outcome"] != "surface":
            assert rep["outcome"] in ("r_max_guard", "horizon"), rep
            return
        assert math.isfinite(rep["radius"]) and rep["radius"] > 0.0
        assert math.isfinite(rep["mass"]) and rep["mass"] > 0.0
        lines = (out / "center_shot_trajectory.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines if not line.startswith("#")]
        last = dict(zip(rows[0], rows[-1]))
        assert float(last["h"]) == 0.0 and float(last["r"]) == rep["radius"]
    else:
        assert code in (1, 2)
        lines = err.splitlines()
        assert len(lines) == 1, lines
        assert set(json.loads(lines[0])) == {"error", "message"}


def test_refinements_key_is_gone(tmp_path):
    # the inward shot has no refinement ladder, so no rung count to set,
    # no pressure-ceiling factor: the ceiling is the EOS cap at a finite
    # c, and there is none at c = inf; and no surface offset: it starts
    # on the surface itself
    for key, value in (("refinements", "2"), ("p_ceiling_factor", "1e6"),
                       ("dr_factor", "1e-6")):
        out = run_python(
            "-m", "stellar_match.cli", "shoot-boundary", "--radius", "1",
            "--mass", "1e-3", "--out", str(tmp_path / "o"),
            "--set", "tov.%s=%s" % (key, value),
        )
        record = sole_error_record(out, 2)
        assert record["error"] == "ConfigError"
        assert key in record["message"]
        assert not (tmp_path / "o").exists()


def test_shoot_boundary_refuses_a_start_inside_the_radius_floor(tmp_path):
    # r_floor = 2 R lies above the start on the surface R, so the inward
    # span to r_floor would point outward; such a config is malformed,
    # whatever (R, M).
    out = run_python(
        "-m", "stellar_match.cli", "shoot-boundary", "--radius", "9.5",
        "--mass", "0.05", "--out", str(tmp_path / "o"),
        "--set", "eos.gamma=1.6666666666666667", "--set", "eos.c=1",
        "--set", "tov.r_floor_factor=2",
    )
    record = sole_error_record(out, 2)
    assert record["error"] == "ConfigError"
    assert "tov.r_floor_factor" in record["message"]
    assert not (tmp_path / "o").exists()


def test_shoot_boundary_past_a_monotone_validity_bound(tmp_path):
    # This EOS ends where dP/drho -> 0, so d ln rho/dh is huge at the end of
    # its enthalpy table; trial steps past it must keep rho and P finite
    # and the shot must classify.  A subprocess sees any traceback or
    # warning on stderr.
    out = tmp_path / "o"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    proc = subprocess.run(
        [sys.executable, "-m", "stellar_match.cli", "shoot-boundary",
         "--radius", "0.75", "--mass", "0.182064014313", "--out", str(out),
         "--set", "eos.gamma=2", "--set", "eos.c=1", "--set", "eos.lambda=[-0.5]"],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    rep = json.loads((out / "boundary_shot.json").read_text())
    assert rep["case"] in ("case00", "case01", "case10", "case11")


def test_shoot_center_json_table(capsys, tmp_path):
    out = tmp_path / "o"
    code, _, _ = run(
        capsys,
        "shoot-center",
        "--p-center",
        "1e-3",
        "--out",
        str(out),
        "--format",
        "json",
        *REL_GAMMA53,
    )
    assert code == 0
    table = json.loads((out / "center_shot_trajectory.json").read_text())
    assert table["columns"] == ["r", "m", "P", "rho", "h", "F", "H"]
    assert table["config"]["output"]["format"] == "json"
    assert "content_sha256" in table


# -- match -----------------------------------------------------------------

MATCH_ARGS = (
    "--set",
    "eos.gamma=2.0",
    "--set",
    "sweep.p_lo=1e-3",
    "--set",
    "sweep.p_hi=1e-1",
    "--set",
    "sweep.per_decade=4",
    "--set",
    "sweep.count=4",
)


def test_match_outputs_and_reruns_identical(capsys, tmp_path):
    out = tmp_path / "m"
    code, _, _ = run(capsys, "match", "--out", str(out), "--seed", "3", *MATCH_ARGS)
    assert code == 0
    first = {
        name: (out / name).read_bytes()
        for name in ("curves.csv", "sweep.jsonl", "sweep_summary.json")
    }
    lines = (out / "curves.csv").read_text().splitlines()
    assert lines[2] == "P_O,R,M,2M/R"
    radii = [float(line.split(",")[1]) for line in lines[3:]]
    target = math.sqrt(math.pi / 2.0)
    assert max(abs(r / target - 1.0) for r in radii) < 1e-8

    code, _, _ = run(capsys, "match", "--out", str(out), "--seed", "3", *MATCH_ARGS)
    assert code == 0
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob

    summary = json.loads((out / "sweep_summary.json").read_text())
    assert summary["count"] == 4
    assert summary["far_case11_count"] == 0 or summary["cases"].get("case11")


def test_match_seed_override_recorded(capsys, tmp_path):
    out = tmp_path / "m"
    code, _, _ = run(
        capsys, "match", "--out", str(out), "--set", "sweep.seed=9", *MATCH_ARGS
    )
    assert code == 0
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert summary["sampler"]["seed"] == 9
    assert summary["config"]["sweep"]["seed"] == 9


def test_match_empty_domain(capsys, tmp_path):
    out = tmp_path / "m"
    code, stdout, _ = run(
        capsys,
        "match",
        "--out",
        str(out),
        *REL_GAMMA53,
        "--set",
        "sweep.p_lo=1.0",
        "--set",
        "sweep.p_hi=100.0",
        "--set",
        "sweep.count=2",
    )
    assert code == 0
    assert "no components" in stdout
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert summary["count"] == 0
    assert "note" in summary
    lines = (out / "curves.csv").read_text().splitlines()
    assert lines[2] == "P_O,R,M,2M/R"
    assert len(lines) == 3  # header only, no curve rows
    jsonl = (out / "sweep.jsonl").read_text().splitlines()
    assert len(jsonl) == 1  # header record only


def test_lockfile_blocks_concurrent_runs(capsys, tmp_path):
    out = tmp_path / "m"
    out.mkdir()
    (out / ".stellar-match.lock").write_text("held\n")
    code, _, err = run(capsys, "match", "--out", str(out), *MATCH_ARGS)
    assert code == 1
    assert "locked" in stderr_error(err)["message"]


def test_unusable_output_directory_exits_1(capsys, tmp_path):
    (tmp_path / "file").write_text("")
    code, _, err = run(capsys, "eos-check", "--out", str(tmp_path / "file"))
    assert code == 1
    assert stderr_error(err)["error"] == "FileExistsError"


def test_lock_of_live_process_blocks(tmp_path):
    (tmp_path / LOCK_NAME).write_text("%d\n" % os.getpid())
    with pytest.raises(StellarMatchError, match="locked"):
        with output_lock(str(tmp_path)):
            pass


@pytest.mark.skipif(os.name != "posix", reason="pid liveness is checked on POSIX only")
def test_stale_lock_is_recovered(tmp_path):
    # The pid of a child that has exited and been reaped names no process.
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait(timeout=60)
    lock = tmp_path / LOCK_NAME
    lock.write_text("%d\n" % child.pid)
    with output_lock(str(tmp_path)):
        assert lock.read_text() == "%d\n" % os.getpid()
    assert not lock.exists()


def test_empty_lock_does_not_block(capsys, tmp_path):
    # output_lock links the lock into place with the pid already in it, so
    # an empty lock has no live owner.
    (tmp_path / LOCK_NAME).write_text("")
    code, _, _ = run(capsys, "eos-check", "--out", str(tmp_path))
    assert code == 0
    assert [p.name for p in tmp_path.iterdir()] == ["eos_check.json"]


def test_commands_do_not_load_numpy_random_or_openssl(tmp_path):
    # the sweep draws from stellar_match.rng, and artifacts are hashed with
    # CPython's built-in sha256, so every command runs in one process
    # without importing numpy's random package or hashlib's OpenSSL binding
    script = (
        "import sys\n"
        "from stellar_match import cli\n"
        "out = sys.argv[1]\n"
        "for argv in (['surface'], ['match', '--set', 'sweep.count=3'],\n"
        "             ['shoot-center', '--p-center', '1e-3'],\n"
        "             ['shoot-boundary', '--radius', '1', '--mass', '1e-3'],\n"
        "             ['eos-check']):\n"
        "    assert cli.main(argv + ['--out', out + '/' + argv[0]]) == 0, argv\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('numpy.random'))\n"
        "assert not loaded, loaded\n"
        "loaded = sorted(m for m in ('_hashlib', 'ssl') if m in sys.modules)\n"
        "assert not loaded, loaded\n"
    )
    out = run_python("-c", script, str(tmp_path))
    assert out.returncode == 0, out.stderr


def run_python(*args):
    """A fresh interpreter with this checkout's src/ first on the path."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True, text=True, timeout=120,
    )


def sole_error_record(out, code):
    """The one JSON error line a subprocess run that exits `code` writes to
    stderr, with no traceback."""
    assert out.returncode == code
    assert "Traceback" not in out.stderr
    lines = out.stderr.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats would add about a third to every command's start-up.
    out = run_python(
        "-c", "import sys, stellar_match.cli; print('scipy.stats' in sys.modules)"
    )
    assert out.returncode == 0
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_out_scipy_integrate():
    # the package integrates with stellar_match.ode; scipy.integrate is a
    # test oracle only, and importing it costs about 40 ms
    out = run_python(
        "-c",
        "import sys, stellar_match.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))",
    )
    assert out.returncode == 0
    assert out.stdout.strip() == "[]"


def test_cli_loads_no_scipy_module_at_import_or_run(tmp_path):
    # scipy is a test oracle only.  Checking again after one command of
    # each kind catches a lazy import, which would move the cost from
    # start-up into the run.  numpy.ma, which np.median's NaN check
    # imports, is not needed either.
    script = (
        "import json, sys\n"
        "import stellar_match.cli as cli\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "at_import = scipy_modules()\n"
        "out = sys.argv[1]\n"
        "codes = [cli.main(['shoot-center', '--out', out + '/c', '--p-center', '1e-4']),\n"
        "         cli.main(['surface', '--out', out + '/s']),\n"
        "         cli.main(['match', '--out', out + '/m', '--set', 'sweep.count=3'])]\n"
        "print(json.dumps([at_import, codes, scipy_modules(), 'numpy.ma' in sys.modules]))\n"
    )
    out = run_python("-c", script, str(tmp_path))
    assert out.returncode == 0, out.stderr
    at_import, codes, after_runs, numpy_ma = json.loads(out.stdout.strip().splitlines()[-1])
    assert at_import == []
    assert codes == [0, 0, 0]
    assert after_runs == []
    assert not numpy_ma


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_scipy_is_a_test_dependency_only():
    import tomllib

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]

    def names(requirements):
        return [re.split(r"[<>=!~\[; ]", req, maxsplit=1)[0].lower() for req in requirements]

    assert "scipy" not in names(project["dependencies"])
    assert "scipy" in names(project["optional-dependencies"]["test"])


# -- surface ---------------------------------------------------------------


def test_surface_pipeline_n1(capsys, tmp_path):
    out = tmp_path / "s"
    code, stdout, err = run(
        capsys,
        "surface",
        "--out",
        str(out),
        "--set",
        "eos.gamma=2.0",
        "--set",
        "distortion.n=1.0",
    )
    assert code == 0
    assert err.strip() == ""
    rep = json.loads((out / "surface_report.json").read_text())
    assert rep["a2"] == pytest.approx(-math.pi**2 / 18.0, abs=1e-10)
    assert rep["c0"] == pytest.approx(math.pi, abs=1e-10)
    assert rep["c1"] == pytest.approx(2.25 * math.pi, abs=1e-8)
    assert rep["c2"] == pytest.approx(3.75 * math.pi, abs=1e-8)
    assert rep["scaling"]["slope"] == pytest.approx(2.0, abs=0.1)
    assert rep["scaling"]["slope_in_range"] is True
    assert not rep["first_order_advisory"]
    assert len(rep["stratification"]) == 3
    assert max(r["fit"]["relative_rms"] for r in rep["stratification"]) > 1e-8
    curve_lines = (out / "surface_curve.csv").read_text().splitlines()
    assert curve_lines[2] == "zeta,Xi1"
    prof_lines = (out / "distortion_profile.csv").read_text().splitlines()
    assert prof_lines[2] == "xi,h0,psi2"


def test_surface_pipeline_n3(capsys, tmp_path):
    # The default b ladder bulges 2.34 past xi1 at n = 3, where theta, h0
    # and psi2 are their vacuum forms; the level surfaces must still resolve.
    out = tmp_path / "s"
    code, _, err = run(
        capsys, "surface", "--out", str(out), "--set", "eos.gamma=1.3333333333333333"
    )
    assert code == 0
    assert err.strip() == ""
    rep = json.loads((out / "surface_report.json").read_text())
    assert rep["scaling"]["slope_in_range"] is True
    assert len(rep["stratification"]) == 3


@pytest.mark.parametrize("gamma", ["2.0", "1.6666666666666667"])
def test_surface_reports_what_fit_ladder_returns(capsys, tmp_path, gamma):
    # The report's boundary fits and scaling are fit_ladder's, bit for bit;
    # criterion 7 calls the same function.
    out = tmp_path / "s"
    code, _, _ = run(capsys, "surface", "--out", str(out), "--set", "eos.gamma=" + gamma)
    assert code == 0
    rep = json.loads((out / "surface_report.json").read_text())
    d = rep["config"]["distortion"]
    dist = solve_distortion(rep["n"])
    ladder = fit_ladder(dist, d["b"], np.linspace(-1.0, 1.0, d["zeta_points"]))
    assert ladder.scaling is not None
    expected = json.loads(canonical_json(ladder.describe()))
    assert set(expected) == {"fits", "scaling", "scaling_note"}
    assert {key: rep[key] for key in expected} == expected


def test_surface_reruns_identical(capsys, tmp_path):
    out = tmp_path / "s"
    names = ("surface_report.json", "surface_curve.csv", "distortion_profile.csv")
    code, _, _ = run(capsys, "surface", "--out", str(out))
    assert code == 0
    first = {name: (out / name).read_bytes() for name in names}

    code, _, _ = run(capsys, "surface", "--out", str(out))
    assert code == 0
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob


def test_surface_static_run(capsys, tmp_path):
    out = tmp_path / "s"
    code, _, _ = run(
        capsys,
        "surface",
        "--out",
        str(out),
        "--set",
        "eos.gamma=2.0",
        "--set",
        "distortion.b=[0.0]",
    )
    assert code == 0
    rep = json.loads((out / "surface_report.json").read_text())
    assert rep["scaling"] is None
    assert "skipped" in rep["scaling_note"]
    assert rep["fits"][0]["fit"]["rms_residual"] < 1e-12
    for row in rep["stratification"]:
        assert row["fit"]["relative_rms"] < 1e-12


def test_surface_unordered_ladder_skips_scaling(capsys, tmp_path):
    out = tmp_path / "s"
    code, _, err = run(
        capsys,
        "surface",
        "--out",
        str(out),
        "--set",
        "eos.gamma=2.0",
        "--set",
        "distortion.b=[1e-4, 1e-2, 1e-3, 1e-2]",
    )
    assert code == 0
    assert err.strip() == ""
    rep = json.loads((out / "surface_report.json").read_text())
    assert rep["scaling"] is None
    assert rep["scaling_note"] == (
        "residual scaling skipped: b values must be strictly increasing")
    assert [row["b"] for row in rep["fits"]] == [1e-4, 1e-2, 1e-3, 1e-2]


def test_surface_advisory_beyond_first_order(capsys, tmp_path):
    out = tmp_path / "s"
    code, _, err = run(
        capsys,
        "surface",
        "--out",
        str(out),
        "--set",
        "eos.gamma=2.0",
        "--set",
        "distortion.b=[1e-3, 0.2]",
    )
    assert code == 0
    warning = stderr_error(err)
    assert "warning" in warning
    rep = json.loads((out / "surface_report.json").read_text())
    assert rep["first_order_advisory"] is True
    assert rep["scaling"] is None
    assert rep["scaling_note"] == (
        "residual scaling skipped: need at least 4 rotation parameters")
    # Level surfaces are evaluated at the first-order bound, not beyond.
    assert rep["b_ref"] == 0.05
    assert rep["b_max_requested"] == 0.2


@pytest.mark.parametrize(
    "sets, code, error, words",
    [
        # n = 1/(gamma-1) = 0.5 is below the bound distortion.n carries
        (["eos.gamma=3"], 2, "ConfigError", ("eos.gamma", "n >= 1")),
        # at n = 4.5 the first-order bulge of b = 1e-2 turns the boundary
        # negative near the poles
        (
            ["eos.gamma=1.2222222222222222", "distortion.b=[1e-4,1e-3,1e-2]"],
            1,
            "StellarMatchError",
            ("b = 0.01", "n = 4.5", "min Xi1 = -"),
        ),
        # at n = 4 the default ladder's b_ref = 1e-2 bulge leaves Theta on
        # the first-order boundary far from 0, so a level is not crossed
        (
            ["eos.gamma=1.25"],
            1,
            "StellarMatchError",
            ("level 0.2 not bracketed on [0, 24.631]", "zeta = -0.89"),
        ),
    ],
)
def test_surface_out_of_range_is_a_labelled_error(tmp_path, sets, code, error, words):
    argv = ["-m", "stellar_match.cli", "surface", "--out", str(tmp_path / "s")]
    for assignment in sets:
        argv += ["--set", assignment]
    record = sole_error_record(run_python(*argv), code)
    assert record["error"] == error
    for word in words:
        assert word in record["message"]


@pytest.mark.parametrize("sets", [
    ["distortion.levels=[0.9995]"],
    ["distortion.levels=[0.5]", "distortion.level_margin=0.6"],
])
def test_surface_level_outside_the_margin_is_a_config_error(tmp_path, sets):
    # level_surface needs each level in [level_margin, 1 - level_margin]:
    # a level outside is a malformed config, refused before any solve
    argv = ["-m", "stellar_match.cli", "surface", "--out", str(tmp_path / "s")]
    for assignment in sets:
        argv += ["--set", assignment]
    record = sole_error_record(run_python(*argv), 2)
    assert record["error"] == "ConfigError"
    assert record["message"].startswith("distortion.levels: ")
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("sets, key, n", [
    (["eos.gamma=1.2"], "eos.gamma", "n = 5"),
    (["distortion.n=6", "eos.gamma=1.1666666666666667"], "distortion.n",
     "n = 6"),
])
def test_surface_refuses_an_index_without_a_finite_zero(
        capsys, tmp_path, monkeypatch, sets, key, n):
    # theta has no finite zero from n = 5 on, so no surface run can
    # succeed: a ConfigError naming the key that sets n, before any solve
    solved = []
    monkeypatch.setattr(ode, "solve", lambda *args: solved.append(args))
    argv = ["surface", "--out", str(tmp_path / "s")]
    for assignment in sets:
        argv += ["--set", assignment]
    code, _, err = run(capsys, *argv)
    [record] = [json.loads(line) for line in err.splitlines()]
    assert code == 2 and record["error"] == "ConfigError"
    assert record["message"].startswith(key + ": ") and n in record["message"]
    assert solved == [] and not (tmp_path / "s").exists()


def test_surface_solves_once(capsys, tmp_path, monkeypatch):
    # the base profile and both responses come from one integration to the
    # first zero of theta
    solved = []
    real_solve = ode.solve

    def counted(*args):
        solved.append(1)
        return real_solve(*args)

    monkeypatch.setattr(ode, "solve", counted)
    code, _, _ = run(capsys, "surface", "--out", str(tmp_path / "s"))
    assert code == 0 and len(solved) == 1


def _floats(value):
    """Every number in a JSON value, at any depth."""
    if isinstance(value, dict):
        return [x for v in value.values() for x in _floats(v)]
    if isinstance(value, list):
        return [x for v in value for x in _floats(v)]
    return [value] if isinstance(value, float) else []


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.one_of(st.floats(1.0, 4.5), st.sampled_from([5.0, 6.0])),
       b=st.lists(st.floats(0.0, 0.3), min_size=1, max_size=5),
       levels=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                       max_size=3),
       margin=st.floats(1e-6, 0.01) | st.floats(1e-6, 0.6),
       zeta_points=st.integers(5, 41))
def test_surface_gives_a_report_or_a_labelled_refusal(
        capsys, tmp_path, n, b, levels, margin, zeta_points):
    # any index, rotation ladder, levels and margin inside the schema's
    # bounds: exit 0 with a finite surface, fits and one stratification
    # entry per level, or exit 1 or 2 with JSON lines on stderr, the last
    # an error.  A traceback (or a numpy warning, an error under the test
    # settings) escapes main
    out = tmp_path / "o"
    code, _, err = run(
        capsys, "surface", "--out", str(out),
        "--set", "eos.gamma=%r" % (1.0 + 1.0 / n),
        "--set", "distortion.b=%r" % b,
        "--set", "distortion.levels=%r" % levels,
        "--set", "distortion.level_margin=%r" % margin,
        "--set", "distortion.zeta_points=%d" % zeta_points)
    if code == 0:
        rep = json.loads((out / "surface_report.json").read_text())
        for key in ("xi1", "mu1"):
            assert math.isfinite(rep[key]) and rep[key] > 0.0, rep
        for record in rep["fits"] + rep["stratification"]:
            assert all(math.isfinite(x) for x in _floats(record)), record
        assert [row["theta_star"] for row in rep["stratification"]] == levels
    else:
        assert code in (1, 2)
        records = [json.loads(line) for line in err.splitlines()]
        assert records and set(records[-1]) == {"error", "message"}, records


def test_surface_warns_before_the_first_order_curve_fails(tmp_path):
    # At n = 4 the clamped curve at b_ref = 0.05 is not positive.  The
    # advisory comes first, and the error names b_ref, not the ladder's 0.2.
    out = run_python("-m", "stellar_match.cli", "surface", "--out", str(tmp_path / "s"),
                     "--set", "eos.gamma=1.25", "--set", "distortion.b=[1e-3, 0.2]")
    assert out.returncode == 1
    assert "Traceback" not in out.stderr
    lines = out.stderr.strip().splitlines()
    assert len(lines) == 2
    warning, error = [json.loads(line) for line in lines]
    assert warning == {"b_max": 0.2, "warning": "rotation parameter beyond first-order range"}
    assert error["error"] == "StellarMatchError"
    assert "first-order boundary is not positive at b = 0.05," in error["message"]


# -- misc ------------------------------------------------------------------


def test_version(capsys):
    code, stdout, _ = run(capsys, "version")
    assert code == 0
    assert stdout.strip() == __version__
