"""In-process tests for the command-line interface: exit codes, config
handling, report files, and deterministic serialization."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from reebpinch import cli, connecting_ode, orbit_search
from reebpinch.contact_dynamics import AmbientSpace, StarshapedSurface, \
    surface_to_json
from test_radial_profile import _admissible_triples


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def report_path(out_dir, tag):
    files = [f for f in os.listdir(out_dir) if f.endswith(f"_{tag}.json")]
    assert len(files) == 1, files
    return os.path.join(out_dir, files[0])


def load_report(out_dir, tag):
    return json.loads(Path(report_path(out_dir, tag)).read_text())


@pytest.fixture()
def sphere_file(tmp_path):
    space = AmbientSpace(2)
    surf = StarshapedSurface(space, np.zeros(4), "sphere", {"R": 1.0})
    path = tmp_path / "sphere.json"
    path.write_text(surface_to_json(surf))
    return str(path)


@pytest.fixture()
def off_center_file(tmp_path):
    # sphere about (3, 0, 0, 0): <nu, x> < 0 on the side facing the origin
    space = AmbientSpace(2)
    surf = StarshapedSurface(space, np.array([3.0, 0.0, 0.0, 0.0]), "sphere",
                             {"R": 1.0})
    path = tmp_path / "off_center.json"
    path.write_text(surface_to_json(surf))
    return str(path)


@pytest.fixture()
def fat_file(tmp_path):
    space = AmbientSpace(2)
    surf = StarshapedSurface(space, np.zeros(4), "ellipsoid",
                             {"radii": [1.0, 1.5]})
    path = tmp_path / "fat.json"
    path.write_text(surface_to_json(surf))
    return str(path)


class TestProfileCheck:
    def test_pass_exit_zero(self, tmp_path, capsys):
        code, out, _ = run(capsys, "profile-check", "--R0", "1.5", "--A",
                           "0.5", "--c", "0.8", "--out", str(tmp_path))
        assert code == 0
        assert "admissible" in out
        doc = load_report(tmp_path, "profile-check")
        assert doc["ok"] is True
        assert abs(doc["B"] - 0.5 * math.exp(0.625)) < 1e-15

    def test_fail_exit_two_names_constraint(self, tmp_path, capsys):
        code, out, _ = run(capsys, "profile-check", "--R0", "1.5", "--A",
                           "0.5", "--c", "0.9", "--out", str(tmp_path))
        assert code == 2
        assert "c < (R0-1)/(1-log R0)" in out
        doc = load_report(tmp_path, "profile-check")
        assert doc["ok"] is False
        assert doc["first_failure"] == "c < (R0-1)/(1-log R0)"

    def test_tiny_c_fails_named_constraint(self, tmp_path, capsys):
        code, out, _ = run(capsys, "profile-check", "--R0", "1.5", "--A",
                           "0.5", "--c", "1e-4", "--out", str(tmp_path))
        assert code == 2
        assert "c(B-A) < 1" in out

    def test_missing_subcommand_is_usage(self, capsys):
        assert cli.main([]) == 1

    def test_parser_built_once(self, tmp_path, capsys, monkeypatch):
        built = []
        build = cli.build_parser

        def counted():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        try:
            codes = [run(capsys, "profile-check", "--R0", "1.5", "--A", "0.5",
                         "--c", c, "--out", str(tmp_path))[0]
                     for c in ("0.8", "0.9", "0.8")]
        finally:
            cli._parser.cache_clear()     # drop the counting parser
        assert codes == [0, 2, 0]
        assert len(built) == 1

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"R0": 1.5, "A": 0.5, "c": 0.9}))
        code, _, _ = run(capsys, "profile-check", "--config", str(cfg),
                         "--c", "0.8", "--out", str(tmp_path))
        assert code == 0


class TestConfigHandling:
    def test_malformed_config_line_number(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{\n  "R0": 1.5,\n  "A": oops\n}\n')
        code, _, err = run(capsys, "profile-check", "--config", str(cfg),
                           "--out", str(tmp_path))
        assert code == 1
        assert "line 3" in err

    def test_missing_config_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "profile-check", "--config",
                           str(tmp_path / "nope.json"), "--out", str(tmp_path))
        assert code == 1
        assert "cannot read config" in err

    def test_flag_and_file_hash_identical(self, tmp_path, capsys):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"R0": 1.5, "A": 0.5, "c": 0.8}))
        run(capsys, "profile-check", "--R0", "1.5", "--A", "0.5", "--c",
            "0.8", "--out", str(d1))
        run(capsys, "profile-check", "--config", str(cfg), "--out", str(d2))
        f1 = report_path(d1, "profile-check")
        f2 = report_path(d2, "profile-check")
        assert os.path.basename(f1) == os.path.basename(f2)
        assert Path(f1).read_text() == Path(f2).read_text()

    @pytest.mark.parametrize("command, key, value, what", [
        ("surface-orbits", "seeds", None, "an integer, got null"),
        ("surface-orbits", "seeds", 2.5, "an integer, got 2.5"),
        ("surface-orbits", "window", 5,
         'a "lo,hi" string or a list of 2 numbers, got 5'),
        ("surface-orbits", "window", [1.0, True],
         'a "lo,hi" string or a list of 2 numbers, got [1.0, true]'),
        ("surface-orbits", "surface", 3, "a string, got 3"),
        ("verify-ellipsoid", "radii", 5,
         "a string or a list of numbers, got 5"),
        ("ode-connect", "tol", "abc", 'a number, got "abc"'),
        ("profile-check", "R0", True, "a number, got true"),
    ])
    def test_wrong_value_type_exits_one(self, tmp_path, capsys, sphere_file,
                                        command, key, value, what):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"surface": sphere_file, key: value}))
        code, out, err = run(capsys, command, "--config", str(cfg),
                             "--out", str(tmp_path))
        assert code == 1
        assert err == f"config {key!r} must be {what}\n"
        assert out == ""

    def test_valid_values_stored_as_written(self, tmp_path, capsys,
                                            sphere_file):
        # an integral float is an integer, and a list is a window; the
        # config hash sees the values as written
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"surface": sphere_file, "seeds": 2.0,
                                   "window": [2.8, 3.5]}))
        code, _, _ = run(capsys, "surface-orbits", "--config", str(cfg),
                         "--out", str(tmp_path))
        assert code == 0
        doc = load_report(tmp_path, "surface-orbits")
        assert doc["window"] == [2.8, 3.5]
        assert doc["search"]["seeds"] == 2
        h = cli.config_hash({"command": "surface-orbits",
                             **json.loads(cfg.read_text())})
        assert os.path.basename(report_path(tmp_path, "surface-orbits")) \
            == f"{h}_surface-orbits.json"

    def test_distinct_commands_distinct_hashes(self, tmp_path, capsys):
        run(capsys, "ode-connect", "--out", str(tmp_path))
        run(capsys, "ode-probe", "--out", str(tmp_path))
        c = report_path(tmp_path, "ode-connect")
        p = report_path(tmp_path, "ode-probe")
        assert os.path.basename(c).split("_")[0] \
            != os.path.basename(p).split("_")[0]


class TestOdeCommands:
    def test_ode_connect(self, tmp_path, capsys):
        code, _, _ = run(capsys, "ode-connect", "--out", str(tmp_path),
                         "--json")
        assert code == 0
        doc = load_report(tmp_path, "ode-connect")
        assert abs(doc["F_end"] - doc["target"]) < 1e-6
        assert doc["gap_margin"] > 0.0
        assert doc["max_step_residual"] <= 1e-9
        csvs = [f for f in os.listdir(tmp_path)
                if f.endswith("_trajectory.csv")]
        assert len(csvs) == 1

    def test_ode_probe(self, tmp_path, capsys):
        code, _, _ = run(capsys, "ode-probe", "--out", str(tmp_path))
        assert code == 0
        doc = load_report(tmp_path, "ode-probe")
        assert doc["zeta2_coefficient"] == 0.8
        assert all(p["ratio"] >= 10.0 or p["blow_up"]
                   for p in doc["probes"])
        assert all(m["determinant"] < 0.0
                   for m in doc["ellipticity_sample"])

    def test_integration_error_exit_two(self, tmp_path, capsys, monkeypatch):
        class Failing:
            def __init__(self, *args, **kwargs):
                self.status = "running"

            def step(self):
                self.status = "failed"
                return "step size underflow"
        monkeypatch.setattr(connecting_ode, "RK45", Failing)
        code, _, err = run(capsys, "ode-connect", "--out", str(tmp_path))
        assert code == 2
        assert err.startswith("error: integrator failed: step size underflow")

    def test_exact_root_bracket_connects(self, tmp_path, capsys):
        # h_0'(R0 B) rounds to just below 1 here; rho(0) = R0 B by definition
        R0, A, c = 1.7095635533332825, 0.1522833537310362, 0.6908444119617343
        code, _, _ = run(capsys, "ode-connect", "--R0", repr(R0), "--A",
                         repr(A), "--c", repr(c), "--out", str(tmp_path))
        assert code == 0
        doc = load_report(tmp_path, "ode-connect")
        assert abs(doc["F_end"] - R0 * A * math.exp((R0 - 1.0) / c)) < 1e-6
        assert doc["gap_margin"] > 0.0

    def test_slow_approach_reaches_target(self, tmp_path, capsys):
        # R0/c = 12: the gap falls to tol at s = 297, on the closed-form tail
        code, _, _ = run(capsys, "ode-connect", "--R0", "1.2", "--A", "0.3",
                         "--c", "0.1", "--out", str(tmp_path))
        assert code == 0
        doc = load_report(tmp_path, "ode-connect")
        assert abs(doc["F_end"] - doc["target"]) < 1e-6
        assert doc["gap_margin"] > 0.0

    @pytest.mark.parametrize("R0, A, c", [
        (1.469734732992947, 0.6852010833099484, 0.47426797170192003),
        (1.3811799278482795, 0.4318310869857669, 0.44738549180328846),
        (1.50379444565624, 0.31302117090672255, 0.48835170082747936),
        (1.715884868055582, 0.4253363497555256, 0.9693316631019115),
        # c < ln(10)/8: the fixed interval [-10, -2] gave ratios of about 7
        (1.3417368847876787, 0.7452869275584817, 0.24759034533053637),
        # the backward probe from A - 1e-3 decays toward 0, and an RK45
        # stage lands at F <= 0, where h' is the head plateau's 0
        (1.078143390826881, 0.18169264495372772, 0.02958280500024557)])
    def test_ode_probe_zeta2_exact(self, tmp_path, capsys, R0, A, c):
        code, _, _ = run(capsys, "ode-probe", "--R0", repr(R0), "--A",
                         repr(A), "--c", repr(c), "--out", str(tmp_path))
        assert code == 0
        assert load_report(tmp_path, "ode-probe")["zeta2_coefficient"] == c


class TestProfileConnectOutcomes:
    """Outcome guard over the profile-connect inputs: the base triple and
    the admissible points of a 256-point Sobol net (seed 1)."""

    # triples of the net that build; it may only rise
    MIN_BUILT = 56

    def test_every_build_connects_and_probes(self, tmp_path, capsys):
        built, failures = 0, []
        out = str(tmp_path / "out")
        for core in _admissible_triples():
            flags = ["--R0", repr(core.R0), "--A", repr(core.A),
                     "--c", repr(core.c), "--out", out]
            # an exception escaping main fails the test here
            codes = [run(capsys, cmd, *flags)[0]
                     for cmd in ("profile-build", "ode-connect", "ode-probe")]
            shutil.rmtree(out, ignore_errors=True)
            if any(code not in (0, 1) for code in codes) or (
                    codes[0] == 0 and codes != [0, 0, 0]):
                failures.append((core, codes))
            built += codes[0] == 0
        assert not failures
        assert built >= self.MIN_BUILT


class TestSurfaceCommands:
    def test_surface_orbits(self, tmp_path, capsys, sphere_file):
        code, out, _ = run(capsys, "surface-orbits", "--surface", sphere_file,
                           "--seeds", "4", "--window",
                           f"{0.9 * math.pi},{1.1 * math.pi}",
                           "--out", str(tmp_path))
        assert code == 0
        doc = load_report(tmp_path, "surface-orbits")
        assert doc["search"]["converged"] == 4
        assert all(abs(o["T"] - math.pi) < 1e-8 for o in doc["orbits"])

    def test_loose_tol_keeps_window(self, tmp_path, capsys):
        # the window is padded by the period accuracy, not by --tol: with
        # a 10 tol pad the orbits at 3.141593 and 4.523893 were accepted
        surf = StarshapedSurface(AmbientSpace(2), np.zeros(4), "ellipsoid",
                                 {"radii": [1.0, 1.2]})
        path = tmp_path / "e12.json"
        path.write_text(surface_to_json(surf))
        code, _, _ = run(capsys, "surface-orbits", "--surface", str(path),
                         "--seeds", "8", "--tol", "0.05", "--window",
                         "3.5,4.2", "--out", str(tmp_path))
        assert code == 0
        doc = load_report(tmp_path, "surface-orbits")
        assert doc["search"]["converged"] > 0
        assert doc["orbits"] == []

    def test_surface_required(self, tmp_path, capsys):
        code, _, err = run(capsys, "surface-orbits", "--out", str(tmp_path))
        assert code == 1
        assert "requires --surface" in err

    def test_verify_pinch_sphere(self, tmp_path, capsys, sphere_file):
        code, out, _ = run(capsys, "verify-pinch", "--surface", sphere_file,
                           "--seeds", "8", "--out", str(tmp_path))
        assert code == 0
        doc = load_report(tmp_path, "verify-pinch")
        assert doc["pass"] is True
        assert doc["degenerate_levels"]

    def test_hypothesis_error_exit_three(self, tmp_path, capsys,
                                         off_center_file):
        code, _, err = run(capsys, "surface-orbits", "--surface",
                           off_center_file, "--seeds", "4",
                           "--out", str(tmp_path))
        assert code == 3
        assert err.startswith("error: <nu, x>")

    def test_verify_pinch_not_applicable(self, tmp_path, capsys, fat_file):
        code, out, _ = run(capsys, "verify-pinch", "--surface", fat_file,
                           "--seeds", "4", "--out", str(tmp_path))
        assert code == 3
        assert "not applicable" in out

    def test_malformed_surface(self, tmp_path, capsys):
        bad = tmp_path / "bad_surface.json"
        bad.write_text("{}")
        code, _, err = run(capsys, "verify-pinch", "--surface", str(bad),
                           "--out", str(tmp_path))
        assert code == 1
        assert "malformed surface" in err

    def test_verify_ellipsoid(self, tmp_path, capsys):
        code, _, _ = run(capsys, "verify-ellipsoid", "--radii", "1.0,1.2",
                         "--seeds", "24", "--out", str(tmp_path))
        assert code == 0
        doc = load_report(tmp_path, "verify-ellipsoid")
        assert doc["oracle_matched"] is True
        assert doc["oracle_actions"] == pytest.approx(
            [math.pi, 1.44 * math.pi])

    def test_verify_ellipsoid_repeated_radius(self, tmp_path, capsys):
        # the repeated radius 1.0 makes pi a degenerate level (an S^3 of
        # circles), which collapses to one orbit and passes the count
        code, _, _ = run(capsys, "verify-ellipsoid", "--radii", "1.0,1.0,1.3",
                         "--seeds", "16", "--out", str(tmp_path))
        assert code == 0
        doc = load_report(tmp_path, "verify-ellipsoid")
        assert doc["oracle_matched"] is True
        assert doc["degenerate_levels"] == [pytest.approx(math.pi)]
        assert doc["distinct_count"] == 2

    def test_manifest_counts_flow_rounds(self, tmp_path, capsys,
                                         monkeypatch):
        calls = []
        flow = orbit_search.flow

        def counted(surface, requests):
            calls.append(len(requests))
            return flow(surface, requests)

        monkeypatch.setattr(orbit_search, "flow", counted)
        code, _, _ = run(capsys, "verify-ellipsoid", "--radii", "1.0,1.2",
                         "--seeds", "8", "--out", str(tmp_path))
        assert code == 0
        manifest = json.loads(Path(report_path(tmp_path, "manifest"))
                              .read_text())
        assert manifest["flow_rounds"] == len(calls) > 1
        assert manifest["flow_requests"] == sum(calls)
        # run counters stay out of the report, which stays byte-identical
        report = Path(report_path(tmp_path, "verify-ellipsoid")).read_text()
        assert "flow_" not in report


class TestInvalidInput:
    """Invalid surface files and windows exit 1 with a message that names
    the offending field."""

    @staticmethod
    def surface_file(tmp_path, kind, params, center=(0.0, 0.0, 0.0, 0.0)):
        path = tmp_path / "surface.json"
        # json writes NaN as the bare token NaN, which json.loads accepts
        path.write_text(json.dumps({"n": 2, "center": list(center),
                                    "kind": kind, "params": params}))
        return str(path)

    @staticmethod
    def cli_subprocess(*argv):
        """Run the CLI in a subprocess with a timeout, for inputs that once
        made it spin forever, so that a regression fails instead of hanging."""
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        return subprocess.run([sys.executable, "-m", "reebpinch.cli", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=60)

    @pytest.mark.parametrize("kind, params", [
        ("sphere", {"R": math.nan}),
        ("ellipsoid", {"radii": [math.nan, 1.2]})])
    def test_nan_size_exits_one_in_subprocess(self, tmp_path, kind, params):
        # a NaN radius once made the orbit search spin forever
        proc = self.cli_subprocess(
            "surface-orbits",
            "--surface", self.surface_file(tmp_path, kind, params),
            "--seeds", "2", "--out", str(tmp_path))
        assert proc.returncode == 1
        assert "malformed surface file" in proc.stderr
        assert "must be finite and > 0" in proc.stderr

    def test_negative_radius_exits_one(self, tmp_path, capsys):
        path = self.surface_file(tmp_path, "ellipsoid", {"radii": [-1.0, 1.2]})
        code, _, err = run(capsys, "verify-pinch", "--surface", path,
                           "--seeds", "2", "--out", str(tmp_path))
        assert code == 1
        assert "radii must be finite and > 0" in err

    def test_short_center_exits_one(self, tmp_path, capsys):
        path = self.surface_file(tmp_path, "sphere", {"R": 1.0},
                                 center=(0.0, 0.0, 0.0))
        code, _, err = run(capsys, "verify-pinch", "--surface", path,
                           "--seeds", "2", "--out", str(tmp_path))
        assert code == 1
        assert "center must be 4 finite numbers" in err

    def test_null_coef_exits_one(self, tmp_path, capsys):
        path = self.surface_file(tmp_path, "radial_series", {
            "R": 1.0, "terms": [{"indices": [0], "coef": None}]})
        code, _, err = run(capsys, "surface-orbits", "--surface", path,
                           "--seeds", "2", "--out", str(tmp_path))
        assert code == 1
        assert "malformed surface file" in err

    @pytest.mark.parametrize("term", [
        {"indices": [True, False], "coef": 0.01},
        {"indices": [0], "coef": True}])
    def test_boolean_term_field_exits_one(self, tmp_path, capsys, term):
        path = self.surface_file(tmp_path, "radial_series", {
            "R": 1.0, "terms": [{"indices": [1], "coef": 0.01}, term]})
        code, _, err = run(capsys, "verify-pinch", "--surface", path,
                           "--seeds", "2", "--out", str(tmp_path))
        assert code == 1
        assert "malformed surface file" in err
        assert "terms[1]" in err

    def test_window_from_zero_exits_one(self, tmp_path, capsys, sphere_file):
        code, _, err = run(capsys, "surface-orbits", "--surface", sphere_file,
                           "--seeds", "2", "--window", "0,3.5",
                           "--out", str(tmp_path))
        assert code == 1
        assert "action window must satisfy lo > 0" in err

    def test_infinite_window_end_exits_one_in_subprocess(self, tmp_path):
        # the coarse scan once integrated out to T = inf and never returned
        path = self.surface_file(tmp_path, "ellipsoid", {"radii": [1.0, 1.2]})
        proc = self.cli_subprocess(
            "surface-orbits", "--surface", path, "--seeds", "4",
            "--window", "2.8,inf", "--out", str(tmp_path))
        assert proc.returncode == 1
        assert "action window end must be finite" in proc.stderr

    @pytest.mark.parametrize("command, flag, value, message", [
        pytest.param("surface-orbits", "--tol", "nan",
                     "closure_tol must be finite, got nan", id="nan"),
        pytest.param("surface-orbits", "--tol", "inf",
                     "closure_tol must be finite, got inf", id="inf"),
        pytest.param("surface-orbits", "--seeds", "-1",
                     "seeds must be an integer >= 1, got -1",
                     id="orbits-seeds-negative"),
        pytest.param("surface-orbits", "--rng-seed", "-1",
                     "rng_seed must be an integer >= 0, got -1",
                     id="orbits-rng-seed-negative"),
        pytest.param("verify-ellipsoid", "--seeds", "-3",
                     "seeds must be an integer >= 1, got -3",
                     id="ellipsoid-seeds-negative"),
        pytest.param("verify-ellipsoid", "--seeds", "0",
                     "seeds must be an integer >= 1, got 0",
                     id="ellipsoid-seeds-zero"),
        pytest.param("verify-pinch", "--rng-seed", "-1",
                     "rng_seed must be an integer >= 0, got -1",
                     id="pinch-rng-seed-negative")])
    def test_bad_search_value_exits_one(self, tmp_path, capsys, command, flag,
                                        value, message):
        where = (["--radii", "1.0,1.2"] if command == "verify-ellipsoid" else
                 ["--surface", self.surface_file(tmp_path, "ellipsoid",
                                                 {"radii": [1.0, 1.2]})])
        seeds = [] if flag == "--seeds" else ["--seeds", "4"]
        code, _, err = run(capsys, command, *where, *seeds, flag, value,
                           "--out", str(tmp_path))
        assert code == 1
        assert message in err
        assert not list(tmp_path.glob(f"*_{command}.json"))

    @pytest.mark.parametrize("tol", ["0", "nan", "inf"])
    def test_bad_ode_tol_exits_one(self, tmp_path, capsys, tol):
        code, _, err = run(capsys, "ode-connect", "--tol", tol,
                           "--out", str(tmp_path))
        assert code == 1
        assert "tol must be finite and >= 2.220446049250313e-14" in err
        assert f"got {float(tol)!r}" in err
        assert not list(tmp_path.glob("*_ode-connect.json"))

    # F_end = R0 B - tol must lie within 1e-6 of R0 B, so no tol from 1e-6
    # up can pass; at 0.5 the RK45 steps overshoot R0 B
    @pytest.mark.parametrize("tol", ["0.5", "1e-6"])
    def test_ode_tol_above_band_exits_one(self, tmp_path, capsys, tol):
        code, _, err = run(capsys, "ode-connect", "--tol", tol,
                           "--out", str(tmp_path))
        assert code == 1
        assert "tol must be < 1e-06 (the F_end acceptance band)" in err
        assert f"got {float(tol)!r}" in err
        assert not list(tmp_path.glob("*_ode-connect.json"))

    def test_ode_tol_below_band_passes(self, tmp_path, capsys):
        code, _, _ = run(capsys, "ode-connect", "--tol", "1e-7",
                         "--out", str(tmp_path))
        assert code == 0
        doc = load_report(tmp_path, "ode-connect")
        assert abs(doc["F_end"] - doc["target"]) < 1e-6


class TestReportRoundTrip:
    def test_summarize_spectrum(self, tmp_path, capsys):
        run(capsys, "verify-ellipsoid", "--radii", "1.0,1.2", "--seeds",
            "24", "--out", str(tmp_path))
        src = report_path(tmp_path, "verify-ellipsoid")
        out2 = tmp_path / "second"
        code, _, _ = run(capsys, "report", "--input", src, "--out", str(out2))
        assert code == 0
        doc = load_report(out2, "report")
        assert doc["n_orbits"] == 2
        assert doc["all_in_window"] is True
        assert doc["pass"] is True

    def test_malformed_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, _, err = run(capsys, "report", "--input", str(bad),
                           "--out", str(tmp_path))
        assert code == 1
        assert "malformed report" in err

    @pytest.mark.parametrize("doc, field", [
        ({"orbits": 5}, "orbits must be a list of objects"),
        ({"orbits": [], "window": 3}, "window must be a list of 2 numbers"),
        ([], "the top level must be a JSON object"),
        ({"orbits": [{"period": 1.0}]}, "orbits[0] must be an object"),
        ({"orbits": [{"action": 1.0}, {"action": math.nan}]},
         "orbits[1] must be an object with a finite numeric action"),
        ({"orbits": [], "window": [1.0, True]},
         "window must be a list of 2 numbers")],
        ids=["orbits-number", "window-number", "top-level-list",
             "orbit-without-action", "nan-action", "boolean-window-end"])
    def test_malformed_report_shape_exits_one(self, tmp_path, capsys, doc,
                                              field):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "report", "--input", str(bad),
                             "--out", str(tmp_path))
        assert code == 1
        assert err.startswith(f"malformed report {bad}: {field}")
        assert out == ""
        assert not list(tmp_path.glob("*_report.json"))


class TestSerialization:
    def test_dumps17_round_trips_floats(self):
        vals = [math.pi, 0.1, 1e-300, 0.5 * math.exp(0.625)]
        text = cli._dumps17({"v": vals})
        doc = json.loads(text)
        assert doc["v"] == vals

    def test_manifest_excluded_from_report(self, tmp_path, capsys):
        run(capsys, "profile-check", "--R0", "1.5", "--A", "0.5", "--c",
            "0.8", "--out", str(tmp_path))
        rep = Path(report_path(tmp_path, "profile-check")).read_text()
        assert "wall_time" not in rep
        manifest = [f for f in os.listdir(tmp_path)
                    if f.endswith("_manifest.json")]
        assert len(manifest) == 1
        doc = json.loads((tmp_path / manifest[0]).read_text())
        assert doc["tool"] == "reebpinch"
        assert doc["wall_time_s"] >= 0.0

    def test_reports_byte_identical(self, tmp_path, capsys):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        for d in (d1, d2):
            run(capsys, "profile-check", "--R0", "1.5", "--A", "0.5",
                "--c", "0.8", "--out", str(d))
        assert Path(report_path(d1, "profile-check")).read_text() \
            == Path(report_path(d2, "profile-check")).read_text()
