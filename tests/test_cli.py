"""In-process tests for the command-line interface: exit codes, config
handling, report files, and deterministic serialization."""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from reebpinch import cli
from reebpinch.contact_dynamics import AmbientSpace, StarshapedSurface, \
    surface_to_json


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

    def test_integration_error_exit_two(self, tmp_path, capsys):
        code, _, err = run(capsys, "ode-connect",
                           "--R0", "1.7095635533332825",
                           "--A", "0.1522833537310362",
                           "--c", "0.6908444119617343", "--out", str(tmp_path))
        assert code == 2
        assert err.startswith("error: no bracket")


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
