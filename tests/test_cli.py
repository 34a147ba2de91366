import json
import os

import numpy as np
import pytest

from maggeo import cli
from maggeo.config import load_config, parse_config, serialize_config
from maggeo.errors import ConfigError

TORUS_FIND_ORBIT = """
[system]
builtin = flat_torus
b = 1.0

[task]
command = find-orbit
k = 0.5

[output]
dir = {out}
formats = json, csv
"""

SPHERE_FIND_ORBIT = """
[system]
builtin = round_sphere
b = 1

[task]
command = find-orbit
k = 0.5

[output]
dir = {out}
formats = json, csv
"""

SPHERE_CURVATURE = """
[system]
builtin = round_sphere

[task]
command = curvature
k = 0.5
samples = 64
seed = 7

[output]
dir = {out}
formats = csv, json
"""

EXPRESSION_SYSTEM = """
[system]
dimension = 2
g11 = 1
g12 = 0
g22 = 1
sigma12 = 1 + 0.5*sin(x1)
theta1 = 0
theta2 = x1 - 0.5*cos(x1)
lattice = 6.283185307179586, 6.283185307179586

[task]
command = curvature
k = 0.5
samples = 16
seed = 3

[output]
dir = {out}
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text.format(out=tmp_path / "out"))
    return str(path)


class TestConfigParsing:
    def test_round_trip_idempotent(self, tmp_path):
        path = write_config(tmp_path, TORUS_FIND_ORBIT)
        config = load_config(path)
        text1 = serialize_config(config)
        text2 = serialize_config(parse_config(text1))
        assert text1 == text2

    def test_schema_errors_exhaustive_with_paths(self):
        bad = """
[system]
builtin = no_such_system

[task]
command = find-orbit
tolerance = -1
mystery = 3
"""
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        problems = "\n".join(err.value.problems)
        assert "system.builtin" in problems
        assert "task.tolerance" in problems
        assert "task.mystery" in problems
        assert "task.k" in problems  # required by find-orbit

    def test_negative_tolerance_no_partial_outputs(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        out_dir = tmp_path / "out"
        cfg.write_text(f"""
[system]
builtin = flat_torus

[task]
command = find-orbit
k = 0.5
tolerance = -1e-8

[output]
dir = {out_dir}
""")
        status = cli.main(["--config", str(cfg)])
        assert status == 2
        assert not out_dir.exists()

    @pytest.mark.parametrize("line", ["method = shoot", "box = 0, 1, 0, 1"])
    def test_unread_task_keys_rejected(self, tmp_path, line):
        text = TORUS_FIND_ORBIT.replace("k = 0.5\n", f"k = 0.5\n{line}\n")
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError) as err:
            parse_config(text.format(out=tmp_path / "out"))
        assert err.value.problems == [f"task.{key}: unknown key"]
        assert cli.main(["--config", write_config(tmp_path, text)]) == 2
        assert not (tmp_path / "out").exists()

    def test_expression_system_builds(self, tmp_path):
        path = write_config(tmp_path, EXPRESSION_SYSTEM)
        config = load_config(path)
        assert config.system.dim == 2
        sig = config.system.two_form_at(np.array([np.pi / 2, 0.0]))
        assert sig[0, 1] == pytest.approx(1.5)
        # analytic derivatives from symbolic differentiation
        d = config.system.dtwo_form_at(np.array([0.0, 0.0]))
        assert d[0, 1, 0] == pytest.approx(0.5)

    def test_expression_errors_reported(self):
        bad = EXPRESSION_SYSTEM.replace("1 + 0.5*sin(x1)", "1 + 0.5*sin(x3)")
        with pytest.raises(ConfigError) as err:
            parse_config(bad.format(out="unused"))
        assert any("sigma12" in p for p in err.value.problems)


class TestCommands:
    def test_find_orbit_torus(self, tmp_path):
        path = write_config(tmp_path, TORUS_FIND_ORBIT)
        status = cli.main(["--config", path])
        assert status == 0
        record = json.loads((tmp_path / "out" / "orbit_record.json").read_text())
        assert record["period"] == pytest.approx(2 * np.pi, abs=1e-6)
        assert record["index"] == 1
        assert record["certified"] is True
        assert record["checks"]["bonnet_myers_ok"] is True
        assert (tmp_path / "out" / "orbit_record.csv").exists()

    def test_find_orbit_sphere_defaults(self, tmp_path):
        # the default seed's orbit passes through the other chart's pole, so
        # the record is built from the transition image of its start state
        path = write_config(tmp_path, SPHERE_FIND_ORBIT)
        assert cli.main(["--config", path]) == 0
        record = json.loads((tmp_path / "out" / "orbit_record.json").read_text())
        assert record["kind"] == "orbit_record"
        assert record["certified"] is True
        assert record["index"] == 1
        # the attained Bonnet-Myers bound pi sqrt(2) (min Ric_k = 1/2)
        assert record["period"] == pytest.approx(np.pi * np.sqrt(2.0), abs=1e-8)
        assert record["checks"]["synge_ok"] is True
        assert not (tmp_path / "out" / "error.json").exists()

    def test_curvature_sphere_constant_one(self, tmp_path):
        path = write_config(tmp_path, SPHERE_CURVATURE)
        assert cli.main(["--config", path]) == 0
        rows = (tmp_path / "out" / "curvature.csv").read_text().splitlines()
        header = rows[0].split(",")
        sec_col = header.index("sec")
        values = [float(r.split(",")[sec_col]) for r in rows[1:]]
        assert len(values) == 64
        assert np.allclose(values, 1.0, atol=1e-10)

    def test_deterministic_outputs(self, tmp_path):
        path = write_config(tmp_path, SPHERE_CURVATURE)
        cli.main(["--config", path])
        first = (tmp_path / "out" / "curvature.csv").read_bytes()
        first_json = (tmp_path / "out" / "curvature.json").read_bytes()
        cli.main(["--config", path])
        assert (tmp_path / "out" / "curvature.csv").read_bytes() == first
        assert (tmp_path / "out" / "curvature.json").read_bytes() == first_json

    def test_seed_override_changes_samples(self, tmp_path):
        path = write_config(tmp_path, SPHERE_CURVATURE)
        cli.main(["--config", path])
        base = (tmp_path / "out" / "curvature.csv").read_bytes()
        cli.main(["--config", path, "--seed", "99"])
        assert (tmp_path / "out" / "curvature.csv").read_bytes() != base

    def test_scan_and_theorem_b(self, tmp_path):
        cfg = tmp_path / "scan.cfg"
        out_dir = tmp_path / "outs"
        cfg.write_text(f"""
[system]
builtin = flat_torus

[task]
command = scan-k0
k_grid = 0.25, 0.5, 1.0
sample_budget = 16
seed = 5

[output]
dir = {out_dir}
""")
        assert cli.main(["--config", str(cfg)]) == 0
        scan = json.loads((out_dir / "scan_k0.json").read_text())
        assert scan["k0_ric"] == 1.0

        cfg2 = tmp_path / "thb.cfg"
        cfg2.write_text(f"""
[system]
builtin = round_sphere

[task]
command = theorem-b
k0 = 0.5
k_steps = 3
grid = 6, 6

[output]
dir = {out_dir}
""")
        assert cli.main(["--config", str(cfg2)]) == 0
        thb = json.loads((out_dir / "theorem_b.json").read_text())
        assert all(thb["positive"])

    def test_mane_bound_hyperbolic(self, tmp_path):
        cfg = tmp_path / "mane.cfg"
        out_dir = tmp_path / "outm"
        cfg.write_text(f"""
[system]
builtin = hyperbolic_chart

[task]
command = mane-bound
radii = 1, 2

[output]
dir = {out_dir}
""")
        assert cli.main(["--config", str(cfg)]) == 0
        payload = json.loads((out_dir / "mane_bound.json").read_text())
        assert payload["bound"] == pytest.approx(0.5, abs=1e-10)

    def test_transport_command(self, tmp_path):
        cfg = tmp_path / "tr.cfg"
        out_dir = tmp_path / "outt"
        cfg.write_text(f"""
[system]
builtin = flat_torus

[task]
command = transport
k = 0.5
t_end = 6.283185307179586
v0 = 0.3, 0.5

[output]
dir = {out_dir}
""")
        assert cli.main(["--config", str(cfg)]) == 0
        payload = json.loads((out_dir / "transport.json").read_text())
        assert payload["norm_drift"] < 1e-8

    def test_report_command(self, tmp_path):
        cfg = tmp_path / "rep.cfg"
        out_dir = tmp_path / "outr"
        cfg.write_text(f"""
[system]
builtin = flat_torus

[task]
command = report
k = 0.5

[output]
dir = {out_dir}
formats = json
""")
        assert cli.main(["--config", str(cfg)]) == 0
        payload = json.loads((out_dir / "report.json").read_text())
        assert payload["orbit"]["certified"] is True
        assert payload["schema_version"] == 1

    def test_missing_config_file(self, tmp_path):
        assert cli.main(["--config", str(tmp_path / "nope.cfg")]) == 2

    def test_runtime_failure_writes_error_json(self, tmp_path):
        # mane-bound without a primitive: a runtime failure, not a schema one
        cfg = tmp_path / "noprim.cfg"
        out_dir = tmp_path / "oute"
        cfg.write_text(f"""
[system]
dimension = 2
g11 = 1
g12 = 0
g22 = 1
sigma12 = 1

[task]
command = mane-bound
radii = 1, 2

[output]
dir = {out_dir}
""")
        status = cli.main(["--config", str(cfg)])
        assert status == 1
        payload = json.loads((out_dir / "error.json").read_text())
        assert payload["kind"] == "error"
        assert "primitive" in payload["message"]
