import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from maggeo import cli, solve
from maggeo.config import (_TASK_CONVERTERS, COMMAND_KEYS, load_config, parse_config,
                           serialize_config)
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

# a radial great circle at speed 1/2 that ends at the far pole, one chart swap away
SPHERE_POLE_TRANSPORT = """
[system]
builtin = round_sphere

[task]
command = transport
k = 0.125
seed_x = 0, 0
seed_v = 1, 0
t_end = 6.283185307179586
v0 = 0, 0.3

[output]
dir = {out}
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


# a valid value of every [task] key
TASK_VALUES = {
    "k": "0.5", "k_grid": "0.5, 1", "k0": "0.5", "t_end": "1", "t_guess": "1",
    "tolerance": "1e-10", "seed": "3", "seed_x": "0, 0", "seed_v": "1, 0", "v0": "0, 1",
    "nodes": "64", "modes": "8", "samples": "16", "sample_budget": "16", "k_steps": "2",
    "grid": "4, 4", "contractible": "true", "center": "0, 0", "radii": "1",
}


# a small run of every command: [system] and [task] lines
COMMAND_RUNS = {
    "integrate": ("builtin = sine_field_torus", "k = 0.3\nt_end = 3\nsamples = 65"),
    "curvature": ("builtin = sine_field_torus", "k = 0.5\nsamples = 16"),
    "scan-k0": ("builtin = sine_field_torus", "k_grid = 0.25, 0.5\nsample_budget = 16"),
    "theorem-b": ("builtin = sine_field_torus", "k0 = 1\nk_steps = 2\ngrid = 6, 6"),
    "find-orbit": ("builtin = flat_torus", "k = 0.5\nnodes = 64\nmodes = 8"),
    "index": ("builtin = flat_torus", "k = 0.5\nnodes = 64\nmodes = 8"),
    "transport": ("builtin = flat_torus", "k = 0.5\nv0 = 0.3, 0.5"),
    "bonnet-myers": ("builtin = sine_field_torus",
                     "k_grid = 0.1, 0.25, 0.5\nnodes = 64\nmodes = 8"),
    "mane-bound": ("builtin = hyperbolic_chart", "radii = 1, 2\nsamples = 256"),
    "report": ("builtin = flat_torus", "k = 0.5\nnodes = 64\nmodes = 8"),
}


def run_command(tmp_path, command):
    """Run ``command``'s small config through ``cli.main``; (status, output dir)."""
    system, task = COMMAND_RUNS[command]
    out = tmp_path / "out"
    path = tmp_path / "run.cfg"
    path.write_text(f"[system]\n{system}\n\n[task]\ncommand = {command}\n{task}\n\n"
                    f"[output]\ndir = {out}\n")
    return cli.main(["--config", str(path)]), out


def task_config(command, keys, out):
    lines = [f"command = {command}"] + [f"{key} = {TASK_VALUES[key]}" for key in keys]
    return ("[system]\nbuiltin = flat_torus\n\n[task]\n" + "\n".join(lines)
            + f"\n\n[output]\ndir = {out}\n")


def readme_command_table():
    """The README's CLI table: {command: (required keys, {optional key: its
    default as written, or None where the table says "derived"})}."""
    table = {}
    for line in (Path(__file__).parents[1] / "README.md").read_text().splitlines():
        if not line.startswith("| `"):
            continue
        command, required, optional = line.strip("| ").split(" | ")
        defaults = {}
        for entry, derived in re.findall(r"`([^`]+)`( \(derived\))?", optional):
            key, _, raw = entry.partition(" = ")
            defaults[key] = None if derived else raw
        table[command.strip("`")] = (tuple(re.findall(r"`([^`]+)`", required)), defaults)
    return table


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

    @pytest.mark.parametrize("command", sorted(COMMAND_KEYS))
    def test_keys_of_other_commands_rejected(self, tmp_path, command):
        required, optional = COMMAND_KEYS[command]
        foreign = sorted(set(TASK_VALUES) - set(required) - set(optional))
        others = {key for cmd, keys in COMMAND_KEYS.items() if cmd != command
                  for key in (*keys[0], *keys[1])}
        assert foreign and set(foreign) <= others
        out = tmp_path / "out"
        assert parse_config(task_config(command, (*required, *optional), out)).command == command
        with pytest.raises(ConfigError) as err:
            parse_config(task_config(command, required + tuple(foreign), out))
        assert err.value.problems == [f"task.{key}: not read by command {command!r}"
                                      for key in foreign]
        path = tmp_path / "run.cfg"
        path.write_text(task_config(command, required + tuple(foreign), out))
        assert cli.main(["--config", str(path)]) == 2
        assert not out.exists()

    def test_readme_table_is_the_command_table(self):
        table = readme_command_table()
        assert set(table) == set(COMMAND_KEYS) == set(cli._DISPATCH) == set(COMMAND_RUNS)
        for command, (required, optional) in COMMAND_KEYS.items():
            assert table[command][0] == required
            written = table[command][1]
            assert list(written) == list(optional)
            for key, default in optional.items():
                if default is None:
                    assert written[key] is None, (command, key)
                    continue
                value = _TASK_CONVERTERS[key](written[key])
                assert (tuple(value) if isinstance(default, tuple) else value) == default

    @pytest.mark.parametrize("base, lines", [
        (TORUS_FIND_ORBIT, ["dimension = 3", "derivatives = fd", "g11 = 5"]),
        (EXPRESSION_SYSTEM, ["foo = 1", "scheme = fd", "sigmaa = 2", "fd_step = 1e-4"]),
    ], ids=["builtin", "expression"])
    def test_unread_system_keys_rejected(self, tmp_path, base, lines):
        text = base.replace("[system]\n", "[system]\n" + "".join(f"{ln}\n" for ln in lines))
        with pytest.raises(ConfigError) as err:
            parse_config(text.format(out=tmp_path / "out"))
        keys = sorted(line.split(" = ")[0] for line in lines)
        assert err.value.problems == [f"system.{key}: unknown key" for key in keys]
        assert cli.main(["--config", write_config(tmp_path, text)]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("system, task, problem", [
        ("builtin = sine_field_torus", "command = integrate\nk = nan",
         "task.k: could not parse 'nan'"),
        ("builtin = sine_field_torus", "command = integrate\nk = 1e400",
         "task.k: could not parse '1e400'"),
        ("builtin = sine_field_torus", "command = integrate\nk = 0.5\nseed_x = inf, 0",
         "task.seed_x: could not parse 'inf, 0'"),
        ("builtin = sine_field_torus", "command = curvature\nk = 0.5\nseed = inf",
         "task.seed: could not parse 'inf'"),
        ("builtin = sine_field_torus", "command = find-orbit\nk = 0.5\nnodes = -inf",
         "task.nodes: could not parse '-inf'"),
        ("builtin = sine_field_torus", "command = scan-k0\nk_grid = 0.1, nan",
         "task.k_grid: could not parse '0.1, nan'"),
        ("builtin = sine_field_torus\nbase = nan", "command = scan-k0\nk_grid = 0.1, 0.5",
         "system.base: not a finite number"),
        ("builtin = flat_torus\nb = -inf", "command = curvature\nk = 0.5",
         "system.b: not a finite number"),
        ("dimension = 2\ng11 = 1\ng22 = 1\nderivatives = fd\nfd_step = inf",
         "command = curvature\nk = 0.5", "system.fd_step: not a finite number"),
        ("dimension = 2\ng11 = 1\ng22 = 1\nlattice = 6.283185307179586, nan",
         "command = curvature\nk = 0.5", "system.lattice: not a list of finite numbers"),
    ])
    def test_non_finite_numbers_rejected(self, tmp_path, capsys, system, task, problem):
        """nan and inf, also from an overflowing literal, are schema problems
        (exit 2, no outputs) naming the key, not runtime failures."""
        out = tmp_path / "out"
        text = f"[system]\n{system}\n\n[task]\n{task}\n\n[output]\ndir = {out}\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.problems == [problem]
        path = tmp_path / "run.cfg"
        path.write_text(text)
        assert cli.main(["--config", str(path)]) == 2
        assert f"config error: {problem}\n" == capsys.readouterr().err
        assert not out.exists()

    def test_fd_step_read_with_fd_derivatives(self):
        text = EXPRESSION_SYSTEM.replace("[system]\n", "[system]\nderivatives = fd\nfd_step = 1e-4\n")
        config = parse_config(text.format(out="out"))
        assert config.system.scheme == "fd"
        assert config.system.fd_step == 1e-4

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


PERIOD_TOL = 1e-6
# the builtins whose closed orbits at energy k are known: (T, multiples)
# with T their period, or, where multiples holds, the period of their first
# turn, so that an orbit of several turns has a multiple of it; T is None
# where no contractible closed orbit exists
ORBIT_PERIODS = {
    # the cyclotron circle of the uniform field b = 1
    "flat_torus": lambda k: (2.0 * np.pi, False),
    # great circles at speed sqrt(2k)
    "round_sphere_b0": lambda k: (2.0 * np.pi / np.sqrt(2.0 * k), False),
    # circles of the unit sphere with b = 1; the default seed's orbit may
    # be found after several turns
    "round_sphere_b1": lambda k: (2.0 * np.pi / np.sqrt(2.0 * k + 1.0), True),
    # closed orbits below the Mane critical value b^2/2 = 1/2 only
    "hyperbolic_chart": lambda k: ((2.0 * np.pi / np.sqrt(1.0 - 2.0 * k) if k < 0.5 else None),
                                   False),
}


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

    @pytest.mark.parametrize("k", [0.1, 0.5, 2.0])
    @pytest.mark.parametrize("system", ["flat_torus", "sine_field_torus", "round_sphere\nb = 0",
                                        "round_sphere\nb = 1", "hyperbolic_chart"],
                             ids=["flat_torus", "sine_field_torus", "round_sphere_b0",
                                  "round_sphere_b1", "hyperbolic_chart"])
    def test_find_orbit_ends_in_record_or_classified_failure(self, tmp_path, system, k):
        # every builtin at CLI default seeds: a certified record, or a
        # search failure that names why, never an unclassified error; where
        # the builtin's closed orbits are known, the record has their period
        out = tmp_path / "out"
        config = parse_config(f"[system]\nbuiltin = {system}\n\n[task]\ncommand = find-orbit\n"
                              f"k = {k}\nnodes = 128\nmodes = 16\n\n[output]\ndir = {out}\n")
        status = cli.run(config)
        assert not (out / "error.json").exists()
        record = json.loads((out / "orbit_record.json").read_text())
        if record["kind"] == "orbit_record":
            assert status == 0 and record["certified"] is True
        else:
            assert status == 1 and record["kind"] == "search_failure"
            assert record["reason"] in ("stalled", "max_iterations", "singular", "chart_swap",
                                        "closure_gate", "eta_gate", "period_collapse",
                                        "seed_flow")
        oracle = ORBIT_PERIODS.get(system.replace("\nb = ", "_b"))
        if oracle is None:
            return
        period, multiples = oracle(k)
        if period is None:
            assert record["kind"] == "search_failure"
            return
        assert record["kind"] == "orbit_record"
        turns = round(record["period"] / period) if multiples else 1
        assert turns >= 1
        assert record["period"] == pytest.approx(turns * period, abs=PERIOD_TOL)

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

    @pytest.mark.parametrize("command", sorted(COMMAND_RUNS))
    def test_every_command_writes_the_same_bytes_twice(self, tmp_path, command):
        outputs = []
        for _ in range(2):
            status, out = run_command(tmp_path, command)
            outputs.append((status, {path.name: path.read_bytes()
                                     for path in sorted(out.iterdir())}))
        assert outputs[0][1] and outputs[0] == outputs[1]

    def test_integrate_command(self, tmp_path):
        status, out = run_command(tmp_path, "integrate")
        assert status == 0
        payload = json.loads((out / "orbit.json").read_text())
        assert payload["kind"] == "orbit" and payload["n_samples"] == 65
        assert payload["energy_drift"] < 1e-8
        rows = (out / "orbit.csv").read_text().splitlines()
        assert rows[0] == "t,x1,x2,v1,v2,E" and len(rows) == 66

    def test_index_command(self, tmp_path):
        status, out = run_command(tmp_path, "index")
        assert status == 0
        payload = json.loads((out / "index_report.json").read_text())
        assert payload["kind"] == "index_report"
        assert payload["negative"] == 1 and payload["mode_count"] == 8
        rows = (out / "index_report.csv").read_text().splitlines()
        assert len(rows) == len(payload["eigenvalues"]) + 1

    def test_bonnet_myers_sweep(self, tmp_path):
        status, out = run_command(tmp_path, "bonnet-myers")
        assert status == 0
        payload = json.loads((out / "bonnet_myers.json").read_text())
        assert payload["k_grid"] == [0.1, 0.25, 0.5]
        assert [r["k"] for r in payload["records"]] == payload["k_grid"]
        for record in payload["records"]:
            assert record["kind"] == "orbit_record" and record["certified"] is True
            assert record["checks"]["bonnet_myers_ok"] is True
        rows = (out / "bonnet_myers.csv").read_text().splitlines()
        assert len(rows) == 4

    def test_seed_override_changes_samples(self, tmp_path):
        path = write_config(tmp_path, SPHERE_CURVATURE)
        cli.main(["--config", path])
        base = (tmp_path / "out" / "curvature.csv").read_bytes()
        cli.main(["--config", path, "--seed", "99"])
        assert (tmp_path / "out" / "curvature.csv").read_bytes() != base

    @pytest.mark.parametrize("command", sorted(cmd for cmd, keys in COMMAND_KEYS.items()
                                               if "seed" not in (*keys[0], *keys[1])))
    def test_seed_override_rejected_where_unread(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        path = tmp_path / "run.cfg"
        path.write_text(task_config(command, COMMAND_KEYS[command][0], out))
        assert cli.main(["--config", str(path), "--seed", "7"]) == 2
        assert capsys.readouterr().err == (
            f"config error: --seed: not read by command {command!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, line, problem", [
        ("integrate", "seed_x = 0, 0, 0", "task.seed_x: needs 2 entries, one per coordinate, got 3"),
        ("find-orbit", "seed_x = 0, 0, 0", "task.seed_x: needs 2 entries, one per coordinate, got 3"),
        ("transport", "v0 = 1, 0, 0", "task.v0: needs 2 entries, one per coordinate, got 3"),
        ("integrate", "seed_v = 0, 0", "task.seed_v: must be nonzero"),
        ("mane-bound", "center = 0", "task.center: needs 2 entries, one per coordinate, got 1"),
    ])
    def test_seed_vectors_checked_against_the_dimension(self, tmp_path, capsys, command, line,
                                                        problem):
        """A point or vector of the wrong length, or a zero seed velocity, is
        a schema problem (exit 2, no outputs), not a runtime failure."""
        out = tmp_path / "out"
        required = "\n".join(f"{key} = {TASK_VALUES[key]}" for key in COMMAND_KEYS[command][0])
        text = (f"[system]\nbuiltin = sine_field_torus\n\n[task]\ncommand = {command}\n"
                f"{required}\n{line}\n\n[output]\ndir = {out}\n")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.problems == [problem]
        path = tmp_path / "run.cfg"
        path.write_text(text)
        assert cli.main(["--config", str(path)]) == 2
        assert problem in capsys.readouterr().err
        assert not out.exists()

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

    def test_transport_through_a_chart_swap(self, tmp_path):
        path = write_config(tmp_path, SPHERE_POLE_TRANSPORT)
        outputs = []
        for _ in range(2):
            assert cli.main(["--config", path]) == 0
            outputs.append([(tmp_path / "out" / name).read_bytes()
                            for name in ("transport.csv", "transport.json")])
        assert outputs[0] == outputs[1]

    def test_bonnet_myers_search_options(self, tmp_path, monkeypatch):
        # the tolerance reaches the continuation too; the config is not written
        seen = {}

        def fake_find_orbit(sys, k, state, t_guess, **options):
            seen["find_orbit"] = (k, options["tol"])
            return object()

        def fake_continue(sys, record, k_grid, **options):
            seen["continue"] = (list(k_grid), options["tol"])
            raise ValueError("stop")

        monkeypatch.setattr(solve, "find_orbit", fake_find_orbit)
        monkeypatch.setattr(solve, "continue_in_k", fake_continue)
        config = parse_config(task_config("bonnet-myers", ("k_grid", "tolerance"),
                                          tmp_path / "out"))
        assert cli.run(config) == 1
        assert seen == {"find_orbit": (0.5, 1e-10), "continue": ([1.0], 1e-10)}
        assert "k" not in config.task

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
