"""The benchmark's workloads: inputs generated from a seed, one user-facing
operation, and the checks on its output.

Each workload puts most of its time in a different layer (see README.md):
``sweep`` in ``flow`` and ``loop`` (CLI ``bonnet-myers``), ``descent`` in
the Levenberg-Marquardt closing residual of ``solve.gradient_search``, and
``scan`` in ``expr`` and ``geom`` (CLI ``scan-k0`` on an expression system).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

K_GRID = (0.1, 0.25, 0.5, 1.0, 2.0)
# loop resolution of the sweep's index solves; the CLI defaults (512 nodes,
# 32 modes) make one operation 20-25 s, too long to repeat within a run
SWEEP_NODES = 128
SWEEP_MODES = 16
PERIOD_TOL = 1e-6
SCAN_TOL = 1e-8
# scan seeds with a committed reference; the workload seed picks one of them
SCAN_SEEDS = 64


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


@dataclass
class Outcome:
    """What one operation produced: exit status, output bytes by name, and
    the parsed result the checks read."""

    status: int
    files: dict
    result: object


def read_outputs(outdir):
    files = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            files[name] = fh.read()
    return files


def _close(value, expected, tol):
    return abs(float(value) - float(expected)) <= tol * max(1.0, abs(float(expected)))


class CliWorkload:
    """A workload that runs one CLI command through ``cli.run`` on a
    config parsed from text; outputs are the files the command writes."""

    name = ""
    command_output = ""

    def config_text(self, outdir):
        raise NotImplementedError

    def setup_source(self):
        """Python run in a fresh interpreter to time set-up."""
        return ("import maggeo.cli\n"
                "from maggeo.config import parse_config\n"
                f"parse_config({self.config_text('setup-out')!r})\n")

    def prepare(self, outdir):
        from maggeo.config import parse_config
        return parse_config(self.config_text(outdir))

    def run(self, config, outdir):
        from maggeo import cli
        status = cli.run(config)
        files = read_outputs(outdir)
        result = json.loads(files[self.command_output]) if self.command_output in files else None
        return Outcome(status, files, result)


class Sweep(CliWorkload):
    """CLI ``bonnet-myers`` on ``sine_field_torus`` over the five-energy grid."""

    name = "sweep"
    command_output = "bonnet_myers.json"

    def __init__(self, reference, x2):
        self.x2 = float(x2)
        self.periods = [reference["sweep_periods"][repr(k)] for k in K_GRID]

    @classmethod
    def draw(cls, rng, reference):
        return cls(reference, x2=rng.uniform(0.0, 2.0 * math.pi))

    def config_text(self, outdir):
        lines = [
            "[system]", "builtin = sine_field_torus", "base = 1", "amp = 0.2", "",
            "[task]", "command = bonnet-myers",
            "k_grid = " + ", ".join(repr(k) for k in K_GRID),
            f"seed_x = {math.pi / 2.0!r}, {self.x2!r}",
            "seed_v = 1, 0",
            # explicit: the CLI default 2 pi/|b| would skip the shooting layer
            f"t_guess = {2.0 * math.pi / 1.2!r}",
            f"nodes = {SWEEP_NODES}", f"modes = {SWEEP_MODES}",
            "", "[output]", f"dir = {outdir}", "",
        ]
        return "\n".join(lines)

    def check(self, outcome):
        problems = []
        if outcome.status != 0:
            problems.append(f"exit status {outcome.status}")
        records = (outcome.result or {}).get("records", [])
        if len(records) != len(K_GRID):
            return problems + [f"{len(records)} records, expected {len(K_GRID)}"]
        for rec, k, period in zip(records, K_GRID, self.periods):
            if rec.get("kind") != "orbit_record" or not rec.get("certified"):
                problems.append(f"k={k}: not a certified orbit record")
                continue
            if not rec["checks"].get("bonnet_myers_ok"):
                problems.append(f"k={k}: bonnet_myers_ok is false")
            if rec["index"] != 1:
                problems.append(f"k={k}: index {rec['index']}, expected 1")
            if not _close(rec["period"], period, PERIOD_TOL):
                problems.append(f"k={k}: period {rec['period']!r}, expected {period!r}")
        return problems


class Scan(CliWorkload):
    """CLI ``scan-k0`` on a 3-D expression system with a closed two-form."""

    name = "scan"
    command_output = "scan_k0.json"
    SYSTEM = (
        "dimension = 3",
        "g11 = 1.2 + 0.2*sin(x2)",
        "g22 = 1 + 0.1*cos(x3)",
        "g33 = 1",
        "g23 = 0.05*sin(x1)",
        "sigma12 = 1",
        "sigma13 = -0.2*cos(x3)",
        "sigma23 = 0.5*cos(x2)",
        # sigma = d theta, so the system stays valid under input checks
        "theta1 = 0.2*sin(x3)",
        "theta2 = x1",
        "theta3 = 0.5*sin(x2)",
    )

    def __init__(self, reference, scan_seed, k_grid=K_GRID, sample_budget=64):
        self.scan_seed = int(scan_seed)
        self.k_grid = tuple(k_grid)
        self.sample_budget = sample_budget
        self.expected = reference["scan"].get(str(self.scan_seed))

    @classmethod
    def draw(cls, rng, reference):
        return cls(reference, scan_seed=rng.integers(SCAN_SEEDS))

    def config_text(self, outdir):
        lines = ["[system]", *self.SYSTEM, "",
                 "[task]", "command = scan-k0",
                 "k_grid = " + ", ".join(repr(float(k)) for k in self.k_grid),
                 f"sample_budget = {self.sample_budget}",
                 f"seed = {self.scan_seed}", "",
                 "[output]", f"dir = {outdir}", ""]
        return "\n".join(lines)

    def check(self, outcome):
        problems = []
        if outcome.status != 0:
            problems.append(f"exit status {outcome.status}")
        got = outcome.result
        if got is None:
            return problems + ["no scan_k0.json"]
        if self.expected is None:
            return problems + [f"no reference for scan seed {self.scan_seed}"]
        for key in ("k0_sec", "k0_ric"):
            if not _close(got[key], self.expected[key], SCAN_TOL):
                problems.append(f"{key} {got[key]!r}, expected {self.expected[key]!r}")
        for key in ("min_sec", "min_ric"):
            if len(got[key]) != len(self.expected[key]) or not all(
                    _close(a, b, SCAN_TOL) for a, b in zip(got[key], self.expected[key])):
                problems.append(f"{key} {got[key]!r}, expected {self.expected[key]!r}")
        return problems

    def reference_entry(self, outcome):
        return {key: outcome.result[key] for key in ("k0_sec", "k0_ric", "min_sec", "min_ric")}


class Descent:
    """``solve.gradient_search`` (LM mode) from a field-aware seed circle on
    the flat torus; the CLI cannot reach this path."""

    name = "descent"
    K = 0.5
    N_NODES = 24
    # resolution of the polish step's record (the defaults are 512 nodes
    # and 32 modes), so that the LM search keeps most of the time
    POLISH = {"n_nodes": 128, "mode_count": 16}

    def __init__(self, center):
        self.center = np.asarray(center, dtype=float)

    @classmethod
    def draw(cls, rng, reference):
        return cls(center=rng.uniform(0.0, 2.0 * math.pi, size=2))

    def setup_source(self):
        return ("import maggeo.solve\n"
                "from maggeo.systems import flat_torus\n"
                "flat_torus()\n")

    def prepare(self, outdir):
        from maggeo.systems import flat_torus
        return flat_torus()

    def run(self, system, outdir):
        from maggeo import solve
        loop = solve.orbit_seed_loop(system, self.K, self.center,
                                     n_nodes=self.N_NODES, radius_scale=0.5)
        record = solve.gradient_search(system, self.K, loop, schedule=self.POLISH)
        text = json.dumps(record.to_json(), sort_keys=True)
        return Outcome(0, {"record.json": text.encode()}, record)

    def check(self, outcome):
        from maggeo import solve
        record = outcome.result
        if not isinstance(record, solve.OrbitRecord):
            return [f"search failed: {getattr(record, 'reason', record)!r}"]
        problems = []
        if not record.certified:
            problems.append("record not certified")
        if record.method != "gradient_search":
            problems.append(f"method {record.method!r}")
        if abs(record.period - 2.0 * math.pi) >= PERIOD_TOL:
            problems.append(f"period {record.period!r}, expected 2 pi")
        return problems


WORKLOADS = {cls.name: cls for cls in (Sweep, Descent, Scan)}


def draw(name, seed, op, reference):
    """The inputs of operation ``op`` of a run with workload seed ``seed``."""
    return WORKLOADS[name].draw(np.random.default_rng([seed, op]), reference)
