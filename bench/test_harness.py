"""Fast self-test of the benchmark harness at tiny sizes.

Run from the root of a checkout::

    python3 -m pytest -q bench/test_harness.py
"""

from __future__ import annotations

import os
import signal
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import calibration  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from maggeo import flow, geom, solve, systems  # noqa: E402

TINY_K = (0.5, 1.0)


def tiny_scan(reference=None):
    return workloads.Scan(reference or {"scan": {}}, scan_seed=3, k_grid=TINY_K,
                          sample_budget=8)


@pytest.fixture
def runner(tmp_path, monkeypatch):
    """A scan runner whose operations are the tiny scan, with its reference."""
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    r = run.Runner("scan", 0, None)
    _, outcome, _, _ = r.operation(tiny_scan())
    reference = {"scan": {"3": tiny_scan().reference_entry(outcome)}}
    monkeypatch.setattr(workloads, "draw", lambda *args: tiny_scan(reference))
    yield r
    r.close()


def bindings():
    """Identity of every value bound in the maggeo modules, in the dicts
    they hold, in the classes they define, and of scipy.linalg.eigh."""
    import scipy.linalg

    out = {("scipy.linalg", "eigh"): scipy.linalg.eigh}
    for modname, mod in list(sys.modules.items()):
        if not modname.startswith("maggeo"):
            continue
        for key, value in vars(mod).items():
            out[(modname, key)] = value
            if isinstance(value, dict):
                for dkey, dvalue in value.items():
                    out[(modname, key, dkey)] = dvalue
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    out[(modname, key, attr)] = member
    return out


def test_wrappers_removed_after_traced_run(runner):
    before = bindings()
    tracer = spans.Tracer()
    runner.operation(tiny_scan(), tracer)
    after = bindings()
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert changed == []
    assert tracer.spans() > 0
    spans_before = tracer.spans()
    runner.operation(tiny_scan())
    assert tracer.spans() == spans_before


def test_every_binding_site_is_traced():
    torus = systems.flat_torus()
    tracer = spans.Tracer()
    with tracer.installed():
        # solve binds integrate by name; riemann_tensor calls christoffel
        # inside geom
        solve.integrate(torus, flow.PhaseState(np.zeros(2), np.array([1.0, 0.0])), 0.5,
                        samples=3)
        geom.riemann_tensor(torus, np.zeros(2))
    per = tracer.per_name()
    assert per["maggeo.flow:integrate"][0] == 1
    assert tracer.extra["flow.nfev"] > 0
    assert per["maggeo.geom:christoffel"][0] >= 1
    assert per["maggeo.geom:ChartedSystem.metric_at"][0] >= 1
    assert solve.integrate is flow.integrate


def test_self_times_add_up():
    tracer = spans.Tracer()
    with tracer.installed():
        geom.riemann_tensor(systems.round_sphere(), np.array([0.3, 0.2]))
    total_self = sum(s for _, s, _ in tracer.per_name().values())
    root = tracer.span_end[0] - tracer.span_start[0]
    assert total_self == pytest.approx(root, rel=1e-9)


def test_corrupted_output_counted(runner, monkeypatch):
    samples, _, failed = run.measure(runner, 0.0)
    assert (len(samples), failed) == (run.MIN_OPERATIONS, 0)

    original = workloads.Scan.run

    def corrupted(self, config, outdir):
        outcome = original(self, config, outdir)
        outcome.result["min_sec"][0] += 1e-6
        return outcome

    monkeypatch.setattr(workloads.Scan, "run", corrupted)
    samples, _, failed = run.measure(runner, 0.0)
    assert (len(samples), failed) == (run.MIN_OPERATIONS, run.MIN_OPERATIONS)


def test_calibration_runs_inside_and_is_restored():
    cal = calibration.Calibration()
    handler = signal.getsignal(signal.SIGALRM)
    with cal.running() as pieces:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
    assert len(pieces) >= 5
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler


def test_calibrated_operations(runner, monkeypatch):
    monkeypatch.setattr(calibration, "EVERY_S", 0.002)  # pieces in tiny operations too
    runner.calibration = calibration.Calibration()
    samples, calibrated, failed = run.measure(runner, 0.0)
    assert failed == 0
    assert len(calibrated) == len(samples) == run.MIN_OPERATIONS
    assert all(seconds > 0 for seconds in calibrated)
    assert runner.last_pieces
    assert calibration.reference_seconds(2.0, [1.0, 3.0]) == calibration.REF_S


def test_traced_counts_repeat(runner):
    metrics, attempted, failed = run.traced(runner)
    assert (attempted, failed) == (3, 0)
    assert metrics["trace.count_mismatches"] == 0
    assert metrics["expr.evals"] > 0
    assert metrics["geom.field_evals"] > 0
    assert metrics["magcurv.calls"] > 0
    assert metrics["flow.nfev"] == 0
    assert set(run.PER_LAYER_UNITS) <= set(metrics)


def test_count_mismatch_reported(runner, monkeypatch):
    original = workloads.Scan.run
    runs = []

    def drifting(self, config, outdir):
        runs.append(outdir)
        if len(runs) == 3:  # the second traced operation does extra work
            geom.christoffel(config.system, np.zeros(3))
        return original(self, config, outdir)

    monkeypatch.setattr(workloads.Scan, "run", drifting)
    metrics, attempted, failed = run.traced(runner)
    assert (attempted, failed) == (3, 1)
    assert metrics["trace.count_mismatches"] >= 1
