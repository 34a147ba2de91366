"""Evaluation counts: each field is evaluated, and the metric factorised,
at most once per point."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from maggeo import flow, geom, magcurv, systems

CALLBACKS = ("metric", "dmetric", "d2metric", "two_form", "dtwo_form")


@pytest.fixture
def counted(monkeypatch):
    """random_trig_system(dim=3) with its callbacks and Cholesky counted."""
    counts = Counter()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    sys = systems.random_trig_system(dim=3)
    sys = dataclasses.replace(sys, **{n: counting(n, getattr(sys, n)) for n in CALLBACKS})
    monkeypatch.setattr(np.linalg, "cholesky", counting("cholesky", np.linalg.cholesky))
    return sys, counts


ALL = dict.fromkeys(CALLBACKS + ("cholesky",), 1)
CASES = {
    "riemann_tensor": (lambda sys, x, v, w: geom.riemann_tensor(sys, x),
                       {"metric": 1, "dmetric": 1, "d2metric": 1, "cholesky": 1}),
    "nabla_omega_tensor": (lambda sys, x, v, w: geom.nabla_omega_tensor(sys, x),
                           {"metric": 1, "dmetric": 1, "two_form": 1, "dtwo_form": 1,
                            "cholesky": 1}),
    "ric_omega_k": (lambda sys, x, v, w: magcurv.ric_omega_k(sys, x, v, 0.7), ALL),
    "sec_omega_k": (lambda sys, x, v, w: magcurv.sec_omega_k(sys, x, v, w, 0.7), ALL),
    "magnetic_ode_rhs": (lambda sys, x, v, w: flow.magnetic_ode_rhs(sys, flow.PhaseState(x, v)),
                         {"metric": 1, "dmetric": 1, "two_form": 1, "cholesky": 1}),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_one_evaluation_per_point(counted, name):
    sys, counts = counted
    x, v, w = magcurv.sample_points_directions(sys, 1, seed=3, pairs=True)[0]
    call, expected = CASES[name]
    counts.clear()
    call(sys, x, v, w)
    assert dict(counts) == expected


@pytest.mark.parametrize("k_grid", [[0.5], [0.1, 0.25, 0.5, 1.0, 2.0]])
def test_scan_cost_independent_of_k_grid(counted, k_grid):
    sys, counts = counted
    budget = 8
    magcurv.positivity_scan(sys, k_grid, budget, seed=2)
    # one point per pair sample and one per direction sample
    assert counts["d2metric"] == 2 * budget
    assert counts["cholesky"] == 2 * budget


def test_point_geometry_caches(counted):
    sys, counts = counted
    pg = geom.PointGeometry(sys, np.array([0.3, 1.1, 2.0]))
    assert geom.PointGeometry.of(sys, pg) is pg
    for _ in range(2):
        _ = pg.riemann, pg.nabla_omega, pg.omega, pg.dgamma
    assert dict(counts) == ALL
    assert np.array_equal(pg.riemann, geom.riemann_tensor(sys, pg.x))
    assert np.array_equal(pg.nabla_omega, geom.nabla_omega_tensor(sys, pg.x))


def test_fd_first_derivative_costs_2n_evaluations():
    calls = []

    def metric(x):
        calls.append(x)
        return np.diag([1.0 + 0.1 * np.sin(x[0]), 1.0 + 0.1 * np.cos(x[1])])

    sys = geom.ChartedSystem(dim=2, metric=metric, two_form=lambda x: np.zeros((2, 2)))
    _ = geom.PointGeometry(sys, np.array([0.3, 0.4])).dg
    assert len(calls) == 4
