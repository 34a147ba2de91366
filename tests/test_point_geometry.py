"""Evaluation counts: each field is evaluated, and the metric factorised,
at most once per point (once per stack for the factorisation); and a
stack of points has the geometry of each of its points."""

import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maggeo import flow, geom, loop as loop_mod, magcurv, solve, systems

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
    assert counts["metric"] == 2 * budget
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


def _wobbly_loop(n_nodes):
    s = np.arange(n_nodes) / n_nodes
    nodes = np.stack([1.0 + 0.5 * np.cos(2.0 * np.pi * s), 2.0 + 0.5 * np.sin(2.0 * np.pi * s),
                      0.3 + 0.2 * np.sin(4.0 * np.pi * s)], axis=1)
    return loop_mod.DiscreteLoop(nodes, period=2.0)


def test_loop_geometry_is_one_stack(counted):
    sys, counts = counted
    n_nodes = 12
    loop = _wobbly_loop(n_nodes)
    counts.clear()
    lg = loop_mod._LoopGeometry(sys, loop)
    _ = lg.curvature_blocks
    assert dict(counts) == {**dict.fromkeys(CALLBACKS, n_nodes), "cholesky": 1}
    # a node of the stack shares what the stack has computed
    pg = lg.geometry[3]
    assert np.array_equal(pg.riemann, lg.geometry.riemann[3])
    _ = pg.nabla_omega, pg.dgamma, pg.ginv
    assert dict(counts) == {**dict.fromkeys(CALLBACKS, n_nodes), "cholesky": 1}


def test_closing_residual_is_one_stack(counted):
    sys, counts = counted
    n_nodes = 12
    loop = _wobbly_loop(n_nodes)
    fvec = solve._closing_system(sys, 0.5, n_nodes, sys.dim, [])
    counts.clear()
    fvec(np.concatenate([loop.nodes.ravel(), [np.log(loop.period)]]))
    assert dict(counts) == {"metric": n_nodes, "dmetric": n_nodes, "two_form": n_nodes,
                            "cholesky": 1}


FIELDS = ("g", "ginv", "dg", "d2g", "sigma", "dsigma", "theta", "gamma", "dgamma",
          "riemann", "omega", "domega", "nabla_omega")
trig_systems = st.builds(lambda dim, seed: systems.random_trig_system(dim=dim, seed=seed),
                         st.integers(2, 4), st.integers(0, 2 ** 16))


def _stack(sys, seed):
    """Geometry of a (2, 3, n) stack of points of sys."""
    xs = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, size=(2, 3, sys.dim))
    return geom.PointGeometry(sys, xs)


def _rel_err(a, b):
    return float(np.max(np.abs(a - b))) / max(float(np.max(np.abs(b))), 1e-300)


@given(trig_systems, st.integers(0, 2 ** 16))
@settings(max_examples=25, deadline=None)
def test_stack_matches_each_point(sys, seed):
    stack = _stack(sys, seed)
    for idx in np.ndindex(stack.x.shape[:-1]):
        single = geom.PointGeometry(sys, stack.x[idx])
        for name in FIELDS:
            assert _rel_err(getattr(stack, name)[idx], getattr(single, name)) <= 1e-12, name
            assert np.array_equal(getattr(stack[idx], name), getattr(stack, name)[idx])


@given(trig_systems, st.integers(0, 2 ** 16))
@settings(max_examples=25, deadline=None)
def test_first_bianchi_identity(sys, seed):
    # R(u,v)w + R(v,w)u + R(w,u)v = 0, i.e. R[l,k,i,j] + R[l,i,j,k] + R[l,j,k,i] = 0
    r = _stack(sys, seed).riemann
    cyclic = r + np.einsum("...lijk->...lkij", r) + np.einsum("...ljki->...lkij", r)
    assert float(np.max(np.abs(cyclic))) <= 1e-12 * float(np.max(np.abs(r)))


@given(trig_systems, st.integers(0, 2 ** 16))
@settings(max_examples=25, deadline=None)
def test_lorentz_operator_g_antisymmetric(sys, seed):
    stack = _stack(sys, seed)
    g_om = stack.g @ stack.omega
    sym = g_om + np.swapaxes(g_om, -1, -2)
    assert float(np.max(np.abs(sym))) <= 1e-12 * float(np.max(np.abs(g_om)))
