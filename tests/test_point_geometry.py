"""Evaluation counts: each field callback is called, and the metric
factorised, once per point or stack of points; a callback that ignores the
stack axis is rejected; and a stack of points has the geometry of each of
its points, for every builtin and for expression systems."""

import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maggeo import cli, flow, geom, loop as loop_mod, magcurv, solve, systems
from maggeo.config import RunConfig, parse_config
from maggeo.errors import DegenerateMetricError

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
    # one stack of pair samples and one of direction samples
    assert counts["metric"] == 2
    assert counts["d2metric"] == 2
    assert counts["cholesky"] == 2


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
    assert dict(counts) == ALL
    # a node of the stack shares what the stack has computed
    pg = lg.geometry[3]
    assert np.array_equal(pg.riemann, lg.geometry.riemann[3])
    _ = pg.nabla_omega, pg.dgamma, pg.ginv
    assert dict(counts) == ALL


def test_closing_residual_is_one_stack(counted):
    sys, counts = counted
    n_nodes = 12
    loop = _wobbly_loop(n_nodes)
    fvec = solve._closing_system(sys, 0.5)
    counts.clear()
    fvec(np.concatenate([loop.nodes.ravel(), [np.log(loop.period)]]))
    assert dict(counts) == {"metric": 1, "dmetric": 1, "two_form": 1, "cholesky": 1}


def test_curvature_command_evaluates_each_sample_once(counted, tmp_path):
    sys, counts = counted
    k, n_samples, seed = 0.7, 8, 5
    config = RunConfig(system=sys, output={"dir": str(tmp_path), "formats": ["csv"]},
                       task={"command": "curvature", "k": k, "samples": n_samples,
                             "seed": seed})
    counts.clear()
    assert cli.cmd_curvature(config) == 0
    assert counts["metric"] == 1
    rows = (tmp_path / "curvature.csv").read_text().splitlines()[1:]
    got = np.array([[float(c) for c in row.split(",")] for row in rows])
    # the values of a fresh geometry at every sampled point
    expected = []
    for x, v, w in magcurv.sample_points_directions(sys, n_samples, seed, pairs=True):
        cs = magcurv.curvature_sample(sys, x, v, k, w=w)
        expected.append([*x, *v, k, cs.sec, cs.ric, cs.traceA])
    assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)


def test_callback_ignoring_the_stack_is_rejected():
    sys = geom.ChartedSystem(dim=2, metric=lambda x: np.eye(2),
                             two_form=lambda x: np.zeros(x.shape[:-1] + (2, 2)))
    assert np.array_equal(sys.metric_at(np.array([0.1, 0.2])), np.eye(2))
    with pytest.raises(ValueError, match=r"metric callback returned shape \(2, 2\)"):
        geom.PointGeometry(sys, np.zeros((5, 2))).g


def test_asymmetric_point_of_a_stack_is_named():
    def metric(x):
        g = np.zeros(x.shape[:-1] + (2, 2)) + np.eye(2)
        g[..., 0, 1] = np.where(x[..., 0] > 1.5, 0.1, 0.0)
        return g

    sys = geom.ChartedSystem(dim=2, metric=metric,
                             two_form=lambda x: np.zeros(x.shape[:-1] + (2, 2)))
    xs = np.array([[0.0, 0.0], [1.0, 0.5], [2.0, 0.25], [3.0, 0.0]])
    with pytest.raises(DegenerateMetricError, match=r"x=array\(\[2\. *, 0\.25\]\)"):
        sys.metric_at(xs)


FIELDS = ("g", "ginv", "dg", "d2g", "sigma", "dsigma", "theta", "gamma", "dgamma",
          "riemann", "omega", "domega", "nabla_omega")
trig_systems = st.builds(lambda dim, seed: systems.random_trig_system(dim=dim, seed=seed),
                         st.integers(2, 4), st.integers(0, 2 ** 16))
SCAN_SYSTEM = """
[system]
dimension = 3
derivatives = {scheme}
g11 = 1.2 + 0.2*sin(x2)
g22 = 1 + 0.1*cos(x3)
g33 = 1
g23 = 0.05*sin(x1)
sigma12 = 1
sigma13 = -0.2*cos(x3)
sigma23 = 0.5*cos(x2)
theta1 = 0.2*sin(x3)
theta2 = x1
theta3 = 0.5*sin(x2)

[task]
command = scan-k0
k_grid = 0.5
"""
# every builtin, a conformal surface, and the scan workload's expression
# system under both derivative schemes
OTHER_SYSTEMS = [
    systems.flat_torus(), systems.sine_field_torus(), systems.round_sphere(b=0.0),
    systems.round_sphere(b=1.0), systems.hyperbolic_chart(), systems.random_conformal_surface(7),
    parse_config(SCAN_SYSTEM.format(scheme="analytic")).system,
    parse_config(SCAN_SYSTEM.format(scheme="fd")).system,
]


def _stack(sys, seed):
    """Geometry of a (2, 3, n) stack of points of sys."""
    xs = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, size=(2, 3, sys.dim))
    return geom.PointGeometry(sys, xs)


def _top(a):
    return float(np.max(np.abs(a)))


def _scale(pg, name):
    """Magnitude of the terms the array ``name`` is computed from.  dOm and
    nabla Om are differences of such terms, and vanish identically where Om
    is parallel (round_sphere with b != 0)."""
    if name == "domega":
        return _top(pg.ginv) * (_top(pg.dsigma) + _top(pg.dg) * _top(pg.omega))
    if name == "nabla_omega":
        return _scale(pg, "domega") + _top(pg.gamma) * _top(pg.omega)
    return _top(getattr(pg, name))


def _rel_err(a, b, scale):
    return float(np.max(np.abs(a - b))) / max(scale, 1e-300)


@given(trig_systems, st.integers(0, 2 ** 16))
@settings(max_examples=25, deadline=None)
def test_stack_matches_each_point(trig_system, seed):
    for sys in [trig_system] + OTHER_SYSTEMS:
        stack = _stack(sys, seed)
        for idx in np.ndindex(stack.x.shape[:-1]):
            single = geom.PointGeometry(sys, stack.x[idx])
            for name in FIELDS:
                if name == "theta" and sys.primitive is None:
                    continue
                err = _rel_err(getattr(stack, name)[idx], getattr(single, name),
                               _scale(single, name))
                assert err <= 1e-12, (sys.name, name)
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
