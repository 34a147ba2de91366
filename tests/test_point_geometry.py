"""Evaluation counts: each field callback is called, and the metric
factorised, once per point or stack of points, and the magnetic geodesic
equation forms no g^{-1} of the PointGeometry, solving with g at each flow
step by one LAPACK Cholesky solve; a flow step evaluates its point in one
checked pass, builds no PointGeometry, raises the stack API's named errors
and equals the stack API bit for bit; a callback that ignores the stack axis
is rejected; a stack of points has the geometry of each of its points, and
the equation equals the contractions of its tensors, for every builtin and
for expression systems."""

import dataclasses
import re
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
EQUATION = {"metric": 1, "dmetric": 1, "two_form": 1}   # no g^{-1} of the PointGeometry
CASES = {
    "riemann_tensor": (lambda sys, x, v, w: geom.riemann_tensor(sys, x),
                       {"metric": 1, "dmetric": 1, "d2metric": 1, "cholesky": 1}),
    "nabla_omega_tensor": (lambda sys, x, v, w: geom.nabla_omega_tensor(sys, x),
                           {"metric": 1, "dmetric": 1, "two_form": 1, "dtwo_form": 1,
                            "cholesky": 1}),
    "ric_omega_k": (lambda sys, x, v, w: magcurv.ric_omega_k(sys, x, v, 0.7), ALL),
    "sec_omega_k": (lambda sys, x, v, w: magcurv.sec_omega_k(sys, x, v, w, 0.7), ALL),
    "magnetic_ode_rhs": (lambda sys, x, v, w: flow.magnetic_ode_rhs(sys, flow.PhaseState(x, v)),
                         EQUATION),
    "acceleration_and_jacobian": (
        lambda sys, x, v, w: geom.acceleration_and_jacobian(geom.PointGeometry(sys, x), v),
        dict.fromkeys(CALLBACKS, 1)),
    "transport_rate": (
        lambda sys, x, v, w: geom.transport_rate(geom.PointGeometry(sys, x), v, w), EQUATION),
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
    assert dict(counts) == EQUATION


@pytest.fixture
def touched(monkeypatch):
    """The tensors of a PointGeometry read (name and shape of its points),
    of those the magnetic geodesic equation does without."""
    log = []
    for name in ("gamma", "dgamma", "omega", "domega", "ginv"):
        def read(pg, name=name, cached=vars(geom.PointGeometry)[name]):
            log.append((name, pg.x.shape))
            return cached.__get__(pg, geom.PointGeometry)
        monkeypatch.setattr(geom.PointGeometry, name, property(read))
    return log


def test_flow_steps_solve_by_one_cholesky(counted, touched, monkeypatch):
    """No RHS call of the flow builds a PointGeometry, reads Gamma, dGamma,
    Om, dOm or g^{-1}, or reaches ``np.linalg.solve`` or ``inv``: each step
    evaluates its point in one checked pass, calling every callback it
    reads once, and solves with the g of its point by one LAPACK Cholesky
    solve.  ``integrate`` builds one PointGeometry, for its sample stack,
    checks g positive-definite on it by one Cholesky factorisation, inverts
    the factor once and reads g once more for the start energy.  A transport
    step reads its point's fields from the same one-pass evaluation: one
    call of each callback it reads, and its solve with g by one Cholesky
    solve; it reads no tensor either."""
    sys, counts = counted
    for module, name in ((geom, "dposv"), (np.linalg, "solve"), (np.linalg, "inv")):
        def count(*args, name=name, fn=getattr(module, name), **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, count)
    init = geom.PointGeometry.__init__

    def counting_init(pg, *args):
        counts["PointGeometry"] += 1
        init(pg, *args)

    monkeypatch.setattr(geom.PointGeometry, "__init__", counting_init)
    state = flow.PhaseState([0.3, 1.1, 2.0], [0.4, -0.2, 0.3])
    counts.clear()
    orbit = flow.integrate(sys, state, 2.0, samples=17)
    nfev = orbit.meta["nfev"]
    assert nfev > 100
    assert touched == [("ginv", (17, 3))]
    assert dict(counts) == {"PointGeometry": 1, "cholesky": 1, "inv": 1, "dposv": nfev,
                            "metric": nfev + 2, "dmetric": nfev, "two_form": nfev}
    touched.clear()
    counts.clear()
    rates = []
    transport_rate, point_fields = geom.transport_rate, geom.ChartedSystem.point_fields
    monkeypatch.setattr(geom, "transport_rate", lambda *a: rates.append(1) or transport_rate(*a))
    monkeypatch.setattr(geom.ChartedSystem, "point_fields",
                        lambda *a: counts.update(["point_fields"]) or point_fields(*a))
    flow.magnetic_transport(sys, orbit, np.array([0.1, 0.5, -0.3]))
    steps = len(rates)
    assert steps > 100
    assert touched == []
    assert dict(counts) == {"PointGeometry": steps, "point_fields": steps, "dposv": steps,
                            "metric": steps, "dmetric": steps, "two_form": steps}


def _defect(name):
    """A 2-D analytic system, flat with a zero two-form, whose field goes
    wrong as ``name`` says at the points with x1 >= 1."""
    def zero(*shape):
        return lambda x: np.zeros(x.shape[:-1] + shape)

    def from_x1_one(field, entry, value):   # field, with ``entry`` set to value where x1 >= 1
        def callback(x):
            a = field(x)
            a[(...,) + entry] = np.where(x[..., 0] >= 1.0, value, a[(...,) + entry])
            return a
        return callback

    fields = dict(metric=lambda x: np.zeros(x.shape[:-1] + (2, 2)) + np.eye(2),
                  two_form=zero(2, 2), dmetric=zero(2, 2, 2), d2metric=zero(2, 2, 2, 2),
                  dtwo_form=zero(2, 2, 2))
    if name.startswith("wrong shape"):   # one more coordinate in every index
        callback = name.split()[-1]
        field, rank = fields[callback], fields[callback](np.zeros(2)).ndim
        fields[callback] = lambda x: (np.zeros(x.shape[:-1] + (3,) * rank)
                                      if np.max(x[..., 0]) >= 1.0 else field(x))
    elif name == "asymmetric g":
        fields["metric"] = from_x1_one(fields["metric"], (0, 1), 0.1)
    elif name == "symmetric sigma":
        fields["two_form"] = from_x1_one(from_x1_one(zero(2, 2), (0, 1), 0.1), (1, 0), 0.1)
    elif name == "indefinite g":
        fields["metric"] = from_x1_one(fields["metric"], (1, 1), -1.0)
    else:   # "NaN in <derivative callback>"
        callback = name.split()[-1]
        entry = (0, 1) + (0,) * (fields[callback](np.zeros(2)).ndim - 2)
        fields[callback] = from_x1_one(fields[callback], entry, np.nan)
    return geom.ChartedSystem(dim=2, scheme="analytic", **fields)


@pytest.mark.parametrize("defect", [
    "wrong shape metric", "wrong shape dmetric", "wrong shape two_form", "asymmetric g",
    "symmetric sigma", "NaN in dmetric", "indefinite g", "NaN in d2metric", "NaN in dtwo_form"])
def test_defect_in_a_step_raises_the_named_error(defect):
    """A field that goes wrong on the way raises, in a step of ``integrate``
    (within ``flow._solve``, not in the checks of the sample stack after
    it), the error that the stack API raises at such a point: shape,
    (anti)symmetry and finiteness from the ``*_at`` methods,
    positive-definiteness from the solve, naming a point where it went
    wrong.  ``integrate`` reads no d2g or dsigma."""
    sys = _defect(defect)
    v = np.array([1.0, 0.0])
    with pytest.raises((ValueError, DegenerateMetricError)) as reference:
        geom.acceleration_and_jacobian(geom.PointGeometry(sys, np.array([1.5, 0.3])), v)
    error = type(reference.value)
    named = str(reference.value).split(" at x=")[0]
    state = flow.PhaseState([0.0, 0.3], v)
    if defect in ("NaN in d2metric", "NaN in dtwo_form"):
        assert flow.integrate(sys, state, 3.0).meta["nfev"] > 0
        return
    with pytest.raises(error) as info:
        flow.integrate(sys, state, 3.0)
    assert type(info.value) is error
    assert "_solve" in [entry.name for entry in info.traceback]
    message, _, point = str(info.value).partition(" at x=")
    assert message == named
    if point:
        assert float(re.match(r"array\(\[([^,]+),", point).group(1)) >= 1.0


def test_closing_jacobian_inverts_the_metric_once(counted, touched, monkeypatch):
    sys, counts = counted
    loop = _wobbly_loop(12)
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: counts.update(["inv"]) or inv(a))
    counts.clear()
    solve._closing_jacobian(sys, np.concatenate([loop.nodes.ravel(), [np.log(loop.period)]]))
    assert dict(counts) == dict.fromkeys(CALLBACKS + ("inv",), 1)
    assert touched == []


def test_singular_metric_in_the_step_is_named():
    def metric(x, far):   # the identity for x1 < 1, diag(1, far) for x1 >= 1
        g = np.zeros(x.shape[:-1] + (2, 2))
        g[..., 0, 0] = 1.0
        g[..., 1, 1] = np.where(x[..., 0] < 1.0, 1.0, far)
        return g

    def zero(rank):
        return lambda x: np.zeros(x.shape[:-1] + (2,) * rank)

    def system(far):
        return geom.ChartedSystem(dim=2, metric=lambda x: metric(x, far), two_form=zero(2),
                                  scheme="analytic", dmetric=zero(3), d2metric=zero(4),
                                  dtwo_form=zero(3))

    kernels = (geom.acceleration, geom.acceleration_and_jacobian,
               lambda pg, v: geom.transport_rate(pg, v, v))
    named = r"degenerate metric at x=array\(\[2\. *, 0\.25\]\)"
    xs = np.array([[0.0, 0.0], [0.5, 0.0], [2.0, 0.25], [3.0, 0.0]])
    v = np.tile([1.0, 0.5], (4, 1))
    # g singular (far = 0), or non-singular but indefinite (far = -1): a
    # single point is solved by Cholesky, which rejects both; a stack is
    # solved by LU, which rejects a singular g
    for far, at in ((0.0, (slice(None), 2)), (-1.0, (2,))):
        sys = system(far)
        for i in at:
            pg = geom.PointGeometry(sys, xs[i])
            for kernel in kernels:
                with pytest.raises(DegenerateMetricError, match=named):
                    kernel(pg, v[i])
        if far < 0.0:
            # v g v = 0 for v = (1, 1): transport names the indefinite g, at a
            # point and in a stack, instead of reading v as a zero velocity
            ones = np.ones_like(v)
            for pg, vv in ((geom.PointGeometry(sys, xs[2]), ones[2]),
                           (geom.PointGeometry(sys, xs), ones)):
                with pytest.raises(DegenerateMetricError, match=named):
                    geom.transport_rate(pg, vv, vv)
            # a zero velocity under a positive-definite g is still one
            with pytest.raises(ValueError, match="zero velocity"):
                geom.transport_rate(geom.PointGeometry(sys, xs[0]), np.zeros(2), ones[0])
        # the flow runs along the x1 axis into the half-plane x1 >= 1
        with pytest.raises(DegenerateMetricError, match="degenerate metric at x=") as info:
            flow.integrate(sys, flow.PhaseState([0.0, 0.3], [1.0, 0.0]), 3.0)
        assert float(re.search(r"\[([^,]+),", str(info.value)).group(1)) >= 1.0


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


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_fields_are_rejected_where_they_enter(value):
    def bad_entry(x, rank=2):  # zero, except the (0, 1, 0, ...) entry at points with x1 > 1.5
        a = np.zeros(x.shape[:-1] + (2,) * rank)
        a[(..., 0, 1) + (0,) * (rank - 2)] = np.where(x[..., 0] > 1.5, value, 0.0)
        return a

    def zero(x):
        return np.zeros(x.shape[:-1] + (2, 2))

    xs = np.array([[0.0, 0.0], [1.0, 0.5], [2.0, 0.25], [3.0, 0.0]])
    at = r" at x=array\(\[2\. *, 0\.25\]\)"
    sys = geom.ChartedSystem(dim=2, metric=lambda x: np.eye(2) + bad_entry(x), two_form=zero)
    with pytest.raises(DegenerateMetricError, match="metric not finite" + at):
        geom.PointGeometry(sys, xs).ginv
    # the flow stops where the field enters, not in the step-size control
    with pytest.raises(DegenerateMetricError, match="metric not finite"):
        flow.integrate(sys, flow.PhaseState([0.0, 0.0], [1.0, 0.0]), 3.0)
    sys = geom.ChartedSystem(dim=2, metric=lambda x: np.eye(2) + zero(x), two_form=bad_entry)
    with pytest.raises(ValueError, match="two_form not finite" + at):
        sys.two_form_at(xs)
    # the derivatives: analytic callbacks, and central differences of bad fields
    analytic = geom.ChartedSystem(
        dim=2, metric=lambda x: np.eye(2) + zero(x), two_form=zero, scheme="analytic",
        dmetric=lambda x: bad_entry(x, 3), d2metric=lambda x: bad_entry(x, 4),
        dtwo_form=lambda x: bad_entry(x, 3))
    fd = geom.ChartedSystem(dim=2, metric=lambda x: np.eye(2) + bad_entry(x), two_form=bad_entry)
    for sys in (analytic, fd):
        for name, error in (("dmetric", DegenerateMetricError),
                            ("d2metric", DegenerateMetricError), ("dtwo_form", ValueError)):
            with pytest.raises(error, match=name + " not finite" + at):
                getattr(sys, name + "_at")(xs)
    with pytest.raises(DegenerateMetricError, match="dmetric not finite"):
        flow.integrate(analytic, flow.PhaseState([0.0, 0.0], [1.0, 0.0]), 3.0)


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


def _pivoted_gram_schmidt(g, v):
    """The per-point ``orthonormal_completion`` that the stack form
    replaced, and the coordinate index of each accepted candidate."""
    n = g.shape[0]
    frame = [v / float(np.sqrt(v @ g @ v))]
    candidates = list(range(n))
    pivots = []
    for _ in range(n - 1):
        best, best_norm = None, -1.0
        for c in candidates:
            r = np.eye(n)[c]
            for e in frame:
                r -= (r @ g @ e) * e
            rn = float(np.sqrt(max(r @ g @ r, 0.0)))
            if rn > best_norm:
                best, best_norm, pivot = r, rn, c
        e_new = best / best_norm
        frame.append(e_new)
        pivots.append(pivot)
        # drop the coordinate vector most aligned with the accepted direction
        overlaps = [abs(np.eye(n)[c] @ g @ e_new) for c in candidates]
        candidates.pop(int(np.argmax(overlaps)))
    return np.column_stack(frame), tuple(pivots)


@given(trig_systems, st.integers(0, 2 ** 16))
@settings(max_examples=10, deadline=None)
def test_stack_frames_match_each_point(trig_system, seed):
    """On a (2, 3, n) stack whose points pivot differently,
    ``orthonormal_completion`` equals the per-point pivoted Gram-Schmidt,
    and ``PointGeometry.frame`` and ``loop_frame`` equal the per-point
    ``coordinate_frame``."""
    for sys in [trig_system] + OTHER_SYSTEMS:
        pg = _stack(sys, seed)
        n = sys.dim
        v = np.random.default_rng(seed).normal(size=pg.x.shape)
        v[0, 0], v[0, 1] = np.eye(n)[0], np.eye(n)[-1]   # e_0 and e_{n-1} cannot pivot
        v /= np.sqrt(np.einsum("...i,...ij,...j->...", v, pg.g, v))[..., None]
        completion = geom.orthonormal_completion(sys, pg, v)
        pivots = set()
        for idx in np.ndindex(pg.x.shape[:-1]):
            ref, pivot = _pivoted_gram_schmidt(pg.g[idx], v[idx])
            pivots.add(pivot)
            assert _rel_err(completion[idx], ref, _top(ref)) <= 1e-12, sys.name
            coord = geom.coordinate_frame(sys, pg.x[idx])
            assert _rel_err(pg.frame[idx], coord, _top(coord)) <= 1e-12, sys.name
        assert len(pivots) > 1
        # a loop of 12 nodes in [0.5, 3.5)^n (clear of x2 = 0 of the hyperbolic chart)
        center = np.random.default_rng(seed).uniform(1.0, 3.0, n)
        nodes = center + 0.5 * np.cos(2.0 * np.pi * np.arange(12)[:, None] / 12 + np.arange(n))
        frames, _ = loop_mod.loop_frame(sys, loop_mod.DiscreteLoop(nodes, period=1.0))
        for i, x in enumerate(nodes):
            coord = geom.coordinate_frame(sys, x)
            assert _rel_err(frames[i], coord, _top(coord)) <= 1e-12, sys.name


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


@given(trig_systems, st.integers(0, 2 ** 16))
@settings(max_examples=10, deadline=None)
def test_acceleration_jacobian_matches_central_differences(trig_system, seed):
    """J_x and J_v against central differences of the acceleration in x and
    in v, on a stack of points in [0.5, 2 pi)^n (clear of the boundary x2 = 0
    of the hyperbolic chart).  Under the fd scheme J_x holds the roundoff of
    the second differences of g."""
    h = 1e-5
    for sys in [trig_system, dataclasses.replace(trig_system, scheme="fd")] + OTHER_SYSTEMS:
        rng = np.random.default_rng(seed)
        xs = rng.uniform(0.5, 2.0 * np.pi, size=(2, 3, sys.dim))
        v = rng.normal(size=xs.shape)
        pg = geom.PointGeometry(sys, xs)
        _, jx, jv = geom.acceleration_and_jacobian(pg, v)
        for m, e in enumerate(h * np.eye(sys.dim)):
            dx = (geom.acceleration(geom.PointGeometry(sys, xs + e), v)
                  - geom.acceleration(geom.PointGeometry(sys, xs - e), v)) / (2.0 * h)
            dv = (geom.acceleration(pg, v + e) - geom.acceleration(pg, v - e)) / (2.0 * h)
            tol = 1e-4 if sys.scheme == "fd" else 1e-8
            assert _rel_err(dx, jx[..., m], max(1.0, _top(jx))) <= tol, (sys.name, sys.scheme)
            assert _rel_err(dv, jv[..., m], max(1.0, _top(jv))) <= 1e-8, (sys.name, sys.scheme)


def _equation_by_tensors(pg, v, V):
    """The acceleration, its Jacobian (J_x, J_v) and the transport rate as
    contractions of Gamma, dGamma, Om and dOm, with the scale of the terms
    each is a difference of."""
    gvv = np.einsum("...kij,...i,...j->...k", pg.gamma, v, v)
    gv = np.einsum("...kij,...i->...kj", pg.gamma, v)
    omv = np.einsum("...kj,...j->...k", pg.omega, v)
    dom_v = np.einsum("...kjm,...j->...km", pg.domega, v)
    dgvv = np.einsum("...kijm,...i,...j->...km", pg.dgamma, v, v)
    v2 = np.einsum("...i,...ij,...j->...", v, pg.g, v)

    def par(w):
        return (np.einsum("...i,...ij,...j->...", w, pg.g, v) / v2)[..., None] * v

    def om(w):
        return np.einsum("...kj,...j->...k", pg.omega, w)

    v1 = par(V)
    ov2 = om(V - v1)
    gvV = np.einsum("...kj,...j->...k", gv, V)
    tilde = om(v1) + par(om(V)) + 0.5 * (ov2 - par(ov2))
    ref = (omv - gvv, dom_v - dgvv, pg.omega - 2.0 * gv, tilde - gvV)
    dgam_terms = _top(pg.ginv) * (_top(pg.d2g) + _top(pg.dg) * _top(pg.gamma)) * _top(v) ** 2
    scales = (_top(omv) + _top(gvv), _scale(pg, "domega") * _top(v) + dgam_terms,
              _top(pg.omega) + 2.0 * _top(gv), _top(tilde) + _top(gvV))
    return ref, scales


@given(trig_systems, st.integers(0, 2 ** 16))
@settings(max_examples=10, deadline=None)
def test_equation_matches_tensor_contractions(trig_system, seed):
    """acceleration, acceleration_and_jacobian and transport_rate, formed from dg,
    d2g and solves with g, equal the contractions of the Christoffel and
    Lorentz tensors, at a stack of points and at a single point."""
    for sys in [trig_system] + OTHER_SYSTEMS:
        rng = np.random.default_rng(seed)
        xs = rng.uniform(0.5, 2.0 * np.pi, size=(2, 3, sys.dim))
        v, V = rng.normal(size=(2,) + xs.shape)
        for idx in ((), (1, 2)):   # the stack, and one of its points alone
            pg = geom.PointGeometry(sys, xs[idx])
            a, jx, jv = geom.acceleration_and_jacobian(pg, v[idx])
            got = (geom.acceleration(pg, v[idx]), jx, jv,
                   geom.transport_rate(pg, v[idx], V[idx]))
            ref, scales = _equation_by_tensors(pg, v[idx], V[idx])
            assert _rel_err(a, got[0], scales[0]) <= 1e-14
            for name, mine, theirs, scale in zip(("a", "J_x", "J_v", "transport"),
                                                 got, ref, scales):
                assert _rel_err(mine, theirs, scale) <= 1e-13, (sys.name, sys.scheme, name)


def _nearly_symmetric(sys):
    """sys with g and sigma off exact (anti)symmetry by 1e-13, within the
    tolerance of ``metric_at`` and ``two_form_at``: the flow step takes them
    through the checked methods."""
    skew = np.zeros((sys.dim, sys.dim))
    skew[0, 1] = 1e-13
    return dataclasses.replace(sys, metric=lambda x: sys.metric(x) + skew,
                               two_form=lambda x: sys.two_form(x) + skew,
                               name="nearly_symmetric")


@given(trig_systems, st.integers(0, 2 ** 16))
@settings(max_examples=25, deadline=None)
def test_flow_step_matches_the_point_geometry(trig_system, seed):
    """The single-point pass of a flow step equals the stack API bit for bit:
    ``flow._vector_field`` is (v, ``acceleration(PointGeometry(sys, x), v)``),
    ``magnetic_ode_rhs`` the same, and a transport step's rate, from the
    fields of ``geom._point_geometry``, is ``transport_rate`` of the point's
    ``PointGeometry``."""
    for sys in [trig_system, _nearly_symmetric(trig_system)] + OTHER_SYSTEMS:
        rng = np.random.default_rng(seed)
        for x, v in zip(rng.uniform(0.5, 2.0 * np.pi, size=(3, sys.dim)),
                        rng.normal(size=(3, sys.dim))):
            pg = geom.PointGeometry(sys, x)
            a = geom.acceleration(pg, v)
            assert np.array_equal(flow._vector_field(sys, np.concatenate([x, v])),
                                  np.concatenate([v, a])), sys.name
            dx, dv = flow.magnetic_ode_rhs(sys, flow.PhaseState(x, v))
            assert np.array_equal(dx, v) and np.array_equal(dv, a)
            V = rng.normal(size=sys.dim)
            assert np.array_equal(geom.transport_rate(geom._point_geometry(sys, x), v, V),
                                  geom.transport_rate(pg, v, V)), sys.name
