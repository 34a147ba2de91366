from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maggeo import flow, geom, systems
from maggeo.errors import ChartExitError

TWO_PI = 2.0 * np.pi


class TestRhs:
    def test_flat_torus_lorentz_force(self, torus):
        dx, dv = flow.magnetic_ode_rhs(torus, flow.PhaseState([0.0, 0.0], [1.0, 0.0]))
        assert np.allclose(dx, [1.0, 0.0])
        assert np.allclose(dv, [0.0, -1.0])

    def test_no_field_flat_is_straight(self):
        sys = systems.flat_torus(b=0.0)
        _, dv = flow.magnetic_ode_rhs(sys, flow.PhaseState([0.3, 0.4], [0.5, -0.2]))
        assert np.max(np.abs(dv)) == 0.0

    def test_sphere_great_circle_closed_form(self, sphere):
        # the equator |x| = 1 at unit speed: x(t) = (cos t, sin t)
        orbit = flow.integrate(sphere, flow.PhaseState([1.0, 0.0], [0.0, 1.0]),
                               TWO_PI, tolerance=1e-12, samples=65)
        expect = np.stack([np.cos(orbit.t), np.sin(orbit.t)], axis=1)
        assert np.max(np.abs(orbit.states[:, :2] - expect)) < 1e-8


class TestIntegrate:
    def test_torus_circle_closes(self, torus_orbit):
        assert torus_orbit.closure_residual < 1e-8
        assert tuple(torus_orbit.winding) == (0, 0)

    def test_radius_two_circle_at_k2(self, torus):
        orbit = flow.integrate(torus, flow.PhaseState([0.0, 0.0], [2.0, 0.0]),
                               TWO_PI, tolerance=1e-12)
        assert orbit.closure_residual < 1e-8
        # radius sqrt(2k)/b = 2: the x2 extent of the circle is 2*radius
        spread = orbit.states[:, 1].max() - orbit.states[:, 1].min()
        assert spread == pytest.approx(4.0, abs=1e-8)

    def test_energy_drift_hundred_periods(self, torus):
        orbit = flow.integrate(torus, flow.PhaseState([0.0, 0.0], [1.0, 0.0]),
                               100 * TWO_PI, tolerance=1e-10, samples=512)
        assert orbit.energy_drift < 1e-7

    def test_tolerance_controls_closure(self, torus):
        residuals = []
        for tol in (1e-6, 1e-8, 1e-10):
            orbit = flow.integrate(torus, flow.PhaseState([0.0, 0.0], [1.0, 0.0]),
                                   TWO_PI, tolerance=tol)
            residuals.append(max(orbit.closure_residual, 1e-16))
        assert residuals[0] > residuals[1] > residuals[2]

    def test_lattice_wrapping_and_winding(self, torus):
        # straight line with sigma = 0 wraps the first coordinate
        sys = systems.flat_torus(b=0.0)
        orbit = flow.integrate(sys, flow.PhaseState([0.0, 0.0], [1.0, 0.0]),
                               TWO_PI, tolerance=1e-10)
        assert tuple(orbit.winding) == (1, 0)
        assert np.max(orbit.wrapped_x[:, 0]) < TWO_PI

    def test_chart_transition_through_pole(self, sphere):
        # radial great circle passes through the far pole: two chart swaps
        orbit = flow.integrate(sphere, flow.PhaseState([0.0, 0.0], [0.5, 0.0]),
                               TWO_PI, tolerance=1e-12)
        assert orbit.meta["chart_swaps_total"] == 2
        assert orbit.closure_residual < 1e-8

    def test_sphere_transition_carries_the_magnetic_field(self):
        # the swap must map the flow of one chart onto the flow of the other
        sys = systems.round_sphere(b=1.0)
        x = np.array([4.0, 0.3]) * (4.0 / np.hypot(4.0, 0.3))
        y = np.concatenate([x, [0.7, -0.4]])
        transition = partial(flow._transition, sys)
        y_new = transition(y)
        tangent = geom._fd_jacobian(transition, y, 1e-6 * np.maximum(1.0, np.abs(y)))
        carried = tangent @ flow._vector_field(sys, y)
        mismatch = np.max(np.abs(flow._vector_field(sys, y_new) - carried))
        assert mismatch < 1e-9 * np.max(np.abs(carried))

    def test_chart_exit_without_transition(self):
        bare = geom.ChartedSystem(
            dim=2, metric=systems.round_sphere().metric,
            two_form=lambda x: np.zeros((2, 2)), scheme="fd", safe_radius=2.0)
        with pytest.raises(ChartExitError):
            flow.integrate(bare, flow.PhaseState([0.0, 0.0], [0.5, 0.0]), TWO_PI,
                           tolerance=1e-10)

    def test_serialization(self, torus_orbit, tmp_path):
        torus_orbit.to_csv(tmp_path / "orbit.csv")
        header = (tmp_path / "orbit.csv").read_text().splitlines()[0]
        assert header == "t,x1,x2,v1,v2,E"
        payload = torus_orbit.to_json()
        assert payload["winding"] == [0, 0]
        assert payload["closure_residual"] < 1e-8

    def test_input_validation(self, torus):
        st = flow.PhaseState([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(ValueError, match="t_end"):
            flow.integrate(torus, st, -1.0)
        with pytest.raises(ValueError, match="tolerance"):
            flow.integrate(torus, st, 1.0, tolerance=0.0)
        # the step slices the state at n: a start state of another shape
        # is rejected before the first step
        for x, v in (([0.0, 0.0, 0.0], [1.0, 0.0]), ([0.0, 0.0], [1.0, 0.0, 0.0]),
                     ([[0.0, 0.0]], [[1.0, 0.0]])):
            with pytest.raises(ValueError, match=r"start state needs x and v of shape \(2,\)"):
                flow.integrate(torus, flow.PhaseState(x, v), 1.0)


class TestOmegaTilde:
    def test_velocity_is_plain_lorentz(self, torus):
        st = flow.PhaseState([0.2, 0.1], [0.6, 0.8])
        got = flow.omega_tilde(torus, st, st.v)
        assert np.allclose(got, geom.lorentz(torus, st.x, st.v), atol=1e-14)

    def test_zero_form(self, sphere):
        st = flow.PhaseState([0.5, 0.0], [0.3, 0.1])
        assert np.max(np.abs(flow.omega_tilde(sphere, st, [1.0, 2.0]))) == 0.0

    def test_antisymmetry(self):
        sys = systems.random_trig_system(dim=3, seed=21)
        rng = np.random.default_rng(14)
        x = rng.uniform(0, 6, size=3)
        vel = rng.standard_normal(3)
        st = flow.PhaseState(x, vel)
        g = sys.metric_at(x)
        for _ in range(5):
            v, w = rng.standard_normal((2, 3))
            a = float(flow.omega_tilde(sys, st, v) @ g @ w)
            b = float(v @ g @ flow.omega_tilde(sys, st, w))
            assert abs(a + b) < 1e-12

    def test_zero_velocity_rejected(self, torus):
        with pytest.raises(ValueError):
            flow.omega_tilde(torus, flow.PhaseState([0.0, 0.0], [0.0, 0.0]), [1.0, 0.0])


class TestTransport:
    def test_velocity_solves_transport(self, torus, torus_orbit):
        tf = flow.magnetic_transport(torus, torus_orbit, torus_orbit.state(0).v)
        assert np.max(np.abs(tf.end_value - torus_orbit.state(-1).v)) < 1e-9

    def test_inner_product_preserved(self, torus, torus_orbit):
        rng = np.random.default_rng(15)
        v0, w0 = rng.standard_normal((2, 2))
        tv = flow.magnetic_transport(torus, torus_orbit, v0)
        tw = flow.magnetic_transport(torus, torus_orbit, w0)
        ips = [float(tv.values[i] @ torus.metric_at(torus_orbit.states[i, :2]) @ tw.values[i])
               for i in range(len(torus_orbit.t))]
        assert np.max(np.abs(np.asarray(ips) - ips[0])) < 1e-8

    def test_no_field_flat_transport_constant(self):
        sys = systems.flat_torus(b=0.0)
        orbit = flow.integrate(sys, flow.PhaseState([0.0, 0.0], [1.0, 0.0]),
                               3.0, tolerance=1e-12)
        tf = flow.magnetic_transport(sys, orbit, np.array([0.3, -0.7]))
        assert np.max(np.abs(tf.values - np.array([0.3, -0.7]))) < 1e-10

    @pytest.mark.parametrize("b, v1, t_end, swaps", [(0.0, 0.5, TWO_PI, 2),
                                                     (1.0, 3.0, 6.0, 11)])
    def test_across_chart_swaps(self, b, v1, t_end, swaps):
        # the velocity solves the transport equation, also past the swaps
        sys = systems.round_sphere(b=b)
        orbit = flow.integrate(sys, flow.PhaseState([0.0, 0.0], [v1, 0.0]), t_end,
                               tolerance=1e-12, samples=257)
        assert orbit.meta["chart_swaps_total"] == swaps
        tf = flow.magnetic_transport(sys, orbit, orbit.state(0).v)
        assert np.max(np.abs(tf.values - orbit.states[:, 2:])) < 1e-9
        p_end = np.column_stack([f.end_value for f in flow.transport_frame(sys, orbit)])
        g = sys.metric_at(orbit.states[-1, :2])
        assert np.max(np.abs(p_end.T @ g @ p_end - np.eye(2))) < 1e-8

    def test_end_map_orthogonal(self, sphere, sphere_orbit):
        fields = flow.transport_frame(sphere, sphere_orbit)
        p_end = np.column_stack([tf.end_value for tf in fields])
        x_end = sphere_orbit.states[-1, :2]
        g = sphere.metric_at(x_end)
        assert np.max(np.abs(p_end.T @ g @ p_end - np.eye(2))) < 1e-8

    @given(st.integers(0, 2 ** 16))
    @settings(max_examples=5, deadline=None)
    def test_end_map_orthogonal_in_dimension_three(self, seed):
        # a short orbit (T = 1) of a random 3-D system, from a random state
        sys = systems.random_trig_system(dim=3, seed=seed)
        rng = np.random.default_rng(seed)
        state = flow.PhaseState(rng.uniform(0.0, TWO_PI, 3), rng.normal(size=3))
        orbit = flow.integrate(sys, state, 1.0, tolerance=1e-12, samples=9)
        p_end = np.column_stack([tf.end_value for tf in flow.transport_frame(sys, orbit)])
        g = sys.metric_at(orbit.states[-1, :3])
        assert np.max(np.abs(p_end.T @ g @ p_end - np.eye(3))) < 1e-8
