import numpy as np
import pytest

from maggeo import geom, systems
from maggeo.errors import DegenerateMetricError, FrameError


def polar_sphere(scheme="fd"):
    """Unit sphere in the colatitude/longitude chart g = diag(1, sin^2 x1)."""
    return geom.ChartedSystem(
        dim=2,
        metric=lambda x: np.diag([1.0, np.sin(x[0]) ** 2]),
        two_form=lambda x: np.zeros((2, 2)),
        scheme=scheme,
    )


class TestChristoffel:
    def test_flat_torus_vanishes(self, torus):
        gam = geom.christoffel(torus, np.array([0.3, 5.0]))
        assert np.max(np.abs(gam)) == 0.0

    def test_polar_sphere_hand_value(self):
        # symbolic differentiation of diag(1, sin^2 x1):
        # Gamma^1_22 = -sin(x1) cos(x1) = -0.5 at x1 = pi/4
        gam = geom.christoffel(polar_sphere(), np.array([np.pi / 4, 0.3]))
        assert gam[0, 1, 1] == pytest.approx(-0.5, abs=1e-8)
        assert np.max(np.abs(gam - np.transpose(gam, (0, 2, 1)))) < 1e-12

    def test_analytic_vs_fd_scheme(self):
        def metric(x):
            g = np.eye(2)
            g[0, 0] += 0.1 * np.sin(x[0])
            return g

        def dmetric(x):
            out = np.zeros((2, 2, 2))
            out[0, 0, 0] = 0.1 * np.cos(x[0])
            return out

        def d2metric(x):
            out = np.zeros((2, 2, 2, 2))
            out[0, 0, 0, 0] = -0.1 * np.sin(x[0])
            return out

        analytic = geom.ChartedSystem(
            dim=2, metric=metric, two_form=lambda x: np.zeros((2, 2)),
            scheme="analytic", dmetric=dmetric, d2metric=d2metric,
            dtwo_form=lambda x: np.zeros((2, 2, 2)))
        fd = geom.ChartedSystem(
            dim=2, metric=metric, two_form=lambda x: np.zeros((2, 2)),
            scheme="fd", fd_step=1e-4)
        x = np.array([0.83, -0.4])
        assert np.max(np.abs(geom.christoffel(analytic, x)
                             - geom.christoffel(fd, x))) < 1e-6

    def test_derivative_step_underflow(self):
        tiny = geom.ChartedSystem(
            dim=2, metric=lambda x: np.eye(2),
            two_form=lambda x: np.zeros((2, 2)), scheme="fd", fd_step=1e-30)
        from maggeo.errors import DerivativeStepError
        with pytest.raises(DerivativeStepError):
            geom.christoffel(tiny, np.array([1.0, 1.0]))

    def test_degenerate_metric_rejected(self):
        bad = geom.ChartedSystem(
            dim=2, metric=lambda x: np.diag([1.0, -1.0]),
            two_form=lambda x: np.zeros((2, 2)), scheme="fd")
        with pytest.raises(DegenerateMetricError):
            geom.christoffel(bad, np.zeros(2))


class TestRiemann:
    def test_flat_torus_vanishes(self, torus):
        rng = np.random.default_rng(0)
        u, v, w = rng.standard_normal((3, 2))
        out = geom.riemann(torus, np.array([1.0, 2.0]), u, v, w)
        assert np.max(np.abs(out)) < 1e-14

    def test_sphere_constant_curvature_identity(self, sphere):
        # oracle: on the round unit sphere R(u,v)w = <v,w> u - <u,w> v
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = rng.uniform(-0.8, 0.8, size=2)
            g = sphere.metric_at(x)
            u, v, w = rng.standard_normal((3, 2))
            got = geom.riemann(sphere, x, u, v, w)
            expect = float(v @ g @ w) * u - float(u @ g @ w) * v
            assert np.max(np.abs(got - expect)) < 1e-9

    def test_sphere_sectional_one(self, sphere):
        x = np.array([0.2, -0.5])
        fr = geom.coordinate_frame(sphere, x)
        assert geom.sectional(sphere, x, fr[:, 0], fr[:, 1]) == pytest.approx(1.0, abs=1e-12)

    def test_antisymmetry_in_first_pair(self):
        sys = systems.random_trig_system(dim=3, seed=5)
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 6, size=3)
        g = sys.metric_at(x)
        u, v, w, z = rng.standard_normal((4, 3))
        a = float(geom.riemann(sys, x, u, v, w) @ g @ z)
        b = float(geom.riemann(sys, x, v, u, w) @ g @ z)
        assert abs(a + b) < 1e-9 * max(1.0, abs(a))

    def test_pair_symmetry(self):
        sys = systems.random_trig_system(dim=3, seed=6)
        rng = np.random.default_rng(3)
        for _ in range(4):
            x = rng.uniform(0, 6, size=3)
            g = sys.metric_at(x)
            u, v, w, z = rng.standard_normal((4, 3))
            a = float(geom.riemann(sys, x, u, v, w) @ g @ z)
            b = float(geom.riemann(sys, x, w, z, u) @ g @ v)
            assert abs(a - b) < 1e-8


class TestLorentz:
    def test_flat_torus_unit_field(self, torus):
        x = np.zeros(2)
        assert np.allclose(geom.lorentz(torus, x, [0.0, 1.0]), [1.0, 0.0])
        assert np.allclose(geom.lorentz(torus, x, [1.0, 0.0]), [0.0, -1.0])

    def test_zero_form(self, sphere):
        assert np.max(np.abs(geom.lorentz(sphere, np.array([0.1, 0.2]), [1.0, 2.0]))) == 0.0

    def test_compatibility_relation(self):
        sys = systems.random_trig_system(dim=3, seed=7)
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = rng.uniform(0, 6, size=3)
            v, w = rng.standard_normal((2, 3))
            g = sys.metric_at(x)
            sig = sys.two_form_at(x)
            lhs = float(v @ g @ geom.lorentz(sys, x, w))
            rhs = float(v @ sig @ w)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))

    def test_g_antisymmetry(self):
        sys = systems.random_trig_system(dim=4, seed=8)
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 6, size=4)
        g = sys.metric_at(x)
        v, w = rng.standard_normal((2, 4))
        a = float(geom.lorentz(sys, x, v) @ g @ w)
        b = float(v @ g @ geom.lorentz(sys, x, w))
        assert abs(a + b) < 1e-10


    def test_domega_matches_central_difference(self):
        sys = systems.random_trig_system(dim=3, seed=4)
        x = np.array([0.4, -1.1, 2.3])
        h = 1e-5
        fd = np.stack([(geom.lorentz_matrix(sys, x + h * e)
                        - geom.lorentz_matrix(sys, x - h * e)) / (2.0 * h)
                       for e in np.eye(3)], axis=-1)
        dom = geom.PointGeometry(sys, x).domega
        assert np.max(np.abs(dom - fd)) < 1e-8 * np.max(np.abs(dom))


class TestNablaOmega:
    def test_constant_field_flat_connection(self, torus):
        rng = np.random.default_rng(6)
        w, v = rng.standard_normal((2, 2))
        out = geom.nabla_omega(torus, np.array([0.7, 0.1]), w, v)
        assert np.max(np.abs(out)) < 1e-14

    def test_surface_rotation_identity(self):
        # on a surface with sigma = b * area form: (D_w Om)(v) = db(w) J v
        from maggeo import magcurv

        sf = systems.sine_field_torus()
        rng = np.random.default_rng(7)
        for _ in range(5):
            x = rng.uniform(0, 2 * np.pi, size=2)
            w, v = rng.standard_normal((2, 2))
            got = geom.nabla_omega(sf, x, w, v)
            db = sf.extras["db"](x)
            jmat = magcurv.rotation_operator(sf.metric_at(x))
            expect = float(db @ w) * (jmat @ v)
            assert np.max(np.abs(got - expect)) < 1e-10

    def test_cyclic_identity(self):
        # d sigma = 0:  <(D_w Om)v, z> + <(D_z Om)w, v> + <(D_v Om)z, w> = 0
        for seed, scheme in ((9, "analytic"), (9, "fd")):
            sys = systems.random_trig_system(dim=3, seed=seed)
            if scheme == "fd":
                sys = geom.ChartedSystem(
                    dim=3, metric=sys.metric, two_form=sys.two_form,
                    scheme="fd", fd_step=1e-5)
            rng = np.random.default_rng(10)
            for _ in range(5):
                x = rng.uniform(0, 6, size=3)
                g = sys.metric_at(x)
                w, v, z = rng.standard_normal((3, 3))
                total = (float(geom.nabla_omega(sys, x, w, v) @ g @ z)
                         + float(geom.nabla_omega(sys, x, z, w) @ g @ v)
                         + float(geom.nabla_omega(sys, x, v, z) @ g @ w))
                assert abs(total) < 1e-6

    def test_bilinearity(self, sphere):
        sys = systems.round_sphere(b=0.7)
        x = np.array([0.4, 0.3])
        rng = np.random.default_rng(11)
        w1, w2, v = rng.standard_normal((3, 2))
        left = geom.nabla_omega(sys, x, 2.0 * w1 + w2, v)
        right = 2.0 * geom.nabla_omega(sys, x, w1, v) + geom.nabla_omega(sys, x, w2, v)
        assert np.allclose(left, right, atol=1e-12)


class TestMetricCompatibility:
    def test_product_rule_along_curve(self, sphere):
        # d/dt <V, W> = <DV/dt, W> + <V, DW/dt> with analytic test fields
        def c(t):
            return np.array([0.4 * np.cos(t), 0.3 * np.sin(t)])

        def cdot(t):
            return np.array([-0.4 * np.sin(t), 0.3 * np.cos(t)])

        def vf(t):
            return np.array([np.cos(2 * t), np.sin(t) + 0.5])

        def wf(t):
            return np.array([0.3, np.cos(t)])

        def vdot(t):
            return np.array([-2 * np.sin(2 * t), np.cos(t)])

        def wdot(t):
            return np.array([0.0, -np.sin(t)])

        for t in (0.0, 0.5, 1.3):
            x = c(t)
            gam = geom.christoffel(sphere, x)
            dv = vdot(t) + np.einsum("kij,i,j->k", gam, cdot(t), vf(t))
            dw = wdot(t) + np.einsum("kij,i,j->k", gam, cdot(t), wf(t))
            g = sphere.metric_at(x)
            rhs = float(dv @ g @ wf(t)) + float(vf(t) @ g @ dw)
            h = 1e-6
            f_p = float(vf(t + h) @ sphere.metric_at(c(t + h)) @ wf(t + h))
            f_m = float(vf(t - h) @ sphere.metric_at(c(t - h)) @ wf(t - h))
            lhs = (f_p - f_m) / (2 * h)
            assert abs(lhs - rhs) < 1e-7


class TestFrames:
    def test_orthonormal_completion(self, sphere):
        x = np.array([0.5, -0.1])
        g = sphere.metric_at(x)
        v = np.array([1.0, 0.4])
        v = v / sphere.norm(x, v)
        fr = geom.orthonormal_completion(sphere, x, v)
        assert np.allclose(fr.T @ g @ fr, np.eye(2), atol=1e-12)
        assert np.allclose(fr[:, 0], v)

    def test_non_unit_rejected(self, sphere):
        with pytest.raises(FrameError):
            geom.orthonormal_completion(sphere, np.array([0.5, -0.1]), np.array([1.0, 0.4]))

    def test_primitive_consistency(self, hyperbolic):
        assert geom.exterior_derivative_residual(hyperbolic, np.array([0.3, 1.5])) < 1e-8
