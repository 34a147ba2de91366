import numpy as np
import pytest

from maggeo import geom, magcurv, systems
from maggeo.errors import FrameError

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def random_frames(sys, n, seed):
    return magcurv.sample_points_directions(sys, n, seed, pairs=True)


class TestAOmega:
    def test_zero_form(self, sphere):
        out = magcurv.a_omega(sphere, np.array([0.2, 0.1]), E1 / sphere.norm([0.2, 0.1], E1),
                              E2 - 0 * E1)
        assert np.max(np.abs(out)) == 0.0

    def test_flat_torus_quadratic_form(self, torus):
        # direct evaluation: <w, Om v> = -1, |Om w|^2 = 1 -> 3/4 + 1/4 = 1
        x = np.zeros(2)
        val = float(magcurv.a_omega(torus, x, E1, E2) @ torus.metric_at(x) @ E2)
        assert val == pytest.approx(1.0, abs=1e-14)

    def test_quadratic_form_identity(self):
        sys = systems.random_trig_system(dim=3, seed=13)
        for x, v, w in random_frames(sys, 20, seed=1):
            g = sys.metric_at(x)
            om = geom.lorentz_matrix(sys, x)
            lhs = float(magcurv.a_omega(sys, x, v, w) @ g @ w)
            rhs = 0.75 * float(w @ g @ (om @ v)) ** 2 + 0.25 * float((om @ w) @ g @ (om @ w))
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))
            assert lhs >= -1e-15

    def test_frame_violation(self, torus):
        with pytest.raises(FrameError):
            magcurv.a_omega(torus, np.zeros(2), 2.0 * E1, E2)
        with pytest.raises(FrameError):
            magcurv.a_omega(torus, np.zeros(2), E1, E1)


class TestROmega:
    def test_sphere_no_field(self, sphere):
        x = np.array([0.3, 0.4])
        fr = geom.coordinate_frame(sphere, x)
        v, w = fr[:, 0], fr[:, 1]
        g = sphere.metric_at(x)
        out = magcurv.r_omega_k(sphere, x, v, w, 0.5)
        assert float(out @ g @ w) == pytest.approx(1.0, abs=1e-10)

    def test_flat_torus_vanishes(self, torus):
        out = magcurv.r_omega_k(torus, np.zeros(2), E1, E2, 0.7)
        assert np.max(np.abs(out)) < 1e-14

    def test_sqrt_2k_scaling(self):
        # subtract the curvature part; the rest is linear in sqrt(2k)
        sys = systems.random_trig_system(dim=3, seed=14)
        x, v, w = random_frames(sys, 1, seed=2)[0]
        def mag_part(k):
            full = magcurv.r_omega_k(sys, x, v, w, k)
            curv = 2.0 * k * geom.riemann(sys, x, w, v, v)
            return full - curv
        ratio = mag_part(2.0) / mag_part(0.5)
        assert np.allclose(ratio, 2.0, atol=1e-10)


class TestSecOmega:
    def test_flat_torus_constant_one(self, torus):
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = rng.uniform(0, 2 * np.pi, size=2)
            ang = rng.uniform(0, 2 * np.pi)
            v = np.array([np.cos(ang), np.sin(ang)])
            w = np.array([-np.sin(ang), np.cos(ang)])
            assert magcurv.sec_omega_k(torus, x, v, w, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_zero_form_reduces_to_riemannian(self, sphere):
        x = np.array([-0.2, 0.6])
        fr = geom.coordinate_frame(sphere, x)
        for k in (0.5, 1.7):
            got = magcurv.sec_omega_k(sphere, x, fr[:, 0], fr[:, 1], k)
            assert got == pytest.approx(2.0 * k * 1.0, abs=1e-10)

    def test_matches_operator_route(self):
        sys = systems.random_trig_system(dim=3, seed=15)
        for x, v, w in random_frames(sys, 10, seed=4):
            g = sys.metric_at(x)
            direct = magcurv.sec_omega_k(sys, x, v, w, 0.8)
            operator = float(magcurv.m_omega_k(sys, x, v, w, 0.8) @ g @ w)
            assert abs(direct - operator) < 1e-10 * max(1.0, abs(direct))

    @pytest.mark.parametrize("dim, seed", [(3, 31), (4, 32)])
    def test_paper_formula_oracle(self, dim, seed):
        # 2k Sec - sqrt(2k) <(D_w Om)v, w> + 3/4 <w, Om v>^2 + 1/4 |Om w|^2,
        # assembled here from the geom tensors, not from the operator
        sys = systems.random_trig_system(dim=dim, seed=seed)
        for x, v, w in random_frames(sys, 8, seed=seed):
            g = sys.metric_at(x)
            om = geom.lorentz_matrix(sys, x)
            sec = float(geom.riemann(sys, x, w, v, v) @ g @ w)
            dwv = float(geom.nabla_omega(sys, x, w, v) @ g @ w)
            a_part = 0.75 * float(w @ g @ (om @ v)) ** 2 + 0.25 * float((om @ w) @ g @ (om @ w))
            for k in (0.3, 1.4):
                expect = 2.0 * k * sec - np.sqrt(2.0 * k) * dwv + a_part
                got = magcurv.sec_omega_k(sys, x, v, w, k)
                assert abs(got - expect) < 1e-12 * max(1.0, abs(expect))

    def test_k_structure(self):
        # Sec_k - 2k Sec + sqrt(2k) <(D_w Om)v, w> is k-independent
        sys = systems.random_trig_system(dim=3, seed=16)
        for x, v, w in random_frames(sys, 5, seed=5):
            g = sys.metric_at(x)
            def a_part(k):
                sec = float(geom.riemann(sys, x, w, v, v) @ g @ w)
                dwv = geom.nabla_omega(sys, x, w, v)
                return (magcurv.sec_omega_k(sys, x, v, w, k)
                        - 2.0 * k * sec + np.sqrt(2.0 * k) * float(dwv @ g @ w))
            assert abs(a_part(0.5) - a_part(2.0)) < 1e-10

    def test_symmetric_operator(self):
        # the matrix of w -> M_k(v, w) on the orthogonal complement is symmetric
        sys = systems.random_trig_system(dim=4, seed=17)
        x, v, _ = random_frames(sys, 1, seed=6)[0]
        fr = geom.orthonormal_completion(sys, x, v)
        g = sys.metric_at(x)
        m = np.empty((3, 3))
        for a in range(3):
            for b in range(3):
                m[a, b] = float(magcurv.m_omega_k(sys, x, v, fr[:, a + 1], 0.9)
                                @ g @ fr[:, b + 1])
        assert np.max(np.abs(m - m.T)) < 1e-8


class TestRicOmega:
    def test_flat_torus_one(self, torus):
        assert magcurv.ric_omega_k(torus, np.array([0.3, 4.0]), E1, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_sphere_one(self, sphere):
        x = np.array([0.25, -0.45])
        v = geom.coordinate_frame(sphere, x)[:, 0]
        assert magcurv.ric_omega_k(sphere, x, v, 0.5) == pytest.approx(1.0, abs=1e-10)

    def test_trace_formula_oracle(self):
        sys = systems.random_trig_system(dim=3, seed=18)
        for x, v, _ in random_frames(sys, 8, seed=7):
            basis_sum = magcurv.ric_omega_k(sys, x, v, 0.6)
            trace_route = magcurv.ric_omega_k_trace(sys, x, v, 0.6)
            assert abs(basis_sum - trace_route) < 1e-10 * max(1.0, abs(basis_sum))

    def test_basis_independence(self):
        # complete v with randomly rotated orthonormal bases; the trace is stable
        sys = systems.random_trig_system(dim=3, seed=19)
        x, v, _ = random_frames(sys, 1, seed=8)[0]
        g = sys.metric_at(x)
        fr = geom.orthonormal_completion(sys, x, v)
        rng = np.random.default_rng(9)
        base = magcurv.ric_omega_k(sys, x, v, 1.1)
        for _ in range(5):
            ang = rng.uniform(0, 2 * np.pi)
            rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
            e = fr[:, 1:] @ rot
            total = sum(float(magcurv.m_omega_k(sys, x, v, e[:, i], 1.1) @ g @ e[:, i])
                        for i in range(2))
            assert abs(total - base) < 1e-10 * max(1.0, abs(base))


class TestTraceAOmega:
    def test_zero_form(self, sphere):
        x = np.array([0.3, 0.3])
        v = geom.coordinate_frame(sphere, x)[:, 0]
        assert magcurv.trace_a_omega(sphere, x, v) == 0.0

    def test_flat_torus_value(self, torus):
        assert magcurv.trace_a_omega(torus, np.zeros(2), E1) == pytest.approx(1.0, abs=1e-14)

    def test_nonnegative_and_positive_for_nonzero_form(self):
        sys = systems.random_trig_system(dim=3, seed=20)
        rng = np.random.default_rng(10)
        count = 0
        for x, v in magcurv.sample_points_directions(sys, 200, seed=11):
            val = magcurv.trace_a_omega(sys, x, v)
            assert val >= 0.0
            if np.max(np.abs(sys.two_form_at(x))) > 1e-8:
                assert val > 0.0
                count += 1
        assert count > 150


class TestSurfaceFormula:
    def test_uniform_field_flat(self):
        assert magcurv.surface_sec_b(0.0, 1.0, np.zeros(2), E1, 0.5) == pytest.approx(1.0)

    def test_no_field(self):
        assert magcurv.surface_sec_b(0.7, 0.0, np.zeros(2), E2, 1.3) == pytest.approx(2 * 1.3 * 0.7)

    def test_agrees_with_general_formula(self):
        surf = systems.random_conformal_surface(seed=23)
        rng = np.random.default_rng(12)
        for _ in range(40):
            x = rng.uniform(0, 2 * np.pi, size=2)
            fr = geom.coordinate_frame(surf, x)
            ang = rng.uniform(0, 2 * np.pi)
            v = fr @ np.array([np.cos(ang), np.sin(ang)])
            jmat = magcurv.rotation_operator(surf.metric_at(x))
            w = jmat @ v
            k = rng.uniform(0.1, 2.0)
            general = magcurv.sec_omega_k(surf, x, v, w, k)
            special = magcurv.surface_sec(surf, x, v, k)
            assert abs(general - special) < 1e-8 * max(1.0, abs(general))

    def test_gauss_curvature_oracle(self):
        # conformal-Laplacian closed form vs the Riemann-tensor route
        surf = systems.random_conformal_surface(seed=29)
        rng = np.random.default_rng(13)
        for _ in range(10):
            x = rng.uniform(0, 2 * np.pi, size=2)
            assert magcurv.gauss_curvature(surf, x) == pytest.approx(
                surf.extras["gauss"](x), abs=1e-9)


class TestScans:
    def test_flat_torus_min_ric_constant(self, torus):
        report = magcurv.positivity_scan(torus, [0.25, 0.5, 1.0], 32, seed=3)
        assert np.allclose(report.min_ric, 1.0, atol=1e-10)
        assert np.allclose(report.min_sec, 1.0, atol=1e-10)
        assert report.k0_ric == 1.0

    def test_sphere_no_field_scaling(self, sphere):
        report = magcurv.positivity_scan(sphere, [0.5, 1.0, 2.0], 24, seed=4)
        assert np.allclose(report.min_sec, [1.0, 2.0, 4.0], atol=1e-9)
        assert report.k0_sec == 2.0

    def test_variable_positive_field_has_threshold(self):
        sf = systems.sine_field_torus()
        report = magcurv.positivity_scan(sf, [0.05, 0.1, 0.2], 48, seed=5)
        assert report.k0_sec > 0.0
        assert report.k0_ric > 0.0

    def test_determinism_and_serialization(self, torus, tmp_path):
        a = magcurv.positivity_scan(torus, [0.5, 1.0], 16, seed=9)
        b = magcurv.positivity_scan(torus, [0.5, 1.0], 16, seed=9)
        assert a.to_json() == b.to_json()
        a.to_csv(tmp_path / "scan.csv")
        lines = (tmp_path / "scan.csv").read_text().splitlines()
        assert lines[0].startswith("k,min_sec,min_ric")
        assert len(lines) == 3

    def test_minima_match_brute_force(self):
        # same samples as the scan: pairs from the seed, directions from seed + 10007
        sys = systems.random_trig_system(dim=3, seed=33)
        k_grid = [0.1, 0.5, 2.0]
        report = magcurv.positivity_scan(sys, k_grid, 12, seed=6)
        pairs = magcurv.sample_points_directions(sys, 12, 6, pairs=True)
        dirs = magcurv.sample_points_directions(sys, 12, 6 + 10007)
        for i, k in enumerate(k_grid):
            secs = [magcurv.sec_omega_k(sys, x, v, w, k) for x, v, w in pairs]
            rics = [magcurv.ric_omega_k(sys, x, v, k) for x, v in dirs]
            assert report.min_sec[i] == pytest.approx(min(secs), rel=1e-12, abs=1e-12)
            assert report.min_ric[i] == pytest.approx(min(rics), rel=1e-12, abs=1e-12)
            assert np.array_equal(report.argmin_sec[i], pairs[int(np.argmin(secs))][0])
            assert np.array_equal(report.argmin_ric[i], dirs[int(np.argmin(rics))][0])

    def test_rejects_bad_grid(self, torus):
        with pytest.raises(ValueError):
            magcurv.positivity_scan(torus, [], 8, seed=0)
        with pytest.raises(ValueError):
            magcurv.positivity_scan(torus, [0.5, 0.4], 8, seed=0)
        with pytest.raises(ValueError):
            magcurv.positivity_scan(torus, [0.5], 0, seed=0)


class TestTheoremBScan:
    def test_uniform_field(self, torus):
        report = magcurv.theorem_b_scan(torus, k0=0.5, k_steps=4, grid_shape=(8, 8))
        assert all(report.positive)
        assert not report.zero_set
        assert not report.dichotomy_warning

    def test_zero_field_positive_curvature(self, sphere):
        report = magcurv.theorem_b_scan(sphere, k0=0.5, k_steps=4, grid_shape=(8, 8),
                                        box=[(-1.0, 1.0), (-1.0, 1.0)])
        assert all(report.positive)
        assert report.b_has_zero and not report.b_has_nonzero
        assert len(report.zero_set) == 64

    def test_vanishing_field_line_breaks_positivity(self):
        sf = systems.sine_field_torus(base=0.0, amp=1.0)  # b = sin(x1)
        report = magcurv.theorem_b_scan(sf, k0=0.2, k_steps=6, grid_shape=(16, 8))
        assert not all(report.positive)
        assert report.b_has_zero and report.b_has_nonzero
        assert not report.dichotomy_warning

    def test_rejects_non_surface(self):
        sys3 = systems.random_trig_system(dim=3, seed=30)
        with pytest.raises(ValueError):
            magcurv.theorem_b_scan(sys3, k0=0.5)
